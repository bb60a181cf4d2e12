package types

// Row is a tuple of values. Rows are value-like: executors never mutate a
// row after handing it downstream; copies are made when buffering.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Concat returns the concatenation of two rows as a fresh row.
func Concat(a, b Row) Row {
	c := make(Row, 0, len(a)+len(b))
	c = append(c, a...)
	c = append(c, b...)
	return c
}

// Hash hashes the whole row, consistent with EqualNullSafe.
func (r Row) Hash() uint64 {
	h := uint64(fnvOffset64)
	for i := range r {
		h = r[i].hashInto(h)
	}
	return h
}

// EqualNullSafe reports whether two rows are equal treating NULLs as equal
// (IS NOT DISTINCT FROM semantics); this is the row equality used for
// grouping, DISTINCT and set operations.
func (r Row) EqualNullSafe(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if Distinct(r[i], o[i]) {
			return false
		}
	}
	return true
}

// NullRow returns a row of n typed NULLs matching the given kinds.
func NullRow(kinds []Kind) Row {
	r := make(Row, len(kinds))
	for i, k := range kinds {
		r[i] = NewNull(k)
	}
	return r
}
