package perm

import (
	"slices"
	"unsafe"

	"perm/internal/types"
	"perm/internal/vector"
)

// Raw-value bridging for the permd wire protocol and the result
// boundary. These helpers expose the engine's internal typed values so
// the server and client can ship results without loss; they are
// module-internal plumbing (the types live under internal/) and not part
// of the stable embedded API.

// A Value is a types.Value under a public name, so a row of one is a row
// of the other, and both are 32 bytes: the boxed result, the row heap and
// the wire decoder's slab hold millions of them. An array length goes
// negative, and the build breaks, should either size change.
var (
	_ [unsafe.Sizeof(Value{}) - unsafe.Sizeof(types.Value{})]struct{}
	_ [unsafe.Sizeof(types.Value{}) - unsafe.Sizeof(Value{})]struct{}
	_ [unsafe.Sizeof(types.Value{}) - 32]struct{}
	_ [32 - unsafe.Sizeof(types.Value{})]struct{}
)

// rawRow views a result row as engine values, sharing its storage.
func rawRow(row []Value) []types.Value {
	return unsafe.Slice((*types.Value)(unsafe.Pointer(unsafe.SliceData(row))), len(row))
}

// RawRows returns the result tuples as engine values. The rows share the
// result's storage: a wide result is held once, not twice, while the
// server encodes it.
func (r *Result) RawRows() [][]types.Value {
	out := make([][]types.Value, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = rawRow(row)
	}
	return out
}

// NewRawResult builds a Result over engine values, taking the rows over:
// the result shares their storage (the client side of the wire protocol,
// whose decoder hands over the one slab it decoded into).
func NewRawResult(cols []string, prov []bool, rows [][]types.Value) *Result {
	if prov == nil {
		prov = make([]bool, len(cols))
	}
	return &Result{Columns: cols, ProvColumns: prov,
		Rows: unsafe.Slice((*[]Value)(unsafe.Pointer(unsafe.SliceData(rows))), len(rows))}
}

// boxRows appends a copy of engine rows to out: the values go into one
// slab, however many rows there are, so the result never aliases rows the
// engine still owns (a scan hands out its table's own row slices).
func boxRows[R ~[]types.Value](out [][]Value, rows []R) [][]Value {
	cells := 0
	for _, row := range rows {
		cells += len(row)
	}
	slab := make([]Value, cells)
	out = slices.Grow(out, len(rows))
	for _, row := range rows {
		copy(rawRow(slab), row)
		out, slab = append(out, slab[:len(row):len(row)]), slab[len(row):]
	}
	return out
}

// boxBatch appends the live rows of a batch to out. Values are boxed
// column at a time (the kind is examined once per column) into one slab
// per batch. Every row is capped at its own length, so appending to one
// reallocates it and cannot run into its neighbour.
func boxBatch(out [][]Value, b *vector.Batch) [][]Value {
	n, width := b.Live(), len(b.Cols)
	slab := make([]Value, n*width)
	raw := rawRow(slab)
	sel := b.Sel
	if sel == nil {
		sel = vector.Lanes(n)
	}
	for lo := 0; lo < n; lo += boxBlock {
		hi := min(lo+boxBlock, n)
		for j, c := range b.Cols {
			c.BoxStrided(raw[lo*width+j:], width, sel[lo:hi], hi-lo)
		}
	}
	for i := 0; i < n; i++ {
		out = append(out, slab[i*width:(i+1)*width:(i+1)*width])
	}
	return out
}

// boxBlock is how many rows of a batch are boxed before moving on: every
// column writes into the same rows of the slab, and a block of rows of a
// wide provenance result still fits the cache where a whole batch's
// megabyte does not.
const boxBlock = 64
