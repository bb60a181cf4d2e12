// Table statistics: per-table row counts and per-column NDV/min-max/null
// sketches the planner's cost model feeds on. Statistics are recomputed
// lazily — the first Stats call after a mutation rebuilds them from a
// heap snapshot and caches the result behind the heap's version counter,
// so DML costs nothing until the next planning decision needs fresh
// numbers, and repeated planning over an unchanged table costs two atomic
// loads.
package catalog

import (
	"perm/internal/types"
)

// statsSampleCap bounds the rows hashed for the NDV estimate. Min/max and
// null fractions always scan the full column (one cheap pass); distinct
// counting is the expensive part, so it samples a prefix and extrapolates.
const statsSampleCap = 8192

// ColStats summarizes one column for selectivity and join-cardinality
// estimation.
type ColStats struct {
	Kind types.Kind
	// NDV is the estimated number of distinct non-NULL values.
	NDV float64
	// NullFrac is the fraction of NULL values.
	NullFrac float64
	// HasRange reports whether MinF/MaxF (numeric and date columns, dates
	// as epoch days) or MinS/MaxS (string columns) are populated.
	HasRange   bool
	MinF, MaxF float64
	MinS, MaxS string
}

// TableStats is the statistics snapshot of one base table.
type TableStats struct {
	// Rows is the table cardinality at the snapshot version.
	Rows float64
	// Cols holds per-column sketches, in schema order.
	Cols []ColStats
}

// tableStatsCache pairs a stats snapshot with the heap version it was
// computed from.
type tableStatsCache struct {
	version uint64
	stats   *TableStats
}

// Stats returns the table's statistics, recomputing them at most once per
// heap version. The returned snapshot is shared and read-only.
func (t *Table) Stats() *TableStats {
	v := t.Heap.Version()
	if c := t.stats.Load(); c != nil && c.version == v {
		return c.stats
	}
	// The version is read before the snapshot, so the rows are at least as
	// new as the claimed version; a concurrent mutation makes the cache
	// entry conservatively stale and the next call recomputes.
	rows := t.Heap.Snapshot()
	s := computeStats(rows, t.Cols)
	t.stats.Store(&tableStatsCache{version: v, stats: s})
	return s
}

// valKey is a comparable boxing of a value for distinct counting.
type valKey struct {
	k types.Kind
	i int64
	f float64
	b bool
	s string
}

func keyOf(v types.Value) valKey {
	key := valKey{k: v.K}
	switch v.K {
	case types.KindBool:
		key.b = v.B
	case types.KindInt, types.KindDate:
		key.i = v.I
	case types.KindFloat:
		key.f = v.F()
	case types.KindString:
		key.s = v.Str()
	}
	// Cross-kind numeric equality (1 = 1.0) folds into one key.
	if v.K == types.KindInt {
		key.k = types.KindFloat
		key.f = float64(v.I)
	}
	return key
}

func computeStats(rows []types.Row, cols []Column) *TableStats {
	n := len(rows)
	s := &TableStats{Rows: float64(n), Cols: make([]ColStats, len(cols))}
	// Distinct counting samples a stride over the whole table rather than
	// a prefix: insertion-ordered columns (dates appended chronologically,
	// clustered keys) would make a prefix sample wildly unrepresentative.
	stride := 1
	sample := n
	if n > statsSampleCap {
		stride = (n + statsSampleCap - 1) / statsSampleCap
		sample = (n + stride - 1) / stride
	}
	for c := range cols {
		cs := &s.Cols[c]
		cs.Kind = cols[c].Type
		nulls := 0
		distinct := make(map[valKey]struct{}, sample)
		first := true
		var minF, maxF float64
		var minS, maxS string
		ranged := false
		for i, r := range rows {
			if c >= len(r) {
				continue
			}
			v := r[c]
			if v.Null {
				nulls++
				continue
			}
			if i%stride == 0 {
				distinct[keyOf(v)] = struct{}{}
			}
			switch v.K {
			case types.KindInt, types.KindFloat, types.KindDate:
				f := v.AsFloat()
				if first || f < minF {
					minF = f
				}
				if first || f > maxF {
					maxF = f
				}
				first, ranged = false, true
			case types.KindString:
				s := v.Str()
				if first || s < minS {
					minS = s
				}
				if first || s > maxS {
					maxS = s
				}
				first, ranged = false, true
			}
		}
		if n > 0 {
			cs.NullFrac = float64(nulls) / float64(n)
		}
		d := float64(len(distinct))
		nonNull := float64(n - nulls)
		if sample < n && d > float64(sample)/2 {
			// The sample kept finding new values: extrapolate linearly.
			d = d * float64(n) / float64(sample)
		}
		if d > nonNull {
			d = nonNull
		}
		cs.NDV = d
		if ranged {
			cs.HasRange = true
			cs.MinF, cs.MaxF = minF, maxF
			cs.MinS, cs.MaxS = minS, maxS
		}
	}
	return s
}
