package perm

import "perm/internal/types"

// Raw-value bridging for the permd wire protocol. These helpers expose
// the engine's internal typed values so the server and client can ship
// results without loss; they are module-internal plumbing (the types
// live under internal/) and not part of the stable embedded API.

// Both directions copy the values into one slab sliced into rows: two
// allocations per result, however many rows it has.

func cells[T any](rows [][]T) int {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	return n
}

// RawRows returns the result tuples as engine values.
func (r *Result) RawRows() [][]types.Value {
	slab := make([]types.Value, cells(r.Rows))
	out := make([][]types.Value, len(r.Rows))
	for i, row := range r.Rows {
		out[i], slab = slab[:len(row):len(row)], slab[len(row):]
		for j, v := range row {
			out[i][j] = v.v
		}
	}
	return out
}

// NewRawResult builds a Result from engine values (the client side of
// the wire protocol).
func NewRawResult(cols []string, prov []bool, rows [][]types.Value) *Result {
	if prov == nil {
		prov = make([]bool, len(cols))
	}
	slab := make([]Value, cells(rows))
	res := &Result{Columns: cols, ProvColumns: prov, Rows: make([][]Value, len(rows))}
	for i, row := range rows {
		res.Rows[i], slab = slab[:len(row):len(row)], slab[len(row):]
		for j, v := range row {
			res.Rows[i][j] = Value{v: v}
		}
	}
	return res
}
