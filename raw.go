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
// of the other, and both are 24 bytes (a string's length rides in the
// integer word): the boxed result, the row heap and the wire decoder's
// slab hold millions of them. An array length goes negative, and the
// build breaks, should either size change. Neither compares with ==:
// types.Identical is the exact comparison.
var (
	_ [unsafe.Sizeof(Value{}) - unsafe.Sizeof(types.Value{})]struct{}
	_ [unsafe.Sizeof(types.Value{}) - unsafe.Sizeof(Value{})]struct{}
	_ [unsafe.Sizeof(types.Value{}) - 24]struct{}
	_ [24 - unsafe.Sizeof(types.Value{})]struct{}
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

// A block is what one step of a plan boxed: n rows of width values in one
// slab. The rows are cut from it only once the result's size is known, so
// a drained result allocates its row headers once, not once per doubling.
type block struct {
	slab     []Value
	n, width int
}

// rows appends the block's rows to out. Every row is capped at its own
// length, so appending to one reallocates it and cannot run into its
// neighbour.
func (b block) rows(out [][]Value) [][]Value {
	out = slices.Grow(out, b.n)
	for i := 0; i < b.n; i++ {
		lo, hi := i*b.width, (i+1)*b.width
		out = append(out, b.slab[lo:hi:hi])
	}
	return out
}

// boxRows copies engine rows, all of the plan's width, into one slab, so
// the result never aliases rows the engine still owns (a scan hands out
// its table's own row slices).
func boxRows(rows []types.Row) block {
	if len(rows) == 0 {
		return block{}
	}
	width := len(rows[0])
	slab := make([]Value, len(rows)*width)
	raw := rawRow(slab)
	for i, row := range rows {
		copy(raw[i*width:(i+1)*width], row)
	}
	return block{slab, len(rows), width}
}

// boxBatch boxes the live rows of a batch column at a time (the kind is
// examined once per column) into one slab. It is the one reader of the
// deferred columns a join-back hands to the root (vexec.DeferToRoot):
// those box straight from their source, the batch's selection composed
// with their row ids.
func boxBatch(b *vector.Batch) block {
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
	return block{slab, n, width}
}

// boxBlock is how many rows of a batch are boxed before moving on: every
// column writes into the same rows of the slab, and a block of rows of a
// wide provenance result still fits the cache where a whole batch's
// megabyte does not.
const boxBlock = 64
