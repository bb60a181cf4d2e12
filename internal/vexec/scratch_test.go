package vexec

import (
	"math/bits"
	"testing"

	"perm/internal/algebra"
	"perm/internal/types"
	"perm/internal/vector"
)

// growingInput hands up the first first, first+step, ... rows (at most
// BatchSize) of its columns as one batch each, calling check before every
// batch after the first: the operator above has absorbed the batch before.
type growingInput struct {
	cols        []*vector.Vec
	first, step int
	check       func()
	n           int
	win         []vector.Vec
	out         []*vector.Vec
}

func (g *growingInput) Open() error {
	g.n = 0
	g.win = make([]vector.Vec, len(g.cols))
	g.out = make([]*vector.Vec, len(g.cols))
	for c := range g.win {
		g.out[c] = &g.win[c]
	}
	return nil
}

func (g *growingInput) Next() (*vector.Batch, error) {
	if g.n > 0 {
		g.check()
	}
	n := g.first + g.step*g.n
	if n > vector.BatchSize {
		return nil, nil
	}
	g.n++
	for c, v := range g.cols {
		v.WindowInto(0, n, &g.win[c])
	}
	return &vector.Batch{N: n, Cols: g.out}, nil
}

func (g *growingInput) Close() error { return nil }

// scratchCols are n rows of (k, id): k = id % 7, id the row's position.
func scratchCols(t *testing.T, n int) []*vector.Vec {
	t.Helper()
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i % 7)), types.NewInt(int64(i))}
	}
	cols, ok := vector.FromRows(rows, []types.Kind{types.KindInt, types.KindInt})
	if !ok {
		t.Fatal("rows do not pivot")
	}
	return cols
}

func scratchExpr(t *testing.T, c int) *Expr {
	t.Helper()
	e, err := CompileExpr(&algebra.Var{Col: c, Typ: types.KindInt}, colBinder{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// scratchAttach is rule R5's join-back over input, whose column 1 is the
// row id into snap: count(*) grouped by column 0, attached to every row.
func scratchAttach(t *testing.T, input Node, snap []*vector.Vec) (*AggAttach, *HashAgg) {
	t.Helper()
	a := NewAggAttach(input, []*Expr{scratchExpr(t, 0)}, false)
	a.Snap, a.RowID = []*vector.Vec{snap[0]}, 1
	h := NewHashAgg(a.Feed(), []*Expr{scratchExpr(t, 0)},
		[]AggSpec{{Fn: algebra.AggCount, Star: true, ResultKind: types.KindInt}})
	if !a.SetGroups(NewProject(h, []*Expr{scratchExpr(t, 0), scratchExpr(t, 1)})) {
		t.Fatal("aggregation pipeline not recognized")
	}
	a.ProvKeys, a.AggKeys = []int{0}, []int{0}
	return a, h
}

func drainNode(t *testing.T, n Node) int {
	t.Helper()
	if err := n.Open(); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		b, err := n.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		rows += len(resolveSel(b, b.Sel))
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestScratchSizedToInput: an operator's per-batch scratch is sized to its
// input, not to BatchSize. Over a 40-row table, hashing, grouping,
// scanning with row ids, duplicate elimination and the join-back's id
// buffer hold no more than 40 lanes; over a stream of batches growing
// from first to BatchSize lanes, each buffer is reallocated at most
// ⌈log2(BatchSize/first)⌉ times.
func TestScratchSizedToInput(t *testing.T) {
	t.Run("40 rows", func(t *testing.T) {
		const n = 40
		cols := scratchCols(t, n)
		scan := NewColScan(cols[:1], n)
		scan.RowIDs = true
		a, h := scratchAttach(t, scan, cols)
		if got := drainNode(t, a); got != n {
			t.Fatalf("the join-back emitted %d rows, want %d", got, n)
		}
		d := NewVecDistinct(NewColScan(cols[:1], n))
		if got := drainNode(t, d); got != 7 {
			t.Fatalf("DISTINCT emitted %d rows, want 7", got)
		}
		for _, buf := range []struct {
			name string
			cap  int
		}{
			{"scan row ids", cap(scan.ids)},
			{"aggregation key hashes", cap(h.tab.hasher.h)},
			{"aggregation group ids", cap(h.gidBuf)},
			{"join-back ids", cap(a.ids)},
			{"DISTINCT key hashes", cap(d.tab.hasher.h)},
			{"DISTINCT selection", cap(d.selBuf)},
		} {
			if buf.cap == 0 || buf.cap > n {
				t.Errorf("%s: capacity %d lanes over a %d-row input (BatchSize %d)", buf.name, buf.cap, n, vector.BatchSize)
			}
		}
	})

	t.Run("growing stream", func(t *testing.T) {
		cols := scratchCols(t, vector.BatchSize)
		for _, first := range []int{1, 40, 100, 1000} {
			bound := bits.Len(uint((vector.BatchSize - 1) / first)) // ⌈log2(BatchSize/first)⌉
			type watched struct {
				name   string
				buf    func() int
				last   int
				regrow int
			}
			run := func(build func(in Node) (Node, []*watched)) {
				in := &growingInput{cols: cols, first: first, step: 1}
				op, bufs := build(in)
				in.check = func() {
					for _, w := range bufs {
						if c := w.buf(); c != w.last {
							if w.last > 0 {
								w.regrow++
							}
							w.last = c
						}
					}
				}
				drainNode(t, op)
				for _, w := range bufs {
					if w.regrow > bound {
						t.Errorf("first batch %d lanes: %s reallocated %d times, bound %d", first, w.name, w.regrow, bound)
					}
				}
			}
			run(func(in Node) (Node, []*watched) {
				a, h := scratchAttach(t, in, cols)
				return a, []*watched{
					{name: "join-back ids", buf: func() int { return cap(a.ids) }},
					{name: "aggregation key hashes", buf: func() int { return cap(h.tab.hasher.h) }},
					{name: "aggregation group ids", buf: func() int { return cap(h.gidBuf) }},
				}
			})
			run(func(in Node) (Node, []*watched) {
				d := NewVecDistinct(in)
				return d, []*watched{
					{name: "DISTINCT key hashes", buf: func() int { return cap(d.tab.hasher.h) }},
					{name: "DISTINCT selection", buf: func() int { return cap(d.selBuf) }},
				}
			})
		}
	})
}
