package vexec

import (
	"perm/internal/obs"
	"perm/internal/spill"
	"perm/internal/types"
	"perm/internal/vector"
)

// AggAttach evaluates rule R5's join-back α_{G,agg}(T) ⋈_G Π_{G,P}(T+) in
// one pass over its input, for T+ that is T row for row. Open drains the
// input through the aggregation, whose feed stores each row's T+ columns
// (Prov) with its group id; Next streams them back in input order, each
// with its group's output: the group gathered by id, HAVING and Groups'
// projection applied. Group ids stand in for null-safe comparisons of
// grouping keys, so NULL groups stay associated.
//
// Under a budget a denied store is dropped and the input evaluated again,
// its group ids looked up in the table. A denied group table spills as any
// aggregation's does (float sums merging partial sums, which may move
// their last digits); ids do not survive that, so the rows probe the
// finished groups by key (ProvKeys, AggKeys) through a HashJoin, Grace
// under pressure. The output order is the input order whatever the budget.
type AggAttach struct {
	obs.Card
	Input  Node
	Prov   []*Expr
	Groups Node     // Project(Filter?(Agg)): the aggregate's output rows
	Agg    *HashAgg // at the bottom of Groups
	// Left marks an aggregation without grouping keys (one group, never
	// spilled), left-joined to T+: an empty input yields it, provenance NULL.
	Left bool
	// ProvKeys[i] and AggKeys[i] are where the i-th grouping key sits in
	// T+'s columns and in the aggregate's.
	ProvKeys, AggKeys []int
	Spill, JoinSpill  spill.Resources
	Stored            int // rows of T+ the last Open held in memory

	having  *Expr   // HAVING over the aggregation's rows, or nil
	out     []*Expr // Groups' projection
	feed    attachFeed
	aq      *obs.ActiveQuery
	replay  bool         // the store was denied: evaluate the input again
	store   vector.Table // T+ columns, then the group id
	chunk   int          // emission position: chunk of the store and row in it
	pos     int
	src     Node      // the rows of T+ with their group ids, in input order
	open    bool      // Groups is open
	join    *HashJoin // the keyed attach
	cols    []*vector.Vec
	win     []vector.Vec
	winCols []*vector.Vec
	ids     []int32
	owned   []*vector.Vec
}

// NewAggAttach returns the join-back operator over the shared block's
// rows, storing the T+ columns prov computes.
func NewAggAttach(input Node, prov []*Expr, left bool) *AggAttach {
	a := &AggAttach{Input: input, Prov: prov, Left: left}
	a.feed.a = a
	return a
}

// Feed is the input of the aggregation pipeline: the operator's input.
func (a *AggAttach) Feed() Node { return &a.feed }

// SetGroups attaches the aggregation over Feed — a HashAgg, an optional
// HAVING filter, the output projection — and reports whether it is that.
func (a *AggAttach) SetGroups(groups Node) bool {
	p, ok := groups.(*Project)
	if !ok {
		return false
	}
	n := p.Input
	a.having = nil
	if f, ok := n.(*Filter); ok {
		n, a.having = f.Input, f.Pred
	}
	a.Groups, a.out = groups, p.Exprs
	a.Agg, ok = n.(*HashAgg)
	return ok && a.Agg.Input == &a.feed
}

// Kinds returns the output column kinds: T+'s, then the aggregate's.
func (a *AggAttach) Kinds() []types.Kind {
	return append(exprKinds(a.Prov), exprKinds(a.out)...)
}

// SetActivity attaches the active query polled at every emitted batch.
func (a *AggAttach) SetActivity(aq *obs.ActiveQuery) { a.aq = aq }

// attachFeed passes the input to the aggregation and stores a batch when
// the aggregation asks for the next one: its lanes have group ids by then,
// and it is still valid, the input not having been asked for another.
type attachFeed struct {
	a       *AggAttach
	pending *vector.Batch
}

func (f *attachFeed) Open() error {
	f.pending = nil
	return f.a.Input.Open()
}

func (f *attachFeed) Next() (b *vector.Batch, err error) {
	if f.pending != nil && !f.a.replay {
		err = f.a.keep(f.pending)
	}
	if err == nil {
		b, err = f.a.Input.Next()
	}
	f.pending = b
	return b, err
}

func (f *attachFeed) Close() error { return f.a.Input.Close() }

// keep stores the T+ columns and group ids of a batch's live lanes.
func (a *AggAttach) keep(b *vector.Batch) error {
	lanes := resolveSel(b, b.Sel)
	cols := a.cols[:0]
	for _, e := range a.Prov {
		v, err := e.eval(b, b.Sel)
		if err != nil {
			return err
		}
		cols = append(cols, v)
	}
	gid := vector.NewBatchVec(types.KindInt, b.N)
	for k, lane := range lanes {
		gid.I[lane] = int64(a.Agg.gidBuf[k])
	}
	cols = append(cols, gid)
	if a.Spill.Enabled() && !a.Spill.Res.Grow(batchBytes(cols, lanes)) {
		a.replay, a.store, a.Stored = true, vector.Table{}, 0
		a.Spill.Res.ReleaseAll()
	} else {
		a.store.Append(cols, lanes)
		a.Stored += len(lanes)
	}
	for i, e := range a.Prov {
		e.FreeResult(cols[i])
	}
	gid.Free()
	a.cols = cols[:0]
	return nil
}

func (a *AggAttach) Open() (err error) {
	a.Close() //nolint:errcheck — resets what a previous run left
	a.Stored, a.replay = 0, false
	defer func() {
		if err != nil {
			a.Close() //nolint:errcheck — a failed Open gets no Close
		}
	}()
	if err := a.Groups.Open(); err != nil {
		return err
	}
	a.open = true
	if a.Agg.Spilled() {
		kinds := a.Kinds()
		provKeys, aggKeys, nullSafe := make([]*Expr, len(a.ProvKeys)), make([]*Expr, len(a.ProvKeys)), make([]bool, len(a.ProvKeys))
		for i, c := range a.ProvKeys {
			provKeys[i] = &Expr{kind: kinds[c], aliasing: true, val: &varKernel{pos: c}}
			aggKeys[i] = &Expr{kind: kinds[len(a.Prov)+a.AggKeys[i]], aliasing: true, val: &varKernel{pos: a.AggKeys[i]}}
			nullSafe[i] = true
		}
		left := Node(storedRows{a, 1})
		if a.replay {
			left = NewProject(a.Input, a.Prov)
		}
		a.join = NewHashJoin(left, openedNode{a.Groups}, provKeys, aggKeys, nullSafe,
			InnerJoin, kinds[:len(a.Prov)], kinds[len(a.Prov):])
		a.join.Spill = a.JoinSpill
		a.join.SetActivity(a.aq)
		return a.join.Open()
	}
	if a.Left && a.Stored == 0 && !a.replay {
		// The aggregate's row comes out alone: a stored row of NULLs in group 0.
		cols := make([]*vector.Vec, len(a.Prov)+1)
		for c, k := range append(exprKinds(a.Prov), types.KindInt) {
			cols[c] = vector.NewVec(k, 1)
			if c < len(a.Prov) {
				cols[c].Nulls.Set(0)
			}
		}
		a.store.Append(cols, identitySel[:1])
	}
	src := Node(storedRows{a, 0})
	if a.replay {
		src = NewProject(a.Input, append(a.Prov[:len(a.Prov):len(a.Prov)], &Expr{kind: types.KindInt, val: groupIDs{a.Agg}}))
	}
	if err = src.Open(); err == nil {
		a.src = src
	}
	return err
}

func (a *AggAttach) Next() (*vector.Batch, error) {
	if err := a.aq.CancelErr(); err != nil {
		return nil, err
	}
	if a.join != nil {
		return a.join.Next()
	}
	a.free()
	if a.ids == nil {
		a.ids = make([]int32, vector.BatchSize)
	}
	for {
		b, err := a.src.Next()
		if err != nil || b == nil {
			return nil, err
		}
		// Every lane gathers a group — those outside the selection group 0 —
		// so HAVING and the projection run over the batch as it is.
		last, ids := len(b.Cols)-1, a.ids[:b.N]
		clear(ids)
		for _, i := range resolveSel(b, b.Sel) {
			ids[i] = int32(b.Cols[last].I[i])
		}
		g := &vector.Batch{N: b.N, Sel: b.Sel, Cols: a.Agg.rowsOf(ids, a.owned)}
		a.owned = g.Cols
		if a.having != nil {
			sel, err := a.having.selectTrue(g, g.Sel)
			if err != nil {
				return nil, err
			} else if sel != nil && len(sel) == 0 {
				a.free()
				continue
			} else if sel != nil {
				g.Sel = sel
			}
		}
		a.cols = append(a.cols[:0], b.Cols[:last]...)
		for _, e := range a.out {
			v, err := e.eval(g, g.Sel)
			if err != nil {
				return nil, err
			}
			a.cols = append(a.cols, v)
			if !e.aliasing {
				a.owned = append(a.owned, v)
			}
		}
		return &vector.Batch{N: b.N, Cols: a.cols, Sel: g.Sel}, nil
	}
}

// free returns the vectors behind the last emitted batch to the pool.
func (a *AggAttach) free() {
	for _, v := range a.owned {
		v.Free()
	}
	a.owned = a.owned[:0]
}

func (a *AggAttach) Close() error {
	var err error
	if a.join != nil {
		err = a.join.Close()
		a.join = nil
	}
	if a.src != nil {
		if cerr := a.src.Close(); err == nil {
			err = cerr
		}
		a.src = nil
	}
	if a.open {
		if cerr := a.Groups.Close(); err == nil {
			err = cerr
		}
		a.open = false
	}
	a.free()
	a.store, a.chunk, a.pos = vector.Table{}, 0, 0
	a.Spill.Res.ReleaseAll()
	return err
}

// storedRows streams the store in batch-sized windows, dropping the
// chunks it has passed, less its last drop columns (the group ids, for
// the join).
type storedRows struct {
	a    *AggAttach
	drop int
}

func (s storedRows) Open() error  { return nil }
func (s storedRows) Close() error { return nil }

func (s storedRows) Next() (*vector.Batch, error) {
	a := s.a
	chunks := a.store.Chunks()
	for ; a.chunk < len(chunks); a.chunk, a.pos = a.chunk+1, 0 {
		a.store.Drop(a.chunk)
		if n := chunks[a.chunk][0].Len(); a.pos < n {
			if a.win == nil {
				a.win = make([]vector.Vec, len(chunks[0]))
				a.winCols = make([]*vector.Vec, len(chunks[0]))
			}
			lo := a.pos
			a.pos = min(lo+vector.BatchSize, n)
			for c, v := range chunks[a.chunk] {
				v.WindowInto(lo, a.pos, &a.win[c])
				a.winCols[c] = &a.win[c]
			}
			return &vector.Batch{N: a.pos - lo, Cols: a.winCols[:len(a.winCols)-s.drop]}, nil
		}
	}
	return nil, nil
}

// groupIDs is the value kernel of a replayed row's group id: its grouping
// keys looked up in the aggregation's table.
type groupIDs struct{ h *HashAgg }

func (k groupIDs) eval(b *vector.Batch, sel []int) (*vector.Vec, error) {
	keys := make([]*vector.Vec, len(k.h.Groups))
	for i, g := range k.h.Groups {
		v, err := g.eval(b, sel)
		if err != nil {
			return nil, err
		}
		keys[i] = v
		defer g.FreeResult(v)
	}
	lanes, out := resolveSel(b, sel), vector.NewBatchVec(types.KindInt, b.N)
	for idx, hv := range k.h.hasher.rows(keys, lanes) {
		out.I[lanes[idx]] = int64(k.h.groups.find(keys, lanes[idx], hv))
	}
	return out, nil
}

// openedNode is a node its consumer must neither open nor close.
type openedNode struct{ Node }

func (openedNode) Open() error  { return nil }
func (openedNode) Close() error { return nil }
