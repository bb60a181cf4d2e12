package vexec

import (
	"math"

	"perm/internal/algebra"
	"perm/internal/obs"
	"perm/internal/spill"
	"perm/internal/types"
	"perm/internal/vector"
)

// AggAttach evaluates rule R5's join-back α_{G,agg}(T) ⋈_G Π_{G,P}(T+) in
// one pass over its input, for T+ that is T row for row. Open drains the
// input through the aggregation, whose feed stores each row's group id
// with what it takes to produce the row's T+ columns (Prov) again; Next
// streams the rows back, each with its group's output: the group gathered
// by id, HAVING and Groups' projection applied. Group ids stand in for
// null-safe comparisons of grouping keys, so NULL groups stay associated.
//
// A stored row is 4 bytes of group id, plus, when T+ reads one columnar
// snapshot (Snap), 4 bytes of the row's id in it: every T+ column the
// snapshot holds unchanged is gathered from there by id on emission, in
// whichever order the rows go out, and only the others (a computed
// grouping key) are copied into the store. Without a snapshot every T+
// column is stored.
//
// The rows come back in input order, or, when the sort above set Order
// and the store and the group table stayed in memory, in the order that
// sort would put them in (see orderByGroup), which it then passes through.
//
// Under a budget a denied store is dropped and the input evaluated again,
// its group ids looked up in the table. A denied group table spills as any
// aggregation's does (float sums merging partial sums, which may move
// their last digits); ids do not survive that, so the rows probe the
// finished groups by key (ProvKeys, AggKeys) through a HashJoin, Grace
// under pressure. Either way the rows come back in input order.
type AggAttach struct {
	obs.Card
	Input Node
	Prov  []*Expr
	// Snap, when set, holds per T+ column the snapshot column it reads
	// unchanged, or nil for a column the store must hold; the input's
	// column RowID then carries each row's id in that snapshot
	// (ColScan.RowIDs).
	Snap   []*vector.Vec
	RowID  int
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
	// Order is the sort above, its keys positions in the aggregate's
	// output; nil asks for input order. The sort sets it before Open.
	Order []algebra.SortKey

	having  *Expr   // HAVING over the aggregation's rows, or nil
	out     []*Expr // Groups' projection
	feed    attachFeed
	aq      *obs.ActiveQuery
	replay  bool         // the store was denied: evaluate the input again
	store   vector.Table // the T+ columns not read from Snap
	stored  []int        // which T+ columns those are
	rows    idColumn     // per stored row: its id in the snapshot (with Snap)
	gids    idColumn     // per stored row: its group id
	nulls   []bool       // per T+ column read from Snap: whether it holds NULLs
	src     Node         // the rows of T+ with their group ids, in input order
	sorted  *groupOrder  // or the stored rows in Order
	open    bool         // Groups is open
	join    *HashJoin    // the keyed attach
	cols    []*vector.Vec
	outCols []*vector.Vec
	ids     []int32
	snapIDs []int32
	owned   []*vector.Vec
}

// groupOrder is the emission in Order: the output row of every group
// HAVING kept, and the ids of the stored rows with the output row each
// attaches, sorted.
type groupOrder struct {
	groups       vector.Table
	rows, attach []int32
	next         int
}

// NewAggAttach returns the join-back operator over the shared block's
// rows, storing the T+ columns prov computes.
func NewAggAttach(input Node, prov []*Expr, left bool) *AggAttach {
	a := &AggAttach{Input: input, Prov: prov, Left: left, ids: make([]int32, vector.BatchSize)}
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

// Sorted reports whether the last Open emits its rows in Order.
func (a *AggAttach) Sorted() bool { return a.sorted != nil }

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

// keep stores the group ids of a batch's live lanes, their snapshot row
// ids with Snap, and the T+ columns not read from it.
func (a *AggAttach) keep(b *vector.Batch) error {
	lanes := resolveSel(b, b.Sel)
	cols := a.cols[:0]
	for _, c := range a.stored {
		v, err := a.Prov[c].eval(b, b.Sel)
		if err != nil {
			return err
		}
		cols = append(cols, v)
	}
	bytes := batchBytes(cols, lanes) + 4*int64(len(lanes))
	if a.Snap != nil {
		bytes += 4 * int64(len(lanes))
	}
	if a.Spill.Enabled() && !a.Spill.Res.Grow(bytes) {
		a.replay, a.store, a.rows, a.gids, a.Stored = true, vector.Table{}, idColumn{}, idColumn{}, 0
		a.Spill.Res.ReleaseAll()
	} else {
		if len(cols) > 0 {
			a.store.Append(cols, lanes)
		}
		a.gids.add(a.Agg.gidBuf[:len(lanes)])
		if a.Snap != nil {
			ids, rows := b.Cols[a.RowID].I, a.ids[:len(lanes)]
			for k, lane := range lanes {
				rows[k] = int32(ids[lane])
			}
			a.rows.add(rows)
		}
		a.Stored += len(lanes)
	}
	for i, c := range a.stored {
		a.Prov[c].FreeResult(cols[i])
	}
	a.cols = cols[:0]
	return nil
}

// snap returns the snapshot column T+'s column c reads, or nil.
func (a *AggAttach) snap(c int) *vector.Vec {
	if a.Snap == nil {
		return nil
	}
	return a.Snap[c]
}

func (a *AggAttach) Open() (err error) {
	a.Close() //nolint:errcheck — resets what a previous run left
	a.Stored, a.replay, a.stored = 0, false, a.stored[:0]
	for c := range a.Prov {
		if a.snap(c) == nil {
			a.stored = append(a.stored, c)
		}
	}
	defer func() {
		if err != nil {
			a.Close() //nolint:errcheck — a failed Open gets no Close
		}
	}()
	if err := a.Groups.Open(); err != nil {
		return err
	}
	a.open = true
	if a.Snap != nil && !a.replay {
		a.nulls = make([]bool, len(a.Prov))
		for c, v := range a.Snap {
			a.nulls[c] = v != nil && v.Nulls.AnySet(v.Len())
		}
	}
	if a.Agg.Spilled() {
		kinds := a.Kinds()
		provKeys, aggKeys, nullSafe := make([]*Expr, len(a.ProvKeys)), make([]*Expr, len(a.ProvKeys)), make([]bool, len(a.ProvKeys))
		for i, c := range a.ProvKeys {
			provKeys[i] = &Expr{kind: kinds[c], aliasing: true, val: &varKernel{pos: c}}
			aggKeys[i] = &Expr{kind: kinds[len(a.Prov)+a.AggKeys[i]], aliasing: true, val: &varKernel{pos: a.AggKeys[i]}}
			nullSafe[i] = true
		}
		left := Node(&storedRows{a: a})
		if a.replay {
			left = NewProject(a.Input, a.Prov)
		}
		a.join = NewHashJoin(left, openedNode{a.Groups}, provKeys, aggKeys, nullSafe,
			algebra.JoinInner, kinds[:len(a.Prov)], kinds[len(a.Prov):])
		a.join.Spill = a.JoinSpill
		a.join.SetActivity(a.aq)
		return a.join.Open()
	}
	if a.Left && a.Stored == 0 && !a.replay {
		// The aggregate's row comes out alone: a stored row of NULLs in group 0.
		cols := make([]*vector.Vec, len(a.stored))
		for i, c := range a.stored {
			cols[i] = vector.NewVec(a.Prov[c].Kind(), 1)
			cols[i].Nulls.Set(0)
		}
		if len(cols) > 0 {
			a.store.Append(cols, identitySel[:1])
		}
		a.gids.add([]int32{0})
		if a.Snap != nil {
			a.rows.add([]int32{-1})
		}
	}
	if a.Order != nil && !a.replay {
		if a.sorted, err = a.orderByGroup(); a.sorted != nil || err != nil {
			return err
		}
	}
	src := Node(&storedRows{a: a, gids: true})
	if a.replay {
		src = NewProject(a.Input, append(a.Prov[:len(a.Prov):len(a.Prov)], &Expr{kind: types.KindInt, val: groupIDs{a.Agg}}))
	}
	if err = src.Open(); err == nil {
		a.src = src
	}
	return err
}

// orderByGroup sorts the stored rows on Order without comparing them:
// HAVING and the projection run once per group, the groups HAVING keeps
// are sorted stably on Order, tied groups sharing one rank, and the rows
// are counting-sorted by their group's rank. Rows of tied groups thus keep
// their input order among each other, which is exactly how a stable sort
// of the input-order rows on Order emits them. It returns nil (input
// order) when the budget denies the room this takes, or when a float key
// is NaN, which ties with every value and so has no rank.
func (a *AggAttach) orderByGroup() (*groupOrder, error) {
	n := a.Agg.numGroups
	var held int64
	grow := func(bytes int64) bool {
		if a.Spill.Res.Grow(bytes) {
			held += bytes
			return true
		}
		a.Spill.Res.Release(held)
		return false
	}
	if !grow(8*int64(a.gids.n) + 8*int64(n)) {
		return nil, nil
	}
	g := &groupOrder{}
	at := make([]int32, n) // by group id: its output row, or -1
	for lo := 0; lo < n; lo += vector.BatchSize {
		ids := a.ids[:min(n-lo, vector.BatchSize)]
		for i := range ids {
			ids[i], at[lo+i] = int32(lo+i), -1
		}
		out, lanes, err := a.groupRows(ids, nil)
		if lanes == nil {
			lanes = identitySel[:len(ids)]
		}
		if err != nil || !grow(batchBytes(out, lanes)) {
			a.free()
			return nil, err
		}
		for k, lane := range lanes {
			at[lo+lane] = int32(g.groups.Len() + k)
		}
		g.groups.Append(out, lanes)
		a.free()
	}
	if g.groups.Len() == 0 {
		return g, nil
	}

	keys, kinds := a.Order, g.groups.Kinds()
	classes := make([]cmpClass, len(keys))
	for i, k := range keys {
		classes[i] = classify(kinds[k.Pos], kinds[k.Pos])
		if kinds[k.Pos] == types.KindFloat && hasNaN(&g.groups, k.Pos) {
			a.Spill.Res.Release(held)
			return nil, nil
		}
	}
	order := sortedOrder(&g.groups, keys, classes)
	rank := make([]int32, len(order)) // by output row
	for i := 1; i < len(order); i++ {
		rank[order[i]] = rank[order[i-1]]
		if compareTableRows(&g.groups, int(order[i-1]), int(order[i]), keys, classes) != 0 {
			rank[order[i]]++
		}
	}

	// Counting sort: start[r] is where the next row of rank r goes.
	start := make([]int32, len(order)+1)
	for _, block := range a.gids.blocks {
		for _, gid := range block {
			if o := at[gid]; o >= 0 {
				start[rank[o]+1]++
			}
		}
	}
	for r := 1; r < len(start); r++ {
		start[r] += start[r-1]
	}
	total := start[len(start)-1]
	g.rows, g.attach = make([]int32, total), make([]int32, total)
	id := int32(0)
	for _, block := range a.gids.blocks {
		for _, gid := range block {
			if o := at[gid]; o >= 0 {
				p := &start[rank[o]]
				g.rows[*p], g.attach[*p] = id, o
				*p++
			}
			id++
		}
	}
	return g, nil
}

// hasNaN reports whether float column c of a table holds a NaN.
func hasNaN(t *vector.Table, c int) bool {
	for _, chunk := range t.Chunks() {
		for i, f := range chunk[c].F {
			if math.IsNaN(f) && !chunk[c].Nulls.Get(i) {
				return true
			}
		}
	}
	return false
}

// groupRows runs HAVING and the output projection over the groups with
// the given ids, one lane each, within sel. It returns the output columns
// and the lanes HAVING kept (nil: all of sel, empty: none), valid until
// free.
func (a *AggAttach) groupRows(ids []int32, sel []int) ([]*vector.Vec, []int, error) {
	g := &vector.Batch{N: len(ids), Sel: sel, Cols: a.Agg.rowsOf(ids, a.owned)}
	a.owned = g.Cols
	if a.having != nil {
		kept, err := a.having.selectTrue(g, g.Sel)
		if err != nil {
			return nil, nil, err
		} else if kept != nil && len(kept) == 0 {
			return nil, kept, nil
		} else if kept != nil {
			g.Sel = kept
		}
	}
	out := a.outCols[:0]
	for _, e := range a.out {
		v, err := e.eval(g, g.Sel)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, v)
		if !e.aliasing {
			a.owned = append(a.owned, v)
		}
	}
	a.outCols = out
	return out, g.Sel, nil
}

func (a *AggAttach) Next() (*vector.Batch, error) {
	if err := a.aq.CancelErr(); err != nil {
		return nil, err
	}
	if a.join != nil {
		return a.join.Next()
	}
	a.free()
	if g := a.sorted; g != nil {
		if g.next == len(g.rows) {
			return nil, nil
		}
		hi := min(g.next+vector.BatchSize, len(g.rows))
		rows, attach := g.rows[g.next:hi], g.attach[g.next:hi]
		g.next = hi
		a.owned = a.gatherRows(rows, a.owned)
		a.owned = gatherBatch(&g.groups, attach, a.owned)
		return &vector.Batch{N: len(rows), Cols: a.owned}, nil
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
		out, sel, err := a.groupRows(ids, b.Sel)
		if err != nil {
			return nil, err
		} else if sel != nil && len(sel) == 0 {
			a.free()
			continue
		}
		a.cols = append(append(a.cols[:0], b.Cols[:last]...), out...)
		return &vector.Batch{N: b.N, Cols: a.cols, Sel: sel}, nil
	}
}

// gatherRows appends the T+ columns of the stored rows with the given ids
// to cols: those read from Snap gathered there by the rows' snapshot ids,
// the others from the store.
func (a *AggAttach) gatherRows(ids []int32, cols []*vector.Vec) []*vector.Vec {
	if a.Snap != nil {
		a.snapIDs = a.snapIDs[:0]
		for _, id := range ids {
			a.snapIDs = append(a.snapIDs, a.rows.at(id))
		}
	}
	st := 0
	for c, e := range a.Prov {
		v := vector.NewBatchVec(e.Kind(), len(ids))
		if snap := a.snap(c); snap != nil {
			v.GatherRows(snap, a.snapIDs, a.nulls[c])
		} else {
			a.store.GatherCol(st, ids, v)
			st++
		}
		cols = append(cols, v)
	}
	return cols
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
	a.store, a.rows, a.gids, a.sorted = vector.Table{}, idColumn{}, idColumn{}, nil
	a.Spill.Res.ReleaseAll()
	return err
}

// storedRows streams the stored rows in input order, in batch-sized
// windows of their T+ columns — the stored ones windowed in the store,
// whose chunks it drops once passed, the others gathered from Snap — and,
// with gids, their group ids as a last column.
type storedRows struct {
	a     *AggAttach
	gids  bool
	at    int // the next stored row
	win   []vector.Vec
	cols  []*vector.Vec
	owned []*vector.Vec
}

func (s *storedRows) Open() error { return nil }

func (s *storedRows) Close() error {
	s.free()
	return nil
}

func (s *storedRows) free() {
	for _, v := range s.owned {
		v.Free()
	}
	s.owned = s.owned[:0]
}

func (s *storedRows) Next() (*vector.Batch, error) {
	a := s.a
	s.free()
	lo := s.at
	if lo >= a.gids.n {
		return nil, nil
	}
	hi := min(lo+vector.BatchSize, a.gids.n)
	s.at = hi
	var chunk []*vector.Vec
	var lane int
	if len(a.stored) > 0 {
		a.store.Drop(lo / vector.TableChunk)
		chunk, lane = a.store.At(lo)
		if s.win == nil {
			s.win = make([]vector.Vec, len(a.stored))
		}
	}
	cols, st := s.cols[:0], 0
	for c, e := range a.Prov {
		if snap := a.snap(c); snap != nil {
			v := vector.NewBatchVec(e.Kind(), hi-lo)
			v.GatherRows(snap, a.rows.window(lo, hi), a.nulls[c])
			s.owned = append(s.owned, v)
			cols = append(cols, v)
			continue
		}
		chunk[st].WindowInto(lane, lane+hi-lo, &s.win[st])
		cols = append(cols, &s.win[st])
		st++
	}
	if s.gids {
		v := vector.NewBatchVec(types.KindInt, hi-lo)
		for i, gid := range a.gids.window(lo, hi) {
			v.I[i] = int64(gid)
		}
		s.owned = append(s.owned, v)
		cols = append(cols, v)
	}
	s.cols = cols
	return &vector.Batch{N: hi - lo, Cols: cols}, nil
}

// idColumn is an append-only column of ids in blocks of
// vector.TableChunk, a store's row ids or group ids: as in vector.Table,
// a filled block is never copied again and only the first one grows,
// doubling from the size of the first ids added, so a column allocates
// about what it holds however long it gets.
type idColumn struct {
	blocks [][]int32
	n      int
}

func (c *idColumn) add(ids []int32) {
	for len(ids) > 0 {
		last := len(c.blocks) - 1
		switch {
		case last < 0:
			c.blocks = append(c.blocks, make([]int32, 0, min(len(ids), vector.TableChunk)))
		case len(c.blocks[last]) < cap(c.blocks[last]):
		case last == 0 && cap(c.blocks[0]) < vector.TableChunk:
			grown := make([]int32, len(c.blocks[0]), min(2*cap(c.blocks[0]), vector.TableChunk))
			copy(grown, c.blocks[0])
			c.blocks[0] = grown
		default:
			c.blocks = append(c.blocks, make([]int32, 0, vector.TableChunk))
		}
		block := &c.blocks[len(c.blocks)-1]
		take := min(len(ids), cap(*block)-len(*block))
		*block = append(*block, ids[:take]...)
		ids = ids[take:]
		c.n += take
	}
}

// at returns the id at position i.
func (c *idColumn) at(i int32) int32 {
	return c.blocks[i/vector.TableChunk][i%vector.TableChunk]
}

// window returns the ids at positions [lo, hi), which one block holds:
// lo is a multiple of vector.BatchSize and hi at most one batch further.
func (c *idColumn) window(lo, hi int) []int32 {
	off := lo % vector.TableChunk
	return c.blocks[lo/vector.TableChunk][off : off+hi-lo]
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
	for idx, hv := range k.h.tab.hasher.rows(keys, lanes) {
		out.I[lanes[idx]] = int64(k.h.tab.set.find(keys, lanes[idx], hv))
	}
	return out, nil
}

// openedNode is a node its consumer must neither open nor close.
type openedNode struct{ Node }

func (openedNode) Open() error  { return nil }
func (openedNode) Close() error { return nil }
