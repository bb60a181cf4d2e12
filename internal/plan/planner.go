// Package plan lowers analyzed (and possibly provenance-rewritten) query
// trees to physical executor trees. It performs the optimizations the
// paper relies on PostgreSQL for (Fig. 5 "Planer"): WHERE-conjunct
// extraction and pushdown, greedy equi-join ordering over implicit cross
// products, hash-join selection (including null-safe keys for the
// rewriter's join-back conditions), and aggregate/set-operation/sort
// planning.
package plan

import (
	"fmt"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/eval"
	"perm/internal/exec"
	"perm/internal/mem"
	"perm/internal/obs"
	"perm/internal/spill"
	"perm/internal/storage"
	"perm/internal/types"
	"perm/internal/vector"
	"perm/internal/vexec"
)

// Planner plans query trees against a catalog.
type Planner struct {
	cat         *catalog.Catalog
	vectorized  bool
	budget      *mem.Budget
	spillDir    string
	parallelism int
	activity    *obs.ActiveQuery

	// joinBacks records, per rule-R5 join-back planned, "" when one
	// AggAttach evaluates it or the reason it kept the two-sided plan.
	joinBacks []string

	// colSnaps holds the columnar snapshot each table was first scanned
	// from in the statement being planned. Every further scan of the table
	// — a self-join, the two sides of a provenance join-back, the replicas
	// of a parallel segment — reads the same one, so a statement that
	// counts a table and lists its rows cannot see an INSERT land in
	// between.
	colSnaps map[*storage.Heap]colSnapshot
	// rowSnaps is the same for the row engine's scans.
	rowSnaps map[*storage.Heap][]types.Row
}

type colSnapshot struct {
	cols []*vector.Vec
	n    int
	ok   bool
}

// snapshotColumns is Heap.SnapshotColumns, taken once per table and
// statement.
func (p *Planner) snapshotColumns(h *storage.Heap, kinds []types.Kind) ([]*vector.Vec, int, bool) {
	if s, seen := p.colSnaps[h]; seen {
		return s.cols, s.n, s.ok
	}
	cols, n, ok := h.SnapshotColumns(kinds)
	if p.colSnaps == nil {
		p.colSnaps = make(map[*storage.Heap]colSnapshot)
	}
	p.colSnaps[h] = colSnapshot{cols, n, ok}
	return cols, n, ok
}

// snapshotRows is Heap.Snapshot, taken once per table and statement.
func (p *Planner) snapshotRows(h *storage.Heap) []types.Row {
	if rows, seen := p.rowSnaps[h]; seen {
		return rows
	}
	rows := h.Snapshot()
	if p.rowSnaps == nil {
		p.rowSnaps = make(map[*storage.Heap][]types.Row)
	}
	p.rowSnaps[h] = rows
	return rows
}

// New returns a planner with the vectorized lowering path enabled.
func New(cat *catalog.Catalog) *Planner { return &Planner{cat: cat, vectorized: true} }

// SetVectorized toggles the vectorized lowering path (on by default).
// When off, every plan subtree lowers to row-at-a-time operators.
func (p *Planner) SetVectorized(on bool) *Planner {
	p.vectorized = on
	return p
}

// SetResources attaches the session memory budget and spill directory;
// every materializing operator the planner builds takes a reservation
// against the budget and spills to dir under pressure. A nil budget
// disables accounting (operators stay fully in memory).
func (p *Planner) SetResources(budget *mem.Budget, dir string) *Planner {
	p.budget = budget
	p.spillDir = dir
	return p
}

// SetActivity attaches the running query's active-query record: every
// scan the planner builds polls it for cooperative cancellation, and
// parallel segments report morsel progress to it. nil (the default)
// plans an uncancellable tree — EXPLAIN and tests use that.
func (p *Planner) SetActivity(aq *obs.ActiveQuery) *Planner {
	p.activity = aq
	return p
}

// spillRes opens one operator's spill resources against the session
// budget.
func (p *Planner) spillRes(op string) spill.Resources {
	if p.budget == nil {
		return spill.Resources{}
	}
	return spill.Resources{Res: p.budget.Reserve(op), Dir: p.spillDir}
}

// Plan lowers a query tree to an executable node.
func (p *Planner) Plan(q *algebra.Query) (exec.Node, error) {
	p.colSnaps, p.rowSnaps, p.joinBacks = nil, nil, nil
	pl, err := p.planQuery(q)
	if err != nil {
		return nil, err
	}
	for _, reason := range p.joinBacks {
		obs.CountJoinBack(reason)
	}
	if p.parallelism > 1 && pl.vnode != nil {
		p.parallelize(q, pl)
	}
	return pl.rowNode(), nil
}

// planned is a plan fragment: its root operator plus the layout of its
// output row and a cardinality estimate for join ordering.
//
// The root is vnode when the batch engine runs the whole fragment and
// node, a row-engine tree, otherwise; exactly one of them is set. A
// batch fragment meets the row engine through rowNode, where a row
// operator reads it and at Plan's root. Operators that stay on the row
// engine keep everything above them there.
type planned struct {
	node  exec.Node
	vnode vexec.Node
	// layout maps range-table index → offset of that entry's columns in
	// the output row.
	layout map[int]int
	// kinds of the output row columns, in order.
	kinds []types.Kind
	// cols traces each output column to its base-table origin, parallel
	// to kinds (nil = nothing known). See colInfo.
	cols []colInfo
	// rts is the set of range-table entries contained in this fragment.
	rts algebra.Bits
	est float64
}

// colInfo is the per-column provenance of a fragment's output used by the
// cost model and by runtime-filter pushdown. stats points at the base
// column's statistics sketch (selectivity and join-cardinality
// estimates); scan/scanCol identify the columnar scan the value passes
// through unchanged, which is where a vectorized hash join may attach a
// runtime filter on this column. Both are best-effort: zero values just
// disable the respective optimization. scan is only propagated along
// paths where pruning source rows whose value cannot satisfy a downstream
// inner-join key is invisible (it is cleared across aggregation, set
// operations, limits and the null-producing side of outer joins).
type colInfo struct {
	scan    *vexec.ColScan
	scanCol int
	stats   *catalog.ColStats
}

// fragCols returns the fragment's column infos, materializing an empty
// slice of the right width when nothing is known.
func fragCols(pl *planned) []colInfo {
	if pl.cols != nil {
		return pl.cols
	}
	return make([]colInfo, len(pl.kinds))
}

// clearScans returns a copy of the column infos with the runtime-filter
// attachment points removed (statistics are kept).
func clearScans(cols []colInfo) []colInfo {
	out := append([]colInfo(nil), cols...)
	for i := range out {
		out[i].scan = nil
	}
	return out
}

func (p *Planner) planQuery(q *algebra.Query) (*planned, error) {
	if q.IsSetOp() {
		return p.planSetOp(q)
	}
	return p.planPlain(q)
}

// ---------------------------------------------------------------------------
// Vectorized lowering helpers

// setBatch makes a batch operator the fragment's root.
func (pl *planned) setBatch(vn vexec.Node) { pl.node, pl.vnode = nil, vn }

// setRow makes a row operator the fragment's root.
func (pl *planned) setRow(n exec.Node) { pl.node, pl.vnode = n, nil }

// rowNode returns the fragment's root as a row operator: a batch
// fragment behind a batch→row adapter, built here for the one consumer
// that asks.
func (pl *planned) rowNode() exec.Node {
	if pl.vnode != nil {
		return vexec.NewRowSource(pl.vnode)
	}
	return pl.node
}

// setEstNode records a cardinality estimate on a physical operator (both
// engines embed obs.Card). Estimates below one row are annotated as one:
// the planner's fractional bookkeeping floors (0.1) are meaningful for
// cost comparison but "less than one row" is what they mean as output.
func setEstNode(n any, est float64) {
	if n == nil {
		return
	}
	if est < 1 {
		est = 1
	}
	if c, ok := n.(interface{ SetEstRows(float64) }); ok {
		c.SetEstRows(est)
	}
}

// setFragEst records est as the fragment's estimated output cardinality,
// both in the planner's bookkeeping (join ordering, build-side choice)
// and on the fragment's physical root, for EXPLAIN ANALYZE's cardinality
// feedback. A batch→row adapter reports its input's estimate.
func setFragEst(pl *planned, est float64) {
	pl.est = est
	setEstNode(pl.vnode, est)
	setEstNode(pl.node, est)
}

// attachFilter adds a filter for e on top of the fragment, staying
// vectorized when the predicate compiles for the batch engine and
// falling back to a row filter otherwise.
// The fragment's cardinality estimate is scaled by the predicate's
// estimated selectivity.
func (p *Planner) attachFilter(pl *planned, e algebra.Expr) error {
	if e == nil {
		return nil
	}
	binder := &rowBinder{p: p, layout: pl.layout}
	est := pl.est * p.selectivity(e, pl)
	if est < 0.1 {
		est = 0.1
	}
	if pl.vnode != nil {
		if ve, err := vexec.CompileExpr(e, binder); err == nil && ve.Kind() == types.KindBool {
			pl.setBatch(vexec.NewFilter(pl.vnode, ve))
			setFragEst(pl, est)
			return nil
		}
	}
	pred, err := eval.Compile(e, binder)
	if err != nil {
		return err
	}
	pl.setRow(exec.NewFilter(pl.rowNode(), pred))
	setFragEst(pl, est)
	return nil
}

// ---------------------------------------------------------------------------
// Set operations

func (p *Planner) planSetOp(q *algebra.Query) (*planned, error) {
	branches := make(map[int]*planned)
	for rt, rte := range q.RangeTable {
		sub, err := p.planQuery(rte.Subquery)
		if err != nil {
			return nil, err
		}
		branches[rt] = sub
	}
	pl, err := p.foldSetOp(q.SetOp, branches)
	if err != nil {
		return nil, err
	}
	est := pl.est
	out := &planned{node: pl.node, vnode: pl.vnode, kinds: q.Schema().Kinds(), est: est}
	p.applySortLimit(q, out, len(q.TargetList))
	if c, ok := q.Limit.(*algebra.Const); ok && !c.Val.Null && float64(c.Val.I) < est {
		est = float64(c.Val.I)
	}
	out.est = est
	return out, nil
}

func (p *Planner) foldSetOp(item algebra.SetOpItem, branches map[int]*planned) (*planned, error) {
	switch n := item.(type) {
	case *algebra.SetOpLeaf:
		return branches[n.RT], nil
	case *algebra.SetOpNode:
		left, err := p.foldSetOp(n.Left, branches)
		if err != nil {
			return nil, err
		}
		right, err := p.foldSetOp(n.Right, branches)
		if err != nil {
			return nil, err
		}
		out := &planned{kinds: left.kinds, est: left.est + right.est}
		// The vectorized set operation requires identical column kinds on
		// both branches (its stored columns are typed after the left
		// branch); mismatched branches stay on the row engine, whose boxed
		// rows compare across kinds dynamically.
		if p.vectorized && left.vnode != nil && right.vnode != nil &&
			kindsMatch(left.kinds, right.kinds) {
			vso := vexec.NewVecSetOp(left.vnode, right.vnode, n.Op, n.All)
			vso.Spill = p.spillRes("setop")
			out.setBatch(vso)
		} else {
			out.setRow(exec.NewSetOp(left.rowNode(), right.rowNode(), n.Op, n.All))
		}
		setFragEst(out, out.est)
		return out, nil
	default:
		return nil, fmt.Errorf("plan: unknown set operation item %T", item)
	}
}

func kindsMatch(a, b []types.Kind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Plain queries

func (p *Planner) planPlain(q *algebra.Query) (*planned, error) {
	// 1. FROM clause: plan items and join them, distributing WHERE
	// conjuncts; a provenance join-back's pair is one operator.
	input, err := p.planJoinBack(q)
	if input == nil && err == nil {
		input, err = p.planFrom(q)
	}
	if err != nil {
		return nil, err
	}

	// 2. Aggregation or plain projection. Both stay vectorized when the
	// input fragment is and every expression compiles for the batch
	// engine; otherwise the fragment drops to the row engine here.
	var out *planned
	var outCols []colInfo
	var outWidth = len(q.TargetList)
	est := input.est
	if q.HasAggs {
		est = p.aggEstimate(q, input)
		out, err = p.planAggregation(q, input, est)
		if err != nil {
			return nil, err
		}
	} else {
		exprs := make([]algebra.Expr, len(q.TargetList))
		for i, te := range q.TargetList {
			exprs[i] = te.Expr
		}
		// Hidden sort columns for ORDER BY expressions that are not plain
		// output references.
		extraSort := p.extraSortExprs(q)
		exprs = append(exprs, extraSort...)
		binder := &rowBinder{p: p, layout: input.layout}
		out = &planned{}
		if input.vnode != nil {
			if ves, err := vexec.CompileExprs(exprs, binder); err == nil {
				out.setBatch(vexec.NewProject(input.vnode, ves))
			}
		}
		if out.vnode == nil {
			fns, err := eval.CompileAll(exprs, binder)
			if err != nil {
				return nil, err
			}
			out.setRow(exec.NewProject(input.rowNode(), fns))
		}
		setFragEst(out, est)
		// Column provenance passes through the projection wherever an
		// output expression is a bare column reference.
		outCols = make([]colInfo, outWidth)
		inCols := fragCols(input)
		for i := 0; i < outWidth; i++ {
			if v, ok := exprs[i].(*algebra.Var); ok && v.RT >= 0 {
				if off, ok := input.layout[v.RT]; ok && off+v.Col < len(inCols) {
					outCols[i] = inCols[off+v.Col]
				}
			}
		}
	}

	// 3. DISTINCT. No distinct-count statistics exist over full output
	// rows, so the duplicate elimination inherits its input estimate (an
	// upper bound; the q-error feedback shows how loose it was).
	if q.Distinct {
		if out.vnode != nil {
			vd := vexec.NewVecDistinct(out.vnode)
			vd.Spill = p.spillRes("distinct")
			out.setBatch(vd)
		} else {
			out.setRow(exec.NewDistinct(out.node))
		}
		setFragEst(out, est)
	}

	// 4. ORDER BY / LIMIT / OFFSET (strips hidden sort columns).
	p.applySortLimit(q, out, outWidth)
	if q.Limit != nil || q.Offset != nil {
		// Which rows survive a limit depends on rows pruning would
		// remove, so runtime filters must not reach through it.
		outCols = clearScans(outCols)
		if c, ok := q.Limit.(*algebra.Const); ok && !c.Val.Null && float64(c.Val.I) < est {
			est = float64(c.Val.I)
		}
	}

	out.kinds, out.cols, out.est = q.Schema().Kinds(), outCols, est
	return out, nil
}

// aggEstimate estimates the group count of an aggregation: the product
// of the grouping columns' NDVs when statistics cover them, capped by
// the input cardinality.
func (p *Planner) aggEstimate(q *algebra.Query, input *planned) float64 {
	if len(q.GroupBy) == 0 {
		return 1
	}
	prod := 1.0
	for _, g := range q.GroupBy {
		st := p.colStatsFor(input, g)
		if st == nil {
			return input.est/2 + 1
		}
		d := st.NDV
		if st.NullFrac > 0 {
			d++ // NULL forms its own group
		}
		if d < 1 {
			d = 1
		}
		prod *= d
	}
	if prod > input.est {
		prod = input.est
	}
	if prod < 1 {
		prod = 1
	}
	return prod
}

// extraSortExprs returns ORDER BY expressions that must be computed as
// hidden output columns (everything that is not a Var{OutputRT}).
func (p *Planner) extraSortExprs(q *algebra.Query) []algebra.Expr {
	var out []algebra.Expr
	for _, si := range q.OrderBy {
		if v, ok := si.Expr.(*algebra.Var); ok && v.RT == outputRT {
			continue
		}
		out = append(out, si.Expr)
	}
	return out
}

// outputRT is the pseudo range-table index the analyzer uses for Vars that
// reference the query's own output columns.
const outputRT = -1

// applySortLimit adds sort/top-N/limit nodes on top of the fragment,
// staying on the batch engine when the fragment is vectorized: ORDER BY
// lowers to VecSort (or, with a LIMIT, to the limit-aware VecTopN heap),
// a bare LIMIT/OFFSET to VecLimit. outWidth is the real output width;
// hidden sort columns (if any) sit beyond it and are stripped by a
// projection above the sort. The fragment's estimate is used only to
// annotate the constructed operators (sorts preserve it, top-N/limit cap
// it at the row count they emit); the caller sets the fragment's own.
func (p *Planner) applySortLimit(q *algebra.Query, frag *planned, outWidth int) {
	est := frag.est
	var count, offset int64 = -1, 0
	if q.Limit != nil {
		count = q.Limit.(*algebra.Const).Val.I
	}
	if q.Offset != nil {
		offset = q.Offset.(*algebra.Const).Val.I
	}
	if len(q.OrderBy) > 0 {
		keys := make([]algebra.SortKey, 0, len(q.OrderBy))
		hidden := outWidth
		for _, si := range q.OrderBy {
			if v, ok := si.Expr.(*algebra.Var); ok && v.RT == outputRT {
				keys = append(keys, algebra.SortKey{Pos: v.Col, Desc: si.Desc})
				continue
			}
			keys = append(keys, algebra.SortKey{Pos: hidden, Desc: si.Desc})
			hidden++
		}
		// The hidden-column strip must compile for the batch engine for
		// the sort to stay vectorized; its inputs are the (already
		// vectorized) projection outputs, so this only fails on kinds the
		// pipeline could not have produced.
		vectorized := frag.vnode != nil
		var strip []*vexec.Expr
		if vectorized && hidden > outWidth {
			kinds := q.Schema().Kinds()
			exprs := make([]algebra.Expr, outWidth)
			for i := 0; i < outWidth; i++ {
				exprs[i] = &algebra.Var{RT: flatRT, Col: i, Name: "col", Typ: kinds[i]}
			}
			var err error
			strip, err = vexec.CompileExprs(exprs, &flatBinder{p: p})
			vectorized = err == nil
		}
		if vectorized {
			if count >= 0 {
				top := vexec.NewVecTopN(frag.vnode, keys, count, offset)
				count, offset = -1, 0 // the heap applied them
				est = limitEst(est, top.Count)
				frag.setBatch(top)
			} else {
				vs := vexec.NewVecSort(frag.vnode, keys)
				vs.Spill = p.spillRes("sort")
				frag.setBatch(vs)
			}
			setFragEst(frag, est)
			if strip != nil {
				frag.setBatch(vexec.NewProject(frag.vnode, strip))
				setFragEst(frag, est)
			}
		} else {
			rs := exec.NewSort(frag.rowNode(), keys)
			rs.Spill = p.spillRes("sort")
			frag.setRow(rs)
			setFragEst(frag, est)
			if hidden > outWidth {
				// Strip hidden columns.
				fns := make([]eval.Func, outWidth)
				for i := 0; i < outWidth; i++ {
					pos := i
					fns[i] = func(ctx *eval.Ctx) (types.Value, error) { return ctx.Row[pos], nil }
				}
				frag.setRow(exec.NewProject(frag.node, fns))
				setFragEst(frag, est)
			}
		}
	}
	if count >= 0 || offset > 0 {
		if frag.vnode != nil {
			frag.setBatch(vexec.NewVecLimit(frag.vnode, count, offset))
		} else {
			frag.setRow(exec.NewLimit(frag.node, count, offset))
		}
		setFragEst(frag, limitEst(est, count))
	}
}

// limitEst caps an estimate at a LIMIT count (negative: no limit).
func limitEst(est float64, count int64) float64 {
	if count >= 0 && float64(count) < est {
		return float64(count)
	}
	return est
}

// ---------------------------------------------------------------------------
// FROM planning and join ordering

func (p *Planner) planFrom(q *algebra.Query) (*planned, error) {
	if len(q.From) == 0 {
		// FROM-less query: a single empty row drives the projection.
		pl := &planned{
			node:   exec.NewScan([]types.Row{{}}),
			layout: map[int]int{},
			est:    1,
		}
		setEstNode(pl.node, pl.est)
		if err := p.attachFilter(pl, q.Where); err != nil {
			return nil, err
		}
		return pl, nil
	}

	// The conjunct pool: WHERE conjuncts are consumed by planFromItem as
	// deeply in the join tree as their references allow (scans and inner
	// joins; only preserved sides of outer joins). Leftovers are
	// distributed over the top-level items below.
	pool := &conjPool{conjs: analyseConjuncts(hoistCommonOrConjuncts(q.Where))}
	items := make([]*planned, 0, len(q.From))
	for _, fi := range q.From {
		pl, err := p.planFromItem(fi, q, pool)
		if err != nil {
			return nil, err
		}
		items = append(items, pl)
	}
	conjuncts := pool.conjs

	// Push single-fragment conjuncts down as filters.
	var remaining []*conjunct
	for _, c := range conjuncts {
		target := -1
		for i, it := range items {
			if c.rts.SubsetOf(it.rts) {
				target = i
				break
			}
		}
		// Conjuncts with sublinks are kept above joins unless trivially
		// local, to keep subplan evaluation count low.
		if target >= 0 {
			if err := p.attachFilter(items[target], c.expr); err != nil {
				return nil, err
			}
			continue
		}
		remaining = append(remaining, c)
	}

	// Greedy join ordering: repeatedly join the pair with the smallest
	// estimated output, preferring equi-connected pairs over cross
	// products. With column statistics the estimate is
	// |L|·|R| / max(NDV) per join key; without, it falls back to the
	// max-side heuristic. A pair's verdict holds until one of its fragments
	// is joined away (the conjuncts a join consumes connect no other pair),
	// so a round only prices the pairs of the fragment the last one made;
	// a nil slot marks a joined-away fragment, keeping tie-breaking order.
	type pairEst struct {
		known, connected bool
		cost             float64
	}
	n := len(items)
	pairs := make([]pairEst, n*n)
	var aKeys, bKeys []algebra.Expr // scratch of the pair under consideration
	result := items[0]
	for live := n; live > 1; live-- {
		bestI, bestJ := -1, -1
		bestConnected := false
		var bestCost float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if items[i] == nil || items[j] == nil {
					continue
				}
				pe := &pairs[i*n+j]
				if !pe.known {
					aKeys, bKeys = equiKeys(remaining, items[i], items[j], aKeys[:0], bKeys[:0])
					*pe = pairEst{known: true, connected: len(aKeys) > 0, cost: items[i].est * items[j].est}
					if pe.connected {
						pe.cost = p.hashJoinEstimate(items[i], items[j], aKeys, bKeys)
					}
				}
				better := false
				switch {
				case bestI < 0:
					better = true
				case pe.connected && !bestConnected:
					better = true
				case pe.connected == bestConnected && pe.cost < bestCost:
					better = true
				}
				if better {
					bestI, bestJ, bestConnected, bestCost = i, j, pe.connected, pe.cost
				}
			}
		}
		left, right := items[bestI], items[bestJ]
		// Gather all conjuncts answerable by this pair.
		combinedRTs := left.rts.Union(right.rts)
		var usable, rest []*conjunct
		for _, c := range remaining {
			if c.rts.SubsetOf(combinedRTs) && !c.sublink {
				usable = append(usable, c)
			} else {
				rest = append(rest, c)
			}
		}
		joined, err := p.buildJoin(left, right, algebra.JoinInner, usable)
		if err != nil {
			return nil, err
		}
		remaining = rest
		items[bestI], items[bestJ], result = joined, nil, joined
		for k := 0; k < n; k++ {
			pairs[bestI*n+k].known, pairs[k*n+bestI].known = false, false
		}
	}

	if len(remaining) > 0 {
		if err := p.attachFilter(result, conjExpr(remaining)); err != nil {
			return nil, err
		}
	}
	return result, nil
}

// hoistCommonOrConjuncts factors conjuncts shared by every branch of an
// OR out of the disjunction: (A AND x) OR (A AND y) → A AND (x OR y).
// TPC-H Q19 buries its equi-join predicate inside such a disjunction;
// without the factoring the join degenerates to a cross product.
func hoistCommonOrConjuncts(e algebra.Expr) algebra.Expr {
	if e == nil {
		return nil
	}
	b, ok := e.(*algebra.BinOp)
	if !ok {
		return e
	}
	switch b.Op {
	case "AND":
		left := hoistCommonOrConjuncts(b.Left)
		right := hoistCommonOrConjuncts(b.Right)
		return &algebra.BinOp{Op: "AND", Left: left, Right: right, Typ: types.KindBool}
	case "OR":
		branches := disjuncts(e)
		if len(branches) < 2 {
			return e
		}
		branchConjuncts := make([][]algebra.Expr, len(branches))
		for i, br := range branches {
			branchConjuncts[i] = algebra.Conjuncts(br)
		}
		var common []algebra.Expr
		for _, cand := range branchConjuncts[0] {
			inAll := true
			for _, others := range branchConjuncts[1:] {
				found := false
				for _, o := range others {
					if algebra.EqualExpr(cand, o) {
						found = true
						break
					}
				}
				if !found {
					inAll = false
					break
				}
			}
			if inAll {
				common = append(common, cand)
			}
		}
		if len(common) == 0 {
			return e
		}
		// Rebuild each branch without one occurrence of each common
		// conjunct; an emptied branch makes the residual OR trivially true.
		residualTrue := false
		var residuals []algebra.Expr
		for _, bc := range branchConjuncts {
			var rest []algebra.Expr
			used := make([]bool, len(common))
			for _, c := range bc {
				matched := false
				for ci, cm := range common {
					if !used[ci] && algebra.EqualExpr(c, cm) {
						used[ci] = true
						matched = true
						break
					}
				}
				if !matched {
					rest = append(rest, c)
				}
			}
			if len(rest) == 0 {
				residualTrue = true
				break
			}
			residuals = append(residuals, algebra.AndAll(rest))
		}
		out := algebra.AndAll(common)
		if !residualTrue {
			var orExpr algebra.Expr
			for _, r := range residuals {
				if orExpr == nil {
					orExpr = r
				} else {
					orExpr = &algebra.BinOp{Op: "OR", Left: orExpr, Right: r, Typ: types.KindBool}
				}
			}
			out = &algebra.BinOp{Op: "AND", Left: out, Right: orExpr, Typ: types.KindBool}
		}
		return out
	default:
		return e
	}
}

// disjuncts splits an expression into its top-level OR branches.
func disjuncts(e algebra.Expr) []algebra.Expr {
	if b, ok := e.(*algebra.BinOp); ok && b.Op == "OR" {
		return append(disjuncts(b.Left), disjuncts(b.Right)...)
	}
	return []algebra.Expr{e}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// conjunct is one WHERE or ON conjunct with what planning asks of it,
// worked out once when it enters a pool: the entries it references,
// whether it holds a sublink, and — for an equality — its two sides with
// the entries each references. Pushdown, join ordering and hash-key
// extraction read this record instead of walking the expression.
type conjunct struct {
	expr    algebra.Expr
	rts     algebra.Bits
	sublink bool

	equi, nullSafe bool // l = r, or l IS NOT DISTINCT FROM r
	l, r           algebra.Expr
	lrts, rrts     algebra.Bits
}

// analyseConjuncts splits a condition into its conjunct records, which
// share one backing array.
func analyseConjuncts(cond algebra.Expr) []*conjunct {
	n := 0
	algebra.EachConjunct(cond, func(algebra.Expr) { n++ })
	if n == 0 {
		return nil
	}
	recs, out := make([]conjunct, n), make([]*conjunct, 0, n)
	algebra.EachConjunct(cond, func(e algebra.Expr) {
		c := &recs[len(out)]
		c.expr, c.sublink = e, algebra.ContainsSubLink(e)
		if c.l, c.r, c.nullSafe, c.equi = equiSides(e); c.equi {
			c.lrts, c.rrts = algebra.VarsUsed(c.l), algebra.VarsUsed(c.r)
			c.rts = c.lrts.Union(c.rrts)
		} else {
			c.rts = algebra.VarsUsed(e)
		}
		out = append(out, c)
	})
	return out
}

// conjExpr is the condition the conjuncts make together (nil for none).
func conjExpr(cs []*conjunct) algebra.Expr {
	exprs := make([]algebra.Expr, len(cs))
	for i, c := range cs {
		exprs[i] = c.expr
	}
	return algebra.AndAll(exprs)
}

// joins reports whether the conjunct is an equality with one side over
// each of the two entry sets, and whether its left side is the one over b.
func (c *conjunct) joins(a, b algebra.Bits) (ok, swapped bool) {
	if !c.equi || c.lrts.Empty() || c.rrts.Empty() {
		return false, false
	}
	if c.lrts.SubsetOf(a) && c.rrts.SubsetOf(b) {
		return true, false
	}
	return c.lrts.SubsetOf(b) && c.rrts.SubsetOf(a), true
}

// equiKeys appends the key pairs of every conjunct that equi-connects the
// two fragments (the greedy ordering's connectivity test and cost input).
func equiKeys(conjuncts []*conjunct, a, b *planned, aKeys, bKeys []algebra.Expr) (_, _ []algebra.Expr) {
	for _, c := range conjuncts {
		if ok, swapped := c.joins(a.rts, b.rts); ok && swapped {
			aKeys, bKeys = append(aKeys, c.r), append(bKeys, c.l)
		} else if ok {
			aKeys, bKeys = append(aKeys, c.l), append(bKeys, c.r)
		}
	}
	return aKeys, bKeys
}

// equiSides decomposes an equality conjunct into its two sides. It
// recognizes plain '=' and the null-safe IS NOT DISTINCT FROM that the
// provenance rewriter emits.
func equiSides(c algebra.Expr) (left, right algebra.Expr, nullSafe, ok bool) {
	switch n := c.(type) {
	case *algebra.BinOp:
		if n.Op == "=" && !algebra.ContainsSubLink(n.Left) && !algebra.ContainsSubLink(n.Right) {
			return n.Left, n.Right, false, true
		}
	case *algebra.DistinctFrom:
		if n.Not {
			return n.Left, n.Right, true, true
		}
	}
	return nil, nil, false, false
}

// buildJoin joins two fragments with the given condition, choosing a hash
// join when equi-keys are extractable. For commutable (inner/cross)
// joins the smaller estimated side becomes the build (right) input — on
// provenance-rewritten queries this keeps the blown-up side streaming
// through the probe instead of being materialized in the hash table.
func (p *Planner) buildJoin(left, right *planned, kind algebra.JoinKind, conds []*conjunct) (*planned, error) {
	if kind == algebra.JoinCross {
		kind = algebra.JoinInner // the conditions, if any, are its ON clause
	}
	if kind == algebra.JoinInner && right.est > left.est {
		left, right = right, left
	}
	combined := &planned{
		layout: make(map[int]int, len(left.layout)+len(right.layout)),
		kinds:  append(append([]types.Kind{}, left.kinds...), right.kinds...),
		rts:    left.rts.Union(right.rts),
	}
	for rt, off := range left.layout {
		combined.layout[rt] = off
	}
	shift := len(left.kinds)
	for rt, off := range right.layout {
		combined.layout[rt] = off + shift
	}

	// Column provenance: both sides pass through an inner join; the
	// null-producing side(s) of outer joins lose their runtime-filter
	// attachment points (pruning below a null-extension could turn a
	// matched row into a null-extended one and change null-safe joins
	// above).
	lc, rc := fragCols(left), fragCols(right)
	switch kind {
	case algebra.JoinLeft:
		rc = clearScans(rc)
	case algebra.JoinRight:
		lc = clearScans(lc)
	case algebra.JoinFull:
		lc, rc = clearScans(lc), clearScans(rc)
	}
	combined.cols = append(append([]colInfo{}, lc...), rc...)

	// Try to extract equi-keys for a hash join.
	var leftKeyExprs, rightKeyExprs []algebra.Expr
	var nullSafe []bool
	var residual []algebra.Expr
	for _, c := range conds {
		ok, swapped := c.joins(left.rts, right.rts)
		switch {
		case !ok:
			residual = append(residual, c.expr)
			continue
		case swapped:
			leftKeyExprs, rightKeyExprs = append(leftKeyExprs, c.r), append(rightKeyExprs, c.l)
		default:
			leftKeyExprs, rightKeyExprs = append(leftKeyExprs, c.l), append(rightKeyExprs, c.r)
		}
		nullSafe = append(nullSafe, c.nullSafe)
	}

	combinedBinder := &rowBinder{p: p, layout: combined.layout}
	if len(leftKeyExprs) > 0 {
		est := p.hashJoinEstimate(left, right, leftKeyExprs, rightKeyExprs)
		// Vectorized hash join: inner and left joins whose key (and, for
		// inner joins, residual) expressions compile for the batch engine.
		// An inner-join residual becomes a vectorized filter above the
		// join, which is equivalent; a left join with a residual falls
		// back, because the residual takes part in the match decision.
		if p.vectorized && left.vnode != nil && right.vnode != nil &&
			(kind == algebra.JoinInner || (kind == algebra.JoinLeft && len(residual) == 0)) {
			if vj := p.tryVecHashJoin(left, right, leftKeyExprs, rightKeyExprs, nullSafe, residual, kind, combined, est); vj != nil {
				combined.setBatch(vj)
				setFragEst(combined, est)
				return combined, nil
			}
		}
		leftBinder := &rowBinder{p: p, layout: left.layout}
		rightBinder := &rowBinder{p: p, layout: shiftedLayout(right.layout, 0)}
		lk, err := eval.CompileAll(leftKeyExprs, leftBinder)
		if err != nil {
			return nil, err
		}
		rk, err := eval.CompileAll(rightKeyExprs, rightBinder)
		if err != nil {
			return nil, err
		}
		var res eval.Func
		if len(residual) > 0 {
			var err error
			res, err = eval.Compile(algebra.AndAll(residual), combinedBinder)
			if err != nil {
				return nil, err
			}
		}
		combined.setRow(exec.NewHashJoin(left.rowNode(), right.rowNode(), lk, rk, nullSafe, res, kind, left.kinds, right.kinds))
		setFragEst(combined, est)
		return combined, nil
	}

	// No equi-keys: nested-loop join. The vectorized variant covers inner
	// and left joins (the condition takes part in the match decision, so
	// arbitrary residuals are fine) and assembles pair batches by gather
	// instead of boxing one row per pair.
	cond := conjExpr(conds)
	if p.vectorized && left.vnode != nil && right.vnode != nil &&
		(kind == algebra.JoinInner || kind == algebra.JoinLeft) {
		var vcond *vexec.Expr
		condOK := cond == nil
		if cond != nil {
			if ve, err := vexec.CompileExpr(cond, combinedBinder); err == nil && ve.Kind() == types.KindBool {
				vcond, condOK = ve, true
			}
		}
		if condOK {
			nlj := vexec.NewNLJoin(left.vnode, right.vnode, vcond, kind, left.kinds, right.kinds)
			nlj.SetActivity(p.activity)
			combined.setBatch(nlj)
			est := left.est * right.est
			if cond != nil {
				est = est*0.3 + 1
			}
			setFragEst(combined, est)
			return combined, nil
		}
	}
	var condFn eval.Func
	if cond != nil {
		var err error
		condFn, err = eval.Compile(cond, combinedBinder)
		if err != nil {
			return nil, err
		}
	}
	combined.setRow(exec.NewNestedLoopJoin(left.rowNode(), right.rowNode(), condFn, kind, left.kinds, right.kinds))
	est := left.est * right.est
	if cond != nil {
		est = est*0.3 + 1
	}
	setFragEst(combined, est)
	return combined, nil
}

// hashJoinEstimate estimates a hash join's output cardinality from key
// statistics: |L|·|R| / max(NDV_l, NDV_r) per key pair when both sides'
// sketches are known, the max-side heuristic otherwise.
func (p *Planner) hashJoinEstimate(left, right *planned, leftKeys, rightKeys []algebra.Expr) float64 {
	sel := 1.0
	known := false
	for k := range leftKeys {
		ls, rs := p.colStatsFor(left, leftKeys[k]), p.colStatsFor(right, rightKeys[k])
		if ls == nil || rs == nil {
			continue
		}
		if d := maxf(ls.NDV, rs.NDV); d > 1 {
			sel /= d
			known = true
		}
	}
	if !known {
		return maxf(left.est, right.est)
	}
	return maxf(left.est*right.est*sel, 1)
}

// colStatsFor resolves an expression to the statistics of the fragment
// column it references (bare column references only).
func (p *Planner) colStatsFor(pl *planned, e algebra.Expr) *catalog.ColStats {
	v, ok := e.(*algebra.Var)
	if !ok || v.RT < 0 || pl.cols == nil {
		return nil
	}
	off, ok := pl.layout[v.RT]
	if !ok || off+v.Col >= len(pl.cols) {
		return nil
	}
	return pl.cols[off+v.Col].stats
}

// selectivity estimates the fraction of the fragment's rows a predicate
// keeps, multiplying per-conjunct estimates: equality against a constant
// uses 1/NDV, ranges interpolate against the column's min/max sketch,
// and shapes the statistics cannot see fall back to the classic
// magic constants.
func (p *Planner) selectivity(e algebra.Expr, pl *planned) float64 {
	s := 1.0
	algebra.EachConjunct(e, func(c algebra.Expr) { s *= p.selOne(c, pl) })
	return clampSel(s)
}

func clampSel(s float64) float64 {
	switch {
	case s < 1e-4:
		return 1e-4
	case s > 1:
		return 1
	}
	return s
}

func (p *Planner) selOne(c algebra.Expr, pl *planned) float64 {
	switch n := c.(type) {
	case *algebra.Const:
		if !n.Val.Null && n.Val.K == types.KindBool && !n.Val.B {
			return 1e-4 // constant FALSE
		}
		return 1
	case *algebra.BinOp:
		switch n.Op {
		case "AND":
			return clampSel(p.selOne(n.Left, pl) * p.selOne(n.Right, pl))
		case "OR":
			a, b := p.selOne(n.Left, pl), p.selOne(n.Right, pl)
			return clampSel(a + b - a*b)
		case "=":
			if st, _, ok := p.varConstSide(n.Left, n.Right, pl); ok && st.NDV >= 1 {
				return clampSel(1 / st.NDV)
			}
			ls, rs := p.colStatsFor(pl, n.Left), p.colStatsFor(pl, n.Right)
			if ls != nil && rs != nil {
				if d := maxf(ls.NDV, rs.NDV); d >= 1 {
					return clampSel(1 / d)
				}
			}
			return 0.1
		case "<>":
			return 0.9
		case "<", "<=", ">", ">=":
			return p.rangeSel(n, pl)
		case "LIKE":
			return 0.25
		}
		return 0.3
	case *algebra.UnOp:
		if n.Op == "NOT" {
			return clampSel(1 - p.selOne(n.Expr, pl))
		}
		return 0.3
	case *algebra.IsNull:
		frac := 0.05
		if st := p.colStatsFor(pl, n.Expr); st != nil {
			frac = st.NullFrac
		}
		if n.Not {
			return clampSel(1 - frac)
		}
		return clampSel(frac)
	case *algebra.DistinctFrom:
		if n.Not { // null-safe equality
			if st := p.colStatsFor(pl, n.Left); st != nil && st.NDV >= 1 {
				return clampSel(1 / st.NDV)
			}
			if st := p.colStatsFor(pl, n.Right); st != nil && st.NDV >= 1 {
				return clampSel(1 / st.NDV)
			}
			return 0.1
		}
		return 0.9
	default:
		return 0.3
	}
}

// varConstSide matches a (column, constant) operand pair in either order
// and returns the column's statistics plus the folded constant.
func (p *Planner) varConstSide(a, b algebra.Expr, pl *planned) (*catalog.ColStats, types.Value, bool) {
	if st := p.colStatsFor(pl, a); st != nil {
		if v, ok := constValue(b); ok {
			return st, v, true
		}
	}
	if st := p.colStatsFor(pl, b); st != nil {
		if v, ok := constValue(a); ok {
			return st, v, true
		}
	}
	return nil, types.NullValue, false
}

// rangeSel interpolates a range predicate's selectivity within the
// column's [min, max] sketch.
func (p *Planner) rangeSel(n *algebra.BinOp, pl *planned) float64 {
	st := p.colStatsFor(pl, n.Left)
	op := n.Op
	var cv types.Value
	var ok bool
	if st != nil {
		cv, ok = constValue(n.Right)
	} else if st = p.colStatsFor(pl, n.Right); st != nil {
		// Flip the comparison so the column is on the left.
		if cv, ok = constValue(n.Left); ok {
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
	}
	if st == nil || !ok || !st.HasRange || cv.Null || !cv.K.Numeric() && cv.K != types.KindDate {
		return 0.3
	}
	v := cv.AsFloat()
	width := st.MaxF - st.MinF
	if width <= 0 {
		if (op == "<" || op == "<=") == (v >= st.MinF) || v == st.MinF {
			return 0.5
		}
		return 0.3
	}
	var frac float64
	switch op {
	case "<", "<=":
		frac = (v - st.MinF) / width
	default: // ">", ">="
		frac = (st.MaxF - v) / width
	}
	return clampSel(frac * (1 - st.NullFrac))
}

// constValue folds a constant-only expression (including the date ±
// interval arithmetic TPC-H predicates carry) to its value, sharing the
// vectorized compiler's folding semantics.
func constValue(e algebra.Expr) (types.Value, bool) {
	return algebra.FoldConst(e)
}

// tryVecHashJoin compiles the hash-join keys (and an inner join's
// residual) for the batch engine and returns the vectorized join tree,
// or nil when some expression is not vectorizable. For inner joins it
// also wires runtime filters: every key whose probe-side expression is a
// bare column traced to a columnar scan gets a filter published by this
// join's build and applied by that scan.
func (p *Planner) tryVecHashJoin(left, right *planned, leftKeyExprs, rightKeyExprs []algebra.Expr,
	nullSafe []bool, residual []algebra.Expr, kind algebra.JoinKind, combined *planned, est float64) vexec.Node {
	lk, err := vexec.CompileExprs(leftKeyExprs, &rowBinder{p: p, layout: left.layout})
	if err != nil {
		return nil
	}
	rk, err := vexec.CompileExprs(rightKeyExprs, &rowBinder{p: p, layout: shiftedLayout(right.layout, 0)})
	if err != nil {
		return nil
	}
	var res *vexec.Expr
	if len(residual) > 0 {
		res, err = vexec.CompileExpr(algebra.AndAll(residual), &rowBinder{p: p, layout: combined.layout})
		if err != nil || res.Kind() != types.KindBool {
			return nil
		}
	}
	vj := vexec.NewHashJoin(left.vnode, right.vnode, lk, rk, nullSafe, kind, left.kinds, right.kinds)
	vj.SetActivity(p.activity)
	vj.Spill = p.spillRes("hashjoin")
	if kind == algebra.JoinInner && left.cols != nil {
		// Left-join probe rows must survive to null-extend, so only inner
		// joins may prune them at the source.
		var publish []*vexec.RuntimeFilter
		for k, le := range leftKeyExprs {
			v, ok := le.(*algebra.Var)
			if !ok || v.RT < 0 {
				continue
			}
			off, ok := left.layout[v.RT]
			if !ok || off+v.Col >= len(left.cols) {
				continue
			}
			origin := left.cols[off+v.Col]
			if origin.scan == nil {
				continue
			}
			if publish == nil {
				publish = make([]*vexec.RuntimeFilter, len(leftKeyExprs))
			}
			rf := vexec.NewRuntimeFilter(nullSafe[k])
			origin.scan.AddRuntimeFilter(rf, origin.scanCol)
			publish[k] = rf
		}
		vj.Publish = publish
	}
	setEstNode(vj, est)
	var vn vexec.Node = vj
	if res != nil {
		// The caller's estimate already absorbs the residual's
		// selectivity into the join estimate, so the filter above the
		// join carries the same number.
		vn = vexec.NewFilter(vn, res)
		setEstNode(vn, est)
	}
	return vn
}

// shiftedLayout returns a copy of a layout rebased to the given start.
func shiftedLayout(layout map[int]int, base int) map[int]int {
	out := make(map[int]int, len(layout))
	minOff := -1
	for _, off := range layout {
		if minOff < 0 || off < minOff {
			minOff = off
		}
	}
	for rt, off := range layout {
		out[rt] = off - minOff + base
	}
	return out
}

// conjPool holds the WHERE conjuncts still looking for the deepest plan
// position that can answer them.
type conjPool struct {
	conjs []*conjunct
}

// take removes and returns the sublink-free conjuncts fully answerable by
// the given range-table entry set.
func (cp *conjPool) take(rts algebra.Bits) []*conjunct {
	var taken, rest []*conjunct
	for _, c := range cp.conjs {
		if !c.rts.Empty() && c.rts.SubsetOf(rts) && !c.sublink {
			taken = append(taken, c)
		} else {
			rest = append(rest, c)
		}
	}
	cp.conjs = rest
	return taken
}

// takeSublinks removes and returns the sublink-bearing conjuncts fully
// answerable by the given range-table entry set, provided every sublink
// in them is a scalar or EXISTS form. Those forms are uncorrelated and
// materialize to a single cached value wherever the filter lands, so
// sinking them is free per row — and placing them deep prunes join
// inputs early. TPC-H Q15's provenance rewrite is the extreme case: its
// max-revenue filter lands under a cross-shaped outer join, where
// evaluating it before the join shrinks the preserved side by orders of
// magnitude. Quantified (ANY/ALL) sublinks compare against every
// subquery row per input row, so they stay high where the input is
// smallest.
func (cp *conjPool) takeSublinks(rts algebra.Bits) []*conjunct {
	var taken, rest []*conjunct
	for _, c := range cp.conjs {
		if !c.rts.Empty() && c.rts.SubsetOf(rts) && c.sublink && onlyCheapSublinks(c.expr) {
			taken = append(taken, c)
		} else {
			rest = append(rest, c)
		}
	}
	cp.conjs = rest
	return taken
}

// onlyCheapSublinks reports whether every sublink in the expression is a
// scalar or EXISTS sublink (constant once materialized).
func onlyCheapSublinks(e algebra.Expr) bool {
	ok := true
	algebra.WalkExpr(e, func(x algebra.Expr) {
		if sl, isSub := x.(*algebra.SubLink); isSub {
			if sl.Kind != algebra.SubScalar && sl.Kind != algebra.SubExists {
				ok = false
			}
		}
	})
	return ok
}

// planFromItem plans one FROM item, pushing applicable pool conjuncts
// down to scans and into inner-join conditions along the way.
func (p *Planner) planFromItem(fi algebra.FromItem, q *algebra.Query, pool *conjPool) (*planned, error) {
	switch n := fi.(type) {
	case *algebra.FromRef:
		pl, err := p.planRTE(n.RT, q.RangeTable[n.RT])
		if err != nil {
			return nil, err
		}
		if taken := pool.take(pl.rts); len(taken) > 0 {
			if err := p.attachFilter(pl, conjExpr(taken)); err != nil {
				return nil, err
			}
		}
		// Scalar/EXISTS sublink conjuncts local to this entry sink all
		// the way down too: the subplan materializes once regardless of
		// placement, and filtering here prunes every join above.
		if taken := pool.takeSublinks(pl.rts); len(taken) > 0 {
			if err := p.attachFilter(pl, conjExpr(taken)); err != nil {
				return nil, err
			}
		}
		return pl, nil
	case *algebra.FromJoin:
		return p.planJoinItem(n, q, pool)
	default:
		return nil, fmt.Errorf("plan: unknown from item %T", fi)
	}
}

// planJoinItem plans an explicit join, routing condition conjuncts to the
// deepest valid position first:
//
//   - Inner/cross joins: the ON condition is WHERE-equivalent, so its
//     sublink-free conjuncts enter the shared pool, sink to scans or
//     deeper joins, and whatever still spans both sides returns to this
//     join's condition (where buildJoin extracts hash keys).
//   - Outer joins: conjuncts referencing only the nullable side may
//     filter that input before the join (rows failing them can never
//     match, and null-extension is unaffected); everything else — in
//     particular conjuncts on the preserved side alone — must stay in the
//     condition. WHERE-pool conjuncts are only offered to preserved sides.
func (p *Planner) planJoinItem(n *algebra.FromJoin, q *algebra.Query, pool *conjPool) (*planned, error) {
	if n.Kind == algebra.JoinInner || n.Kind == algebra.JoinCross {
		var keep []*conjunct
		for _, c := range analyseConjuncts(n.Cond) {
			// Variable-free conjuncts stay here: pushdown cannot place
			// them, and a pool leftover would be silently dropped when
			// this join sits under a FULL JOIN's throwaway pools.
			if c.sublink || c.rts.Empty() {
				keep = append(keep, c)
			} else {
				pool.conjs = append(pool.conjs, c)
			}
		}
		left, err := p.planFromItem(n.Left, q, pool)
		if err != nil {
			return nil, err
		}
		right, err := p.planFromItem(n.Right, q, pool)
		if err != nil {
			return nil, err
		}
		taken := pool.take(left.rts.Union(right.rts))
		joined, err := p.buildJoin(left, right, n.Kind, append(keep, taken...))
		if err != nil {
			return nil, err
		}
		// Sublink conjuncts answerable by this join land here rather than
		// at the top of the whole FROM clause, below any enclosing outer
		// joins.
		if taken := pool.takeSublinks(joined.rts); len(taken) > 0 {
			if err := p.attachFilter(joined, conjExpr(taken)); err != nil {
				return nil, err
			}
		}
		return joined, nil
	}

	var nullable algebra.FromItem
	switch n.Kind {
	case algebra.JoinLeft:
		nullable = n.Right
	case algebra.JoinRight:
		nullable = n.Left
	}
	nullPool := &conjPool{}
	var keep []*conjunct
	if nullable != nil {
		var nullableRTs algebra.Bits
		algebra.FromRTs(nullable, &nullableRTs)
		for _, c := range analyseConjuncts(n.Cond) {
			if !c.rts.Empty() && c.rts.SubsetOf(nullableRTs) && !c.sublink {
				nullPool.conjs = append(nullPool.conjs, c)
			} else {
				keep = append(keep, c)
			}
		}
	} else {
		keep = analyseConjuncts(n.Cond)
	}
	leftPool, rightPool := pool, nullPool
	switch n.Kind {
	case algebra.JoinRight:
		leftPool, rightPool = nullPool, pool
	case algebra.JoinFull:
		leftPool, rightPool = &conjPool{}, &conjPool{}
	}
	left, err := p.planFromItem(n.Left, q, leftPool)
	if err != nil {
		return nil, err
	}
	right, err := p.planFromItem(n.Right, q, rightPool)
	if err != nil {
		return nil, err
	}
	// WHERE conjuncts with sublinks sink onto the preserved side like any
	// other preserved-side conjunct (rows they reject are removed whether
	// the filter runs before or after the join, and null-extension only
	// depends on preserved rows that survive either way).
	switch n.Kind {
	case algebra.JoinLeft:
		if taken := pool.takeSublinks(left.rts); len(taken) > 0 {
			if err := p.attachFilter(left, conjExpr(taken)); err != nil {
				return nil, err
			}
		}
	case algebra.JoinRight:
		if taken := pool.takeSublinks(right.rts); len(taken) > 0 {
			if err := p.attachFilter(right, conjExpr(taken)); err != nil {
				return nil, err
			}
		}
	}
	// Conjuncts the nullable side could not absorb return to the condition.
	keep = append(keep, nullPool.conjs...)
	nullPool.conjs = nil
	return p.buildJoin(left, right, n.Kind, keep)
}

func (p *Planner) planRTE(rt int, rte *algebra.RTE) (*planned, error) {
	switch rte.Kind {
	case algebra.RTERelation:
		t, ok := p.cat.Table(rte.RelName)
		if !ok {
			if v, vok := p.cat.Virtual(rte.RelName); vok {
				return p.planVirtual(rt, rte, v)
			}
			return nil, fmt.Errorf("plan: table %q disappeared", rte.RelName)
		}
		kinds := rte.Cols.Kinds()
		// Per-column statistics drive selectivity and join-order
		// estimates; they are recomputed lazily behind the heap version.
		st := t.Stats()
		mkCols := func() []colInfo {
			infos := make([]colInfo, len(kinds))
			for i := range infos {
				if i < len(st.Cols) {
					infos[i].stats = &st.Cols[i]
				}
			}
			return infos
		}
		if p.vectorized {
			if cols, n, ok := p.snapshotColumns(t.Heap, kinds); ok {
				scan := vexec.NewColScan(cols, n)
				scan.Table = rte.RelName
				scan.SetActivity(p.activity)
				infos := mkCols()
				for i := range infos {
					infos[i].scan, infos[i].scanCol = scan, i
				}
				pl := &planned{
					layout: map[int]int{rt: 0},
					kinds:  kinds,
					cols:   infos,
					rts:    algebra.BitsOf(rt),
					est:    float64(n) + 1,
				}
				pl.setBatch(scan)
				setFragEst(pl, pl.est)
				return pl, nil
			}
		}
		rows := p.snapshotRows(t.Heap)
		rs := exec.NewScan(rows)
		rs.Table = rte.RelName
		rs.SetActivity(p.activity)
		pl := &planned{
			node:   rs,
			layout: map[int]int{rt: 0},
			kinds:  kinds,
			cols:   mkCols(),
			rts:    algebra.BitsOf(rt),
			est:    float64(len(rows)) + 1,
		}
		setEstNode(pl.node, pl.est)
		return pl, nil
	case algebra.RTESubquery:
		sub, err := p.planQuery(rte.Subquery)
		if err != nil {
			return nil, err
		}
		// The subquery's output columns map one-to-one onto this entry's
		// columns, so its column provenance (and thus runtime-filter
		// reach and statistics) passes through the boundary.
		var infos []colInfo
		if sub.cols != nil && len(sub.cols) == len(rte.Cols.Kinds()) {
			infos = sub.cols
		}
		return &planned{
			node:   sub.node,
			vnode:  sub.vnode,
			layout: map[int]int{rt: 0},
			kinds:  rte.Cols.Kinds(),
			cols:   infos,
			rts:    algebra.BitsOf(rt),
			est:    sub.est,
		}, nil
	default:
		return nil, fmt.Errorf("plan: unknown RTE kind %d", rte.Kind)
	}
}

// planVirtual scans a virtual system table: the row generator runs now
// (planning happens per execution, so every query sees a fresh
// snapshot), and the rows lower to a columnar scan when the vectorized
// engine can represent them, a row scan otherwise.
func (p *Planner) planVirtual(rt int, rte *algebra.RTE, v *catalog.VirtualTable) (*planned, error) {
	rows := v.Rows()
	kinds := rte.Cols.Kinds()
	pl := &planned{
		layout: map[int]int{rt: 0},
		kinds:  kinds,
		rts:    algebra.BitsOf(rt),
		est:    float64(len(rows)) + 1,
	}
	if p.vectorized {
		if cols, ok := vector.FromRows(rows, kinds); ok {
			scan := vexec.NewColScan(cols, len(rows))
			scan.Table = v.Name
			scan.SetActivity(p.activity)
			pl.setBatch(scan)
			setFragEst(pl, pl.est)
			return pl, nil
		}
	}
	rs := exec.NewScan(rows)
	rs.Table = v.Name
	rs.SetActivity(p.activity)
	pl.node = rs
	setEstNode(pl.node, pl.est)
	return pl, nil
}

// ---------------------------------------------------------------------------
// Aggregation

// planAggregation plans the aggregation plus the post-aggregation
// HAVING filter and projection as a fragment of which only the root and
// the estimate are set. It rewrites target/HAVING/ORDER BY expressions
// to reference the aggregate output row (groups first, then aggregate
// results). The aggregation, the HAVING filter and the final projection
// each stay vectorized as long as their expressions compile for the
// batch engine; the first unsupported stage drops to the row engine over
// the vectorized prefix.
func (p *Planner) planAggregation(q *algebra.Query, input *planned, est float64) (*planned, error) {
	// Collect distinct aggregate references from targets, HAVING and
	// ORDER BY expressions.
	var aggRefs []*algebra.AggRef
	collect := func(e algebra.Expr) {
		algebra.WalkExpr(e, func(x algebra.Expr) {
			if ar, ok := x.(*algebra.AggRef); ok {
				for _, seen := range aggRefs {
					if algebra.EqualExpr(seen, ar) {
						return
					}
				}
				aggRefs = append(aggRefs, ar)
			}
		})
	}
	for _, te := range q.TargetList {
		collect(te.Expr)
	}
	collect(q.Having)
	for _, si := range q.OrderBy {
		collect(si.Expr)
	}

	out := &planned{}
	if input.vnode != nil {
		if vn := p.tryVecAgg(q, input, aggRefs); vn != nil {
			out.setBatch(vn)
		}
	}
	if out.vnode == nil {
		inBinder := &rowBinder{p: p, layout: input.layout}
		groupFns, err := eval.CompileAll(q.GroupBy, inBinder)
		if err != nil {
			return nil, err
		}
		specs := make([]exec.AggSpec, len(aggRefs))
		for i, ar := range aggRefs {
			specs[i] = exec.AggSpec{Fn: ar.Fn, Star: ar.Star, Distinct: ar.Distinct, ResultKind: ar.Typ}
			if ar.Arg != nil {
				if specs[i].Arg, err = eval.Compile(ar.Arg, inBinder); err != nil {
					return nil, err
				}
			}
		}
		out.setRow(exec.NewHashAgg(input.rowNode(), groupFns, specs))
	}
	setFragEst(out, est)

	// Aggregate output layout: group values 0..G-1, aggregates G..G+A-1.
	mapAgg := func(e algebra.Expr) (algebra.Expr, error) {
		return mapToAggOutput(e, q.GroupBy, aggRefs)
	}
	aggBinder := &flatBinder{p: p}

	if q.Having != nil {
		mapped, err := mapAgg(q.Having)
		if err != nil {
			return nil, err
		}
		var ve *vexec.Expr
		if out.vnode != nil {
			if ve, err = vexec.CompileExpr(mapped, aggBinder); err != nil || ve.Kind() != types.KindBool {
				ve = nil
			}
		}
		if ve != nil {
			out.setBatch(vexec.NewFilter(out.vnode, ve))
		} else {
			pred, err := eval.Compile(mapped, aggBinder)
			if err != nil {
				return nil, err
			}
			out.setRow(exec.NewFilter(out.rowNode(), pred))
		}
		setFragEst(out, est)
	}

	exprs := make([]algebra.Expr, 0, len(q.TargetList))
	for _, te := range q.TargetList {
		mapped, err := mapAgg(te.Expr)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, mapped)
	}
	for _, se := range p.extraSortExprs(q) {
		mapped, err := mapAgg(se)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, mapped)
	}
	if out.vnode != nil {
		if ves, err := vexec.CompileExprs(exprs, aggBinder); err == nil {
			out.setBatch(vexec.NewProject(out.vnode, ves))
			setFragEst(out, est)
			return out, nil
		}
	}
	fns, err := eval.CompileAll(exprs, aggBinder)
	if err != nil {
		return nil, err
	}
	out.setRow(exec.NewProject(out.rowNode(), fns))
	setFragEst(out, est)
	return out, nil
}

// tryVecAgg compiles the aggregation itself for the batch engine:
// vectorizable group expressions and aggregate arguments, no DISTINCT
// aggregates, and aggregate kinds the columnar accumulators cover.
// Returns nil when the row engine must aggregate instead.
func (p *Planner) tryVecAgg(q *algebra.Query, input *planned, aggRefs []*algebra.AggRef) vexec.Node {
	bind := &rowBinder{p: p, layout: input.layout}
	groups, err := vexec.CompileExprs(q.GroupBy, bind)
	if err != nil {
		return nil
	}
	specs := make([]vexec.AggSpec, len(aggRefs))
	for i, ar := range aggRefs {
		if ar.Distinct {
			return nil
		}
		spec := vexec.AggSpec{Fn: ar.Fn, Star: ar.Star, ResultKind: ar.Typ}
		var argKind types.Kind
		if ar.Arg != nil {
			arg, err := vexec.CompileExpr(ar.Arg, bind)
			if err != nil {
				return nil
			}
			spec.Arg = arg
			argKind = arg.Kind()
		}
		switch ar.Fn {
		case algebra.AggCount:
			if ar.Typ != types.KindInt {
				return nil
			}
		case algebra.AggSum:
			if !argKind.Numeric() || (ar.Typ != types.KindInt && ar.Typ != types.KindFloat) {
				return nil
			}
		case algebra.AggAvg:
			if !argKind.Numeric() || ar.Typ != types.KindFloat {
				return nil
			}
		case algebra.AggMin, algebra.AggMax:
			ok := argKind == ar.Typ || (argKind.Numeric() && ar.Typ.Numeric())
			if !ok {
				return nil
			}
		default:
			return nil
		}
		specs[i] = spec
	}
	agg := vexec.NewHashAgg(input.vnode, groups, specs)
	agg.Spill = p.spillRes("hashagg")
	return agg
}

// mapToAggOutput rewrites an expression over the aggregation input into
// one over the aggregation output row: subtrees matching a GROUP BY
// expression become column references, AggRefs become references to their
// computed slot. The result uses flat Vars (RT -2) bound by flatBinder.
func mapToAggOutput(e algebra.Expr, groupBy []algebra.Expr, aggRefs []*algebra.AggRef) (algebra.Expr, error) {
	var err error
	fail := func(first error) {
		if err == nil {
			err = first
		}
	}
	out := algebra.Replace(e, func(x algebra.Expr) algebra.Expr {
		for i, g := range groupBy {
			if algebra.EqualExpr(x, g) {
				return &algebra.Var{RT: flatRT, Col: i, Name: "group", Typ: algebra.TypeOf(g)}
			}
		}
		switch n := x.(type) {
		case *algebra.AggRef:
			for i, seen := range aggRefs {
				if algebra.EqualExpr(seen, n) {
					return &algebra.Var{RT: flatRT, Col: len(groupBy) + i, Name: "agg", Typ: n.Typ}
				}
			}
			fail(fmt.Errorf("plan: aggregate not collected (planner bug)"))
		case *algebra.Var:
			fail(fmt.Errorf("plan: column %q must appear in GROUP BY", n.Name))
		default:
			return nil
		}
		return x
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Binders

// flatRT is the pseudo range-table index for Vars referencing a flat
// computed row (aggregate output).
const flatRT = -2

// rowBinder binds Vars through a range-table layout.
type rowBinder struct {
	p      *Planner
	layout map[int]int
}

func (b *rowBinder) BindVar(v *algebra.Var) (int, error) {
	if v.RT == outputRT {
		return 0, fmt.Errorf("plan: unexpected output-column reference %q", v.Name)
	}
	if v.RT == flatRT {
		return v.Col, nil
	}
	off, ok := b.layout[v.RT]
	if !ok {
		return 0, fmt.Errorf("plan: column %q references an entry outside this fragment", v.Name)
	}
	return off + v.Col, nil
}

func (b *rowBinder) BindSubLink(s *algebra.SubLink) (algebra.SubLinkValue, error) {
	return b.p.newSubLinkValue(s)
}

// flatBinder binds flat Vars (RT==flatRT) positionally.
type flatBinder struct {
	p *Planner
}

func (b *flatBinder) BindVar(v *algebra.Var) (int, error) {
	if v.RT != flatRT {
		return 0, fmt.Errorf("plan: unexpected var %q (rt=%d) over computed row", v.Name, v.RT)
	}
	return v.Col, nil
}

func (b *flatBinder) BindSubLink(s *algebra.SubLink) (algebra.SubLinkValue, error) {
	return b.p.newSubLinkValue(s)
}

// ---------------------------------------------------------------------------
// Sublinks

// NewSubLinkValue exposes sublink planning for engine-level predicate
// evaluation (DELETE ... WHERE with sublinks).
func NewSubLinkValue(p *Planner, s *algebra.SubLink) (algebra.SubLinkValue, error) {
	return p.newSubLinkValue(s)
}

// subLinkValue materializes an uncorrelated subquery lazily, once, and
// serves the SQL semantics of scalar/EXISTS/ANY/ALL sublinks.
type subLinkValue struct {
	node   exec.Node
	kind   types.Kind
	loaded bool
	rows   []types.Row
	err    error
}

func (p *Planner) newSubLinkValue(s *algebra.SubLink) (algebra.SubLinkValue, error) {
	pl, err := p.planQuery(s.Query)
	if err != nil {
		return nil, err
	}
	kind := types.KindNull
	if len(s.Query.Schema()) > 0 {
		kind = s.Query.Schema()[0].Type
	}
	return &subLinkValue{node: pl.rowNode(), kind: kind}, nil
}

func (s *subLinkValue) load() error {
	if s.loaded {
		return s.err
	}
	s.loaded = true
	s.rows, s.err = exec.Collect(s.node)
	return s.err
}

func (s *subLinkValue) Scalar() (types.Value, error) {
	if err := s.load(); err != nil {
		return types.NullValue, err
	}
	switch len(s.rows) {
	case 0:
		return types.NewNull(s.kind), nil
	case 1:
		return s.rows[0][0], nil
	default:
		return types.NullValue, fmt.Errorf("scalar subquery returned %d rows", len(s.rows))
	}
}

func (s *subLinkValue) Exists() (bool, error) {
	if err := s.load(); err != nil {
		return false, err
	}
	return len(s.rows) > 0, nil
}

func (s *subLinkValue) CompareAny(test types.Value, op string) (types.Tri, error) {
	if err := s.load(); err != nil {
		return types.TriNull, err
	}
	if len(s.rows) == 0 {
		return types.TriFalse, nil
	}
	if test.Null {
		return types.TriNull, nil
	}
	sawNull := false
	for _, r := range s.rows {
		v := r[0]
		if v.Null {
			sawNull = true
			continue
		}
		if !types.Comparable(test.K, v.K) {
			return types.TriNull, fmt.Errorf("cannot compare %s with %s", test.K, v.K)
		}
		if types.CmpSatisfies(types.Compare(test, v), op) {
			return types.TriTrue, nil
		}
	}
	if sawNull {
		return types.TriNull, nil
	}
	return types.TriFalse, nil
}

func (s *subLinkValue) CompareAll(test types.Value, op string) (types.Tri, error) {
	if err := s.load(); err != nil {
		return types.TriNull, err
	}
	if len(s.rows) == 0 {
		return types.TriTrue, nil
	}
	if test.Null {
		return types.TriNull, nil
	}
	sawNull := false
	for _, r := range s.rows {
		v := r[0]
		if v.Null {
			sawNull = true
			continue
		}
		if !types.Comparable(test.K, v.K) {
			return types.TriNull, fmt.Errorf("cannot compare %s with %s", test.K, v.K)
		}
		if !types.CmpSatisfies(types.Compare(test, v), op) {
			return types.TriFalse, nil
		}
	}
	if sawNull {
		return types.TriNull, nil
	}
	return types.TriTrue, nil
}
