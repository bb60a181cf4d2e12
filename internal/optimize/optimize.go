// Package optimize implements a rule-based logical optimizer over
// analyzed (and provenance-rewritten) query trees. It runs between the
// provenance rewriter (package provrewrite) and the planner (package
// plan), normalizing the deeply nested subquery shells the paper's
// rewrite rules deliberately produce — the paper (§VI) relies on the
// PostgreSQL optimizer to flatten exactly these shapes before execution.
//
// One bottom-up worklist drives the rules to a fixpoint: subqueries first,
// and a node again only when it, one of its subqueries or a subquery's
// estimate changed, so the work is proportional to the tree. Rules:
//
//   - Subquery unnesting: a range-table subquery that is a plain
//     select-project-join block is merged into its parent by substituting
//     its target expressions into the parent's expressions and splicing
//     its FROM clause into the parent's join tree.
//   - Predicate pushdown: single-entry WHERE conjuncts move through
//     subquery boundaries into the subquery's own WHERE clause (including
//     through set operations and, for grouping columns, aggregations).
//   - Projection pruning: target-list entries of a subquery that the
//     parent never references are removed, shrinking the rows carried
//     through intermediate projections.
//   - Redundant DISTINCT elimination and no-op projection collapse.
//
// Every rule is semantics-preserving on bag level, so results (including
// duplicate multiplicities and provenance attributes) are identical with
// the optimizer on or off; engine-level tests assert this over the full
// SQL-logic and rewrite-rule corpora.
package optimize

import (
	"sort"
	"strconv"

	"perm/internal/algebra"
)

// outputRT is the pseudo range-table index the analyzer uses for Vars
// that reference a query's own output columns (ORDER BY positions).
const outputRT = -1

// Stats provides optional base-table cardinalities for the join-tree
// canonicalization. When present, the implicit join list of every plain
// block is ordered by estimated cardinality (smallest first) instead of
// syntactic order, giving the planner's greedy join ordering a
// stats-driven starting point and deterministic tie-breaking.
type Stats interface {
	// TableRows returns the current row count of a base table.
	TableRows(name string) (float64, bool)
}

// Query optimizes the tree to a fixpoint and returns the (possibly
// replaced) root. The input is mutated in place.
func Query(q *algebra.Query) *algebra.Query { return QueryWithStats(q, nil) }

// QueryWithStats is Query with base-table statistics available to the
// cardinality-driven rules (join-list ordering).
func QueryWithStats(q *algebra.Query, st Stats) *algebra.Query {
	if q == nil {
		return nil
	}
	o := &optimizer{st: st, visited: make(map[*algebra.Query]openWork), cards: make(map[*algebra.Query]float64)}
	for open := true; open; {
		q, _, open = o.visit(q)
	}
	return q
}

// optimizer is one run over one tree, in rounds of bottom-up walks.
type optimizer struct {
	st Stats
	// visited holds the nodes whose rules last ran without effect and have
	// seen nothing new since, with what is still open below them. A node
	// not in it is due: never visited, changed by its own rules, or reached
	// into by a rule of its parent (pushdown, pruning, collapse).
	visited map[*algebra.Query]openWork
	// cards memoizes queryCard; an entry goes when its node is reached
	// into and is refreshed by a visit that may have moved it.
	cards map[*algebra.Query]float64
}

// openWork says where under a node rules still have to run; sublink
// subqueries apart, since finding them means walking the expressions.
type openWork struct{ subqueries, sublinks bool }

// visit runs one round over q's subtree: subqueries first, then q's rules
// if q is due or a subquery changed. It returns the possibly replaced node,
// whether the parent's rules have news to look at, and whether the subtree
// needs another round.
func (o *optimizer) visit(q *algebra.Query) (_ *algebra.Query, changed, open bool) {
	was, clean := o.visited[q]
	if clean && !was.subqueries && !was.sublinks {
		return q, false, false
	}
	var below openWork
	sub := func(slot **algebra.Query, stillOpen *bool) {
		var c, op bool
		*slot, c, op = o.visit(*slot)
		changed, *stillOpen = changed || c, *stillOpen || op
	}
	for _, rte := range q.RangeTable {
		if rte.Subquery != nil && (!clean || was.subqueries) {
			sub(&rte.Subquery, &below.subqueries)
		}
	}
	if !clean || was.sublinks {
		q.VisitExprs(func(e algebra.Expr) {
			algebra.WalkExpr(e, func(x algebra.Expr) {
				if sl, ok := x.(*algebra.SubLink); ok && sl.Query != nil {
					sub(&sl.Query, &below.sublinks)
				}
			})
		})
	}
	open = below.subqueries || below.sublinks
	o.visited[q] = below
	if q.IsSetOp() {
		// Pure scaffolding over its branches: no rules of its own, and a
		// parent's pushdown looks through it to them.
		delete(o.cards, q)
		return q, changed, open
	}
	if clean && !changed {
		return q, false, open
	}
	if changed = o.rules(q); changed {
		delete(o.visited, q)
		open = true
	}
	if merged, ok := collapseIdentity(q); ok {
		delete(o.visited, merged)
		return merged, true, true
	}
	if o.st != nil {
		// Of changes further down the parent's join-list order only has
		// to hear if they moved this node's estimate.
		old, had := o.cards[q]
		delete(o.cards, q)
		changed = changed || !had || o.queryCard(q) != old
	}
	return q, changed, open
}

// reachInto notes that a rule of the parent changed the node.
func (o *optimizer) reachInto(q *algebra.Query) {
	delete(o.visited, q)
	delete(o.cards, q)
}

// rules runs the local rules once over a plain node; true if any of them
// changed it or reached into a subquery.
func (o *optimizer) rules(q *algebra.Query) bool {
	changed := flattenInnerJoins(q)
	for unnestAll(q) {
		changed = true
	}
	changed = o.pushDownPredicates(q) || changed
	changed = o.pruneNode(q) || changed
	changed = dropRedundantDistinct(q) || changed
	return o.orderJoinList(q) || changed
}

// ---------------------------------------------------------------------------
// Stats-driven join-list ordering

// orderJoinList stable-sorts the implicit join list by estimated
// cardinality, smallest first. The list is commutable by construction
// (flattenInnerJoins only hoists inner/cross joins into it), so the
// reorder is semantics-preserving; it canonicalizes the order the
// planner's greedy join ordering starts from, so equally-costed plans no
// longer depend on how the rewriter happened to nest its shells.
func (o *optimizer) orderJoinList(q *algebra.Query) bool {
	if o.st == nil || len(q.From) < 2 {
		return false
	}
	cards := make(map[algebra.FromItem]float64, len(q.From))
	for _, fi := range q.From {
		cards[fi] = o.fromItemCard(fi, q)
	}
	sorted := true
	for i := 1; i < len(q.From); i++ {
		if cards[q.From[i]] < cards[q.From[i-1]] {
			sorted = false
			break
		}
	}
	if sorted {
		return false
	}
	sort.SliceStable(q.From, func(i, j int) bool {
		return cards[q.From[i]] < cards[q.From[j]]
	})
	return true
}

// fromItemCard estimates the cardinality of one FROM item. Join trees
// (outer joins, whose shape is load-bearing) estimate as the product of
// their sides.
func (o *optimizer) fromItemCard(fi algebra.FromItem, q *algebra.Query) float64 {
	switch n := fi.(type) {
	case *algebra.FromRef:
		if n.RT < len(q.RangeTable) {
			return o.rteCard(q.RangeTable[n.RT])
		}
	case *algebra.FromJoin:
		return o.fromItemCard(n.Left, q) * o.fromItemCard(n.Right, q)
	}
	return 1000
}

func (o *optimizer) rteCard(rte *algebra.RTE) float64 {
	switch rte.Kind {
	case algebra.RTERelation:
		if rows, ok := o.st.TableRows(rte.RelName); ok {
			return rows + 1
		}
	case algebra.RTESubquery:
		return o.queryCard(rte.Subquery)
	case algebra.RTEValues:
		return float64(len(rte.Rows)) + 1
	}
	return 1000
}

// queryCard crudely estimates a subquery's output cardinality: product
// of its FROM items, damped per WHERE conjunct, collapsed by
// aggregation, capped by LIMIT. The planner re-estimates precisely; this
// only has to rank siblings.
func (o *optimizer) queryCard(q *algebra.Query) float64 {
	if q == nil {
		return 1000
	}
	card, ok := o.cards[q]
	if !ok {
		card = o.estimate(q)
		o.cards[q] = card
	}
	return card
}

func (o *optimizer) estimate(q *algebra.Query) float64 {
	if q.IsSetOp() {
		total := 0.0
		for _, rte := range q.RangeTable {
			total += o.queryCard(rte.Subquery)
		}
		return total
	}
	card := 1.0
	for _, fi := range q.From {
		card *= o.fromItemCard(fi, q)
	}
	for range algebra.Conjuncts(q.Where) {
		card *= 0.5
	}
	if q.HasAggs {
		if len(q.GroupBy) == 0 {
			card = 1
		} else {
			card = card/2 + 1
		}
	}
	if c, ok := q.Limit.(*algebra.Const); ok && !c.Val.Null && float64(c.Val.I) < card {
		card = float64(c.Val.I)
	}
	if card < 1 {
		card = 1
	}
	return card
}

// ---------------------------------------------------------------------------
// Join-tree canonicalization

// flattenInnerJoins hoists top-level inner/cross join trees of the FROM
// clause into the implicit join list, moving their ON conditions into
// WHERE. An inner join's condition is equivalent to a WHERE conjunct, and
// the planner's greedy join ordering considers every order over the
// implicit list rather than the literal tree. Outer-join subtrees are
// kept intact (their shape is semantically load-bearing).
func flattenInnerJoins(q *algebra.Query) bool {
	changed := false
	var items []algebra.FromItem
	var conds []algebra.Expr
	var flatten func(fi algebra.FromItem)
	flatten = func(fi algebra.FromItem) {
		if j, ok := fi.(*algebra.FromJoin); ok &&
			(j.Kind == algebra.JoinInner || j.Kind == algebra.JoinCross) {
			flatten(j.Left)
			flatten(j.Right)
			if j.Cond != nil {
				conds = append(conds, j.Cond)
			}
			changed = true
			return
		}
		items = append(items, fi)
	}
	for _, fi := range q.From {
		flatten(fi)
	}
	if !changed {
		return false
	}
	q.From = items
	q.Where = algebra.AndAll(append([]algebra.Expr{q.Where}, conds...))
	return true
}

// ---------------------------------------------------------------------------
// Subquery unnesting

// isSimpleSPJ reports whether the node is a plain select-project-join
// block that can be merged into a parent: no aggregation, grouping,
// HAVING, DISTINCT, set operation, ordering or limit, and a non-empty
// FROM clause.
func isSimpleSPJ(q *algebra.Query) bool {
	return q != nil && !q.IsSetOp() && !q.HasAggs && len(q.GroupBy) == 0 &&
		q.Having == nil && !q.Distinct && q.Limit == nil && q.Offset == nil &&
		len(q.OrderBy) == 0 && len(q.From) > 0
}

// refSite describes where a range-table entry sits in the FROM forest:
// how many outer-join nullable boundaries separate it from the top, and
// (when exactly one does) the join whose condition gates it.
type refSite struct {
	crossings int
	gate      *algebra.FromJoin
}

func locateRef(items []algebra.FromItem, rt int) *refSite {
	for _, fi := range items {
		if s := locateIn(fi, rt); s != nil {
			return s
		}
	}
	return nil
}

func locateIn(fi algebra.FromItem, rt int) *refSite {
	switch n := fi.(type) {
	case *algebra.FromRef:
		if n.RT == rt {
			return &refSite{}
		}
	case *algebra.FromJoin:
		if s := locateIn(n.Left, rt); s != nil {
			if n.Kind == algebra.JoinRight || n.Kind == algebra.JoinFull {
				s.crossings++
				s.gate = n
			}
			return s
		}
		if s := locateIn(n.Right, rt); s != nil {
			if n.Kind == algebra.JoinLeft || n.Kind == algebra.JoinFull {
				s.crossings++
				s.gate = n
			}
			return s
		}
	}
	return nil
}

// allVarTargets reports whether every target entry is a plain column
// reference. Required when merging into the nullable side of an outer
// join: a Var passes the join's null-extension through unchanged, while
// e.g. a constant would stop evaluating to NULL for unmatched rows.
func allVarTargets(q *algebra.Query) bool {
	for _, te := range q.TargetList {
		if _, ok := te.Expr.(*algebra.Var); !ok {
			return false
		}
	}
	return true
}

// unnestAll merges every eligible subquery entry of q's range table as it
// stands into q, in range-table order, and reports whether it merged any
// (the entries a merge appends are the next call's to look at). A child's
// entries join q's range table, q's references to its outputs become its
// target expressions — one rewrite of q's expressions for all children —
// its FROM clause takes the place of the subquery reference, and its WHERE
// clause conjoins into q's (on the nullable side of an outer join, into
// that join's condition).
func unnestAll(q *algebra.Query) bool {
	type merge struct {
		rt, base int
		site     *refSite
	}
	var merges []merge
	for rt, rte := range q.RangeTable {
		if rte.Kind != algebra.RTESubquery || !isSimpleSPJ(rte.Subquery) {
			continue
		}
		site := locateRef(q.From, rt)
		if site == nil || site.crossings > 1 {
			continue
		}
		if site.crossings == 1 &&
			(site.gate.Kind == algebra.JoinFull || !allVarTargets(rte.Subquery)) {
			continue
		}
		merges = append(merges, merge{rt: rt, site: site})
	}
	if len(merges) == 0 {
		return false
	}

	// A child's entries keep their aliases unless one is taken by an entry
	// already there — other than the child's own, which is going away.
	seen := make(map[string]bool, len(q.RangeTable))
	for _, r := range q.RangeTable {
		seen[r.Alias] = true
	}
	base := make([]int, len(q.RangeTable)) // of a merged entry: where its child's entries start
	for i := range merges {
		m := &merges[i]
		own := q.RangeTable[m.rt]
		m.base = len(q.RangeTable)
		delete(seen, own.Alias)
		for _, r := range own.Subquery.RangeTable {
			r.Alias = uniqueAlias(r.Alias, seen)
			q.RangeTable = append(q.RangeTable, r)
		}
		seen[own.Alias] = true
		base[m.rt] = m.base
	}
	q.MapOwnExprs(func(x algebra.Expr) algebra.Expr {
		if v, ok := x.(*algebra.Var); ok && v.RT >= 0 && v.RT < len(base) && base[v.RT] > 0 {
			return shiftVars(q.RangeTable[v.RT].Subquery.TargetList[v.Col].Expr, base[v.RT])
		}
		return x
	})

	for _, m := range merges {
		child := q.RangeTable[m.rt].Subquery
		shifted := make([]algebra.FromItem, len(child.From))
		for i, fi := range child.From {
			shifted[i] = shiftFromItem(fi, m.base)
		}
		spliced := false
		for i, fi := range q.From {
			// A direct member of the implicit join list splices in as more
			// list members, keeping the planner free to greedy-order them.
			if r, ok := fi.(*algebra.FromRef); ok && r.RT == m.rt {
				q.From = append(q.From[:i], append(shifted, q.From[i+1:]...)...)
				spliced = true
				break
			}
		}
		if !spliced {
			// Inside a join tree the child must stay a single unit; fold its
			// items into a cross-join chain at the reference's position.
			childFrom := shifted[0]
			for _, sh := range shifted[1:] {
				childFrom = &algebra.FromJoin{Kind: algebra.JoinCross, Left: childFrom, Right: sh}
			}
			algebra.ReplaceFromRef(q.From, m.rt, childFrom)
		}
		if child.Where != nil {
			where := shiftVars(child.Where, m.base)
			if m.site.crossings == 1 {
				m.site.gate.Cond = algebra.AndAll([]algebra.Expr{m.site.gate.Cond, where})
			} else {
				q.Where = algebra.AndAll([]algebra.Expr{q.Where, where})
			}
		}
	}
	// The merged entries are now unreferenced; pruneNode reclaims them.
	return true
}

// shiftVars copies the expression with every range-table reference moved
// up by base: a merged child's expression in its parent's numbering.
func shiftVars(e algebra.Expr, base int) algebra.Expr {
	return algebra.MapExpr(e, func(x algebra.Expr) algebra.Expr {
		if v, ok := x.(*algebra.Var); ok && v.RT >= 0 {
			v.RT += base
		}
		return x
	})
}

func shiftFromItem(fi algebra.FromItem, base int) algebra.FromItem {
	switch n := fi.(type) {
	case *algebra.FromRef:
		return &algebra.FromRef{RT: n.RT + base}
	case *algebra.FromJoin:
		out := &algebra.FromJoin{
			Kind:  n.Kind,
			Left:  shiftFromItem(n.Left, base),
			Right: shiftFromItem(n.Right, base),
		}
		if n.Cond != nil {
			out.Cond = shiftVars(n.Cond, base)
		}
		return out
	default:
		return fi
	}
}

func uniqueAlias(alias string, seen map[string]bool) string {
	out := alias
	for n := 2; seen[out]; n++ {
		out = alias + "_" + strconv.Itoa(n)
	}
	seen[out] = true
	return out
}

// ---------------------------------------------------------------------------
// Predicate pushdown

// pushDownPredicates moves WHERE conjuncts that reference exactly one
// subquery entry into that subquery's own WHERE clause. Entries on the
// nullable side of an outer join are excluded (the filter must see the
// null-extended rows), as are conjuncts with sublinks (kept above joins
// so subplans are evaluated as rarely as possible).
func (o *optimizer) pushDownPredicates(q *algebra.Query) bool {
	if q.Where == nil {
		return false
	}
	changed := false
	var kept []algebra.Expr
	for _, c := range algebra.Conjuncts(q.Where) {
		rt, ok := soleRT(c)
		if !ok || rt >= len(q.RangeTable) {
			kept = append(kept, c)
			continue
		}
		rte := q.RangeTable[rt]
		if rte.Kind != algebra.RTESubquery {
			kept = append(kept, c)
			continue
		}
		site := locateRef(q.From, rt)
		if site == nil || site.crossings != 0 || !o.pushInto(rte.Subquery, c, rt, true) {
			kept = append(kept, c)
			continue
		}
		o.pushInto(rte.Subquery, c, rt, false)
		changed = true
	}
	if changed {
		q.Where = algebra.AndAll(kept)
	}
	return changed
}

// soleRT returns the single range-table index the expression references,
// if it references exactly one entry of the node and holds no sublink.
func soleRT(e algebra.Expr) (int, bool) {
	rt, sole := -1, true
	algebra.WalkExpr(e, func(x algebra.Expr) {
		switch n := x.(type) {
		case *algebra.Var:
			if rt < 0 {
				rt = n.RT
			}
			sole = sole && n.RT == rt
		case *algebra.SubLink:
			sole = false
		}
	})
	return rt, sole && rt >= 0
}

// pushInto pushes a parent predicate over entry rt into the child's WHERE
// clause. Set-operation children receive the predicate in every branch
// (filters distribute over union, intersection and difference);
// aggregated children accept only predicates over projected grouping
// expressions. With dryRun the eligibility check runs without mutating,
// which the all-branches-or-nothing set-operation case needs.
func (o *optimizer) pushInto(child *algebra.Query, pred algebra.Expr, rt int, dryRun bool) bool {
	if child == nil || child.Limit != nil || child.Offset != nil {
		return false
	}
	if child.IsSetOp() {
		for _, rte := range child.RangeTable {
			if rte.Kind != algebra.RTESubquery || !o.pushInto(rte.Subquery, pred, rt, true) {
				return false
			}
		}
		if !dryRun {
			o.reachInto(child)
			for _, rte := range child.RangeTable {
				o.pushInto(rte.Subquery, pred, rt, false)
			}
		}
		return true
	}
	if child.HasAggs {
		ok := true
		algebra.WalkExpr(pred, func(x algebra.Expr) {
			v, isVar := x.(*algebra.Var)
			if !isVar || v.RT != rt || !ok {
				return
			}
			te := child.TargetList[v.Col].Expr
			if algebra.ContainsAgg(te) || !exprInList(te, child.GroupBy) {
				ok = false
			}
		})
		if !ok {
			return false
		}
	}
	if dryRun {
		return true
	}
	o.reachInto(child)
	mapped := algebra.SubstituteVars(pred, func(v *algebra.Var) algebra.Expr {
		if v.RT != rt {
			return nil
		}
		return algebra.CopyExpr(child.TargetList[v.Col].Expr)
	})
	child.Where = algebra.AndAll([]algebra.Expr{child.Where, mapped})
	return true
}

func exprInList(e algebra.Expr, list []algebra.Expr) bool {
	for _, l := range list {
		if algebra.EqualExpr(e, l) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Projection pruning

// pruneNode drops the range-table entries of q that neither the FROM
// forest nor any expression references any longer, and trims the
// target-list entries of q's subqueries that q never reads: one
// column-use index of q's expressions serves both, and one rewrite
// renumbers q's references for both. DISTINCT and set-operation children
// keep their columns (dropping one changes row multiplicities); the root's
// target list is never touched since pruning is always parent-driven.
func (o *optimizer) pruneNode(q *algebra.Query) bool {
	uses := q.ColumnUses()
	var inFrom algebra.Bits
	for _, fi := range q.From {
		algebra.FromRTs(fi, &inFrom)
	}
	// Old position to new (-1: dropped); new position to its column remap.
	newRT := make([]int, len(q.RangeTable))
	newCol := make([][]int, 0, len(q.RangeTable))
	var kept []*algebra.RTE
	changed := false
	for rt, rte := range q.RangeTable {
		if !inFrom.Has(rt) && uses[rt].Empty() {
			newRT[rt] = -1
			changed = true
			continue
		}
		newRT[rt] = len(kept)
		kept = append(kept, rte)
		remap := pruneColumns(rte, uses[rt])
		newCol = append(newCol, remap)
		if remap != nil {
			o.reachInto(rte.Subquery)
			changed = true
		}
	}
	if !changed {
		return false
	}
	if len(kept) < len(q.RangeTable) {
		q.RangeTable = kept
		algebra.RenumberFrom(q.From, newRT)
	}
	q.MapOwnExprs(func(x algebra.Expr) algebra.Expr {
		if v, ok := x.(*algebra.Var); ok && v.RT >= 0 {
			v.RT = newRT[v.RT]
			if remap := newCol[v.RT]; remap != nil {
				v.Col = remap[v.Col]
			}
		}
		return x
	})
	return true
}

// pruneColumns trims a subquery entry's target list to the columns in used
// and returns the old-to-new column remap, nil when every column stays.
func pruneColumns(rte *algebra.RTE, used algebra.Bits) []int {
	child := rte.Subquery
	if rte.Kind != algebra.RTESubquery || child == nil || child.IsSetOp() || child.Distinct {
		return nil
	}
	// ORDER BY entries naming output positions pin those columns.
	for _, si := range child.OrderBy {
		if v, ok := si.Expr.(*algebra.Var); ok && v.RT == outputRT {
			used = used.Union(algebra.BitsOf(v.Col))
		}
	}
	if used.Empty() {
		used = algebra.BitsOf(0) // keep one column: the entry still drives cardinality
	}
	if used.Len() >= len(child.TargetList) {
		return nil
	}
	remap := make([]int, len(child.TargetList))
	var newTL []algebra.TargetEntry
	for i, te := range child.TargetList {
		if used.Has(i) {
			remap[i] = len(newTL)
			newTL = append(newTL, te)
		} else {
			remap[i] = -1
		}
	}
	child.TargetList = newTL
	for i := range child.OrderBy {
		if v, ok := child.OrderBy[i].Expr.(*algebra.Var); ok && v.RT == outputRT {
			nv := *v
			nv.Col = remap[v.Col]
			child.OrderBy[i].Expr = &nv
		}
	}
	child.ProvCols = remapProvCols(child.ProvCols, remap)
	rte.ProvCols = remapProvCols(rte.ProvCols, remap)
	rte.Cols = child.Schema()
	return remap
}

// remapProvCols returns the provenance columns that survive the remap, in
// a slice of their own: a subquery and its entry may share the list.
func remapProvCols(pcs []algebra.ProvCol, remap []int) []algebra.ProvCol {
	if pcs == nil {
		return nil
	}
	out := make([]algebra.ProvCol, 0, len(pcs))
	for _, pc := range pcs {
		if pc.Col < len(remap) && remap[pc.Col] >= 0 {
			out = append(out, algebra.ProvCol{Col: remap[pc.Col], Name: pc.Name})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// DISTINCT elimination and identity collapse

// dropRedundantDistinct clears the DISTINCT flag when the input rows are
// provably pairwise distinct already: a grouped aggregation that projects
// every grouping expression, or a pass-through projection covering every
// column of a single already-distinct subquery.
func dropRedundantDistinct(q *algebra.Query) bool {
	if !q.Distinct {
		return false
	}
	if q.HasAggs && len(q.GroupBy) > 0 && groupKeysProjected(q) {
		q.Distinct = false
		return true
	}
	if q.HasAggs || len(q.GroupBy) > 0 || len(q.From) != 1 {
		return false
	}
	fr, ok := q.From[0].(*algebra.FromRef)
	if !ok {
		return false
	}
	rte := q.RangeTable[fr.RT]
	if rte.Kind != algebra.RTESubquery || !distinctOutput(rte.Subquery) {
		return false
	}
	covered := make(map[int]bool)
	for _, te := range q.TargetList {
		if v, ok := te.Expr.(*algebra.Var); ok && v.RT == fr.RT {
			covered[v.Col] = true
		}
	}
	if len(covered) < len(rte.Cols) {
		return false
	}
	q.Distinct = false
	return true
}

func groupKeysProjected(q *algebra.Query) bool {
	for _, g := range q.GroupBy {
		found := false
		for _, te := range q.TargetList {
			if algebra.EqualExpr(te.Expr, g) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// distinctOutput reports whether the node's output rows are provably
// pairwise distinct.
func distinctOutput(q *algebra.Query) bool {
	switch {
	case q == nil:
		return false
	case q.IsSetOp():
		return !q.SetOp.All // set-semantics result is deduplicated at the top
	case q.Distinct:
		return true
	case q.HasAggs && len(q.GroupBy) == 0:
		return true // single row
	case q.HasAggs && groupKeysProjected(q):
		return true // one row per group, all keys projected
	default:
		return false
	}
}

// collapseIdentity replaces a bare pass-through projection (SELECT every
// column of a single subquery, in order, with no other clauses) with the
// subquery itself, keeping the wrapper's column names, provenance list
// and ordering.
func collapseIdentity(q *algebra.Query) (*algebra.Query, bool) {
	if q.IsSetOp() || q.HasAggs || q.Distinct || q.Where != nil ||
		len(q.GroupBy) > 0 || q.Having != nil || q.Limit != nil ||
		q.Offset != nil || len(q.From) != 1 {
		return q, false
	}
	fr, ok := q.From[0].(*algebra.FromRef)
	if !ok {
		return q, false
	}
	rte := q.RangeTable[fr.RT]
	if rte.Kind != algebra.RTESubquery {
		return q, false
	}
	child := rte.Subquery
	if len(q.TargetList) != len(child.TargetList) {
		return q, false
	}
	for i, te := range q.TargetList {
		v, ok := te.Expr.(*algebra.Var)
		if !ok || v.RT != fr.RT || v.Col != i {
			return q, false
		}
	}
	if len(q.OrderBy) > 0 {
		// The wrapper's ordering becomes the child's; a child LIMIT would
		// have to apply before that ordering, which the child node cannot
		// express.
		if child.Limit != nil || child.Offset != nil {
			return q, false
		}
		lifted := make([]algebra.SortItem, 0, len(q.OrderBy))
		for _, si := range q.OrderBy {
			v, ok := si.Expr.(*algebra.Var)
			if !ok || (v.RT != outputRT && v.RT != fr.RT) {
				return q, false
			}
			lifted = append(lifted, algebra.SortItem{
				Expr: &algebra.Var{RT: outputRT, Col: v.Col, Name: v.Name, Typ: v.Typ},
				Desc: si.Desc,
			})
		}
		child.OrderBy = lifted
	}
	for i := range child.TargetList {
		child.TargetList[i].Name = q.TargetList[i].Name
	}
	child.ProvCols = q.ProvCols
	return child, true
}
