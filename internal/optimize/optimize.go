// Package optimize implements a rule-based logical optimizer over
// analyzed (and provenance-rewritten) query trees. It runs between the
// provenance rewriter (package provrewrite) and the planner (package
// plan), normalizing the deeply nested subquery shells the paper's
// rewrite rules deliberately produce — the paper (§VI) relies on the
// PostgreSQL optimizer to flatten exactly these shapes before execution.
//
// One bottom-up worklist drives the rules to a fixpoint: subqueries first,
// and a node again only when it or one of its subqueries changed, so the
// work is proportional to the tree. The rules read the tree alone, not
// table statistics: join order is the planner's. Rules:
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
	"strconv"

	"perm/internal/algebra"
	"perm/internal/vexec"
)

// outputRT is the pseudo range-table index the analyzer uses for Vars
// that reference a query's own output columns (ORDER BY positions).
const outputRT = -1

// Stats is what the benchmark's shadow pipeline hands QueryWithStats.
// The optimizer reads no statistics: join order is the planner's, on its
// own per-column estimates. Stats and QueryWithStats go with the shadow.
type Stats interface {
	TableRows(name string) (float64, bool)
}

// Query optimizes the tree to a fixpoint and returns the (possibly
// replaced) root. The input is mutated in place. The result depends on
// the tree alone: neither the data nor the engine that runs it.
func Query(q *algebra.Query) *algebra.Query {
	if q == nil {
		return nil
	}
	o := &optimizer{visited: make(map[*algebra.Query]openWork)}
	for open := true; open; {
		q, _, open = o.visit(q)
	}
	return q
}

// QueryWithStats is Query; the statistics are ignored.
func QueryWithStats(q *algebra.Query, _ Stats) *algebra.Query { return Query(q) }

// optimizer is one run over one tree, in rounds of bottom-up walks.
type optimizer struct {
	// visited holds the nodes whose rules last ran without effect and have
	// seen nothing new since, with what is still open below them. A node
	// not in it is due: never visited, changed by its own rules, or reached
	// into by a rule of its parent (pushdown, pruning, collapse).
	visited map[*algebra.Query]openWork
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
	return q, changed, open
}

// reachInto notes that a rule of the parent changed the node.
func (o *optimizer) reachInto(q *algebra.Query) {
	delete(o.visited, q)
}

// rules runs the local rules once over a plain node; true if any of them
// changed it or reached into a subquery.
func (o *optimizer) rules(q *algebra.Query) bool {
	if q.JoinBack.Shared() {
		q.JoinBack.Reason = shareReason(q)
	}
	changed := flattenInnerJoins(q)
	for unnestAll(q) {
		changed = true
	}
	changed = o.pushDownPredicates(q) || changed
	changed = o.pruneNode(q) || changed
	return dropRedundantDistinct(q) || changed
}

// shareReason says why q's rule-R5 pair is not kept intact (neither merged
// into its parent nor taking T+ apart) for one evaluation of T+ to serve
// both sides, which takes one block the batch engine runs; "" if it is.
// The row engine plans a kept pair two-sided (plan.planJoinBack).
func shareReason(q *algebra.Query) string {
	jb := q.JoinBack
	_, _, reason := jb.Shareable(q)
	if reason == "" && !vexec.Batchable(q.RangeTable[jb.Agg].Subquery, q.RangeTable[jb.Prov].Subquery) {
		reason = "row_engine"
	}
	return reason
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
		len(q.OrderBy) == 0 && len(q.From) > 0 && !q.JoinBack.Shared()
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
// that join's condition). The child is taken apart in place: its
// expressions are renumbered into q's numbering where they stand, and a
// target expression moves into the first reference to it; only further
// references copy it.
func unnestAll(q *algebra.Query) bool {
	type merge struct {
		rt, base int
		site     *refSite
		moved    algebra.Bits // target entries already moved into q
	}
	var merges []merge
	for rt, rte := range q.RangeTable {
		if rte.Kind != algebra.RTESubquery || !isSimpleSPJ(rte.Subquery) || q.JoinBack.Shared() {
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
	merged := make([]int, len(q.RangeTable)) // of a merged entry: 1 + its index in merges
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
		merged[m.rt] = i + 1
		shiftVars(own.Subquery, m.base)
	}
	q.EditOwnExprs(func(x algebra.Expr) algebra.Expr {
		v, ok := x.(*algebra.Var)
		if !ok || v.RT < 0 || v.RT >= len(merged) || merged[v.RT] == 0 {
			return x
		}
		m := &merges[merged[v.RT]-1]
		te := q.RangeTable[v.RT].Subquery.TargetList[v.Col].Expr
		if m.moved.Has(v.Col) {
			return algebra.CopyExpr(te)
		}
		m.moved.Add(v.Col)
		return te
	})

	for _, m := range merges {
		child := q.RangeTable[m.rt].Subquery
		spliced := false
		for i, fi := range q.From {
			// A direct member of the implicit join list splices in as more
			// list members, keeping the planner free to greedy-order them.
			if r, ok := fi.(*algebra.FromRef); ok && r.RT == m.rt {
				q.From = append(q.From[:i], append(child.From, q.From[i+1:]...)...)
				spliced = true
				break
			}
		}
		if !spliced {
			// Inside a join tree the child must stay a single unit; fold its
			// items into a cross-join chain at the reference's position.
			childFrom := child.From[0]
			for _, sh := range child.From[1:] {
				childFrom = &algebra.FromJoin{Kind: algebra.JoinCross, Left: childFrom, Right: sh}
			}
			algebra.ReplaceFromRef(q.From, m.rt, childFrom)
		}
		if child.Where != nil {
			if m.site.crossings == 1 {
				m.site.gate.Cond = algebra.AndAll([]algebra.Expr{m.site.gate.Cond, child.Where})
			} else {
				q.Where = algebra.AndAll([]algebra.Expr{q.Where, child.Where})
			}
		}
	}
	// The merged entries are now unreferenced; pruneNode reclaims them.
	return true
}

// shiftVars moves every range-table reference of the block, its own
// expressions' and its FROM clause's, up by base, in place: a merged child
// in its parent's numbering.
func shiftVars(q *algebra.Query, base int) {
	q.EditOwnExprs(func(x algebra.Expr) algebra.Expr {
		if v, ok := x.(*algebra.Var); ok && v.RT >= 0 {
			v.RT += base
		}
		return x
	})
	for _, fi := range q.From {
		shiftFromRefs(fi, base)
	}
}

// shiftFromRefs moves the from-item tree's references up by base, in place.
func shiftFromRefs(fi algebra.FromItem, base int) {
	switch n := fi.(type) {
	case *algebra.FromRef:
		n.RT += base
	case *algebra.FromJoin:
		shiftFromRefs(n.Left, base)
		shiftFromRefs(n.Right, base)
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
	algebra.EachConjunct(q.Where, func(c algebra.Expr) {
		rt, ok := soleRT(c)
		if !ok || rt >= len(q.RangeTable) {
			kept = append(kept, c)
			return
		}
		// A shared join-back's sides must keep reading one block: neither
		// takes a conjunct the other does not.
		rte := q.RangeTable[rt]
		if rte.Kind != algebra.RTESubquery || q.JoinBack.Shared() {
			kept = append(kept, c)
			return
		}
		site := locateRef(q.From, rt)
		if site == nil || site.crossings != 0 || !o.pushInto(rte.Subquery, c, rt, true) {
			kept = append(kept, c)
			return
		}
		o.pushInto(rte.Subquery, c, rt, false)
		changed = true
	})
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
	for i, jb := 0, q.JoinBack; jb.Shared() && i < len(jb.AggCols); i++ {
		// A shared pair has no other entries: only its columns move.
		if r := newCol[jb.Agg]; r != nil {
			jb.AggCols[i] = r[jb.AggCols[i]]
		}
		if r := newCol[jb.Prov]; r != nil {
			jb.ProvCols[i] = r[jb.ProvCols[i]]
		}
	}
	if len(kept) < len(q.RangeTable) {
		q.RangeTable = kept
		algebra.RenumberFrom(q.From, newRT)
	}
	q.EditOwnExprs(func(x algebra.Expr) algebra.Expr {
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
			v.Col = remap[v.Col]
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
