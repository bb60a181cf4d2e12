// Package provrewrite implements the Perm provenance rewriter — the core
// contribution of the paper (§III-C, §IV-B..E). It transforms an analyzed
// query node q into a query node q+ that computes the same result extended
// with provenance attributes, propagating influence-contribution (Why-)
// provenance purely inside the relational model.
//
// The rewriter implements the rules of Fig. 3 on PostgreSQL-style query
// trees, distinguishing the three node cases of Fig. 6:
//
//	SPJ   — rewrite the range-table entries and append their provenance
//	        attributes to the target list (rules R1-R4 folded, §IV-B1).
//	ASPJ  — duplicate the node, strip aggregation from the duplicate,
//	        rewrite it, and join it back to the original aggregation on the
//	        grouping expressions (rule R5, §IV-B2).
//	SetOp — keep the original set operation and join it with the rewritten
//	        duplicates of its two top-level branches (rules R6-R9, variant
//	        Fig. 6(3b)).
//
// Uncorrelated sublinks are rewritten per §IV-E: the rewritten sublink
// query joins the outer query with a condition determined by the sublink's
// boolean context (conjunctive, negated, or disjunctive).
package provrewrite

import (
	"fmt"
	"strconv"

	"perm/internal/algebra"
	"perm/internal/types"
)

// Options is what the benchmark's shadow pipeline hands RewriteTree; the
// rewriter has no options. Options and RewriteTree go with the shadow.
type Options struct{}

// RewriteTree is Rewrite.
func RewriteTree(q *algebra.Query, _ Options) (*algebra.Query, error) { return Rewrite(q) }

// Rewriter rewrites query trees. A Rewriter carries the provenance
// attribute naming state (per-relation reference counters) for one
// top-level query, so provenance attribute names are unique "in the scope
// of q" (§III-B, footnote 2).
type Rewriter struct {
	relCount map[string]int
}

// New returns a rewriter.
func New() *Rewriter {
	return &Rewriter{relCount: make(map[string]int)}
}

// Rewrite walks the query tree and rewrites every node marked with
// SELECT PROVENANCE (traverseQueryTree of Fig. 7). It returns the possibly
// replaced root.
func Rewrite(q *algebra.Query) (*algebra.Query, error) {
	if q == nil {
		return nil, nil
	}
	if q.ProvenanceRequested {
		r := New()
		return r.RewriteNode(q)
	}
	// Recurse into range-table subqueries and sublinks.
	for _, rte := range q.RangeTable {
		if rte.Subquery == nil {
			continue
		}
		sub, err := Rewrite(rte.Subquery)
		if err != nil {
			return nil, err
		}
		if sub != rte.Subquery {
			rte.Subquery = sub
			rte.Cols = sub.Schema()
			if rte.ProvCols == nil {
				rte.ProvCols = sub.ProvCols
			}
		}
	}
	var walkErr error
	q.VisitExprs(func(e algebra.Expr) {
		algebra.WalkExpr(e, func(x algebra.Expr) {
			if walkErr != nil {
				return
			}
			if link, ok := x.(*algebra.SubLink); ok && link.Query != nil {
				sub, err := Rewrite(link.Query)
				if err != nil {
					walkErr = err
					return
				}
				link.Query = sub
			}
		})
	})
	if walkErr != nil {
		return nil, walkErr
	}
	return q, nil
}

// RewriteNode computes q+ for a single query node (rewriteQueryNode of
// Fig. 7), dispatching on the node's shape. The returned node's ProvCols
// is the P-list of the rewrite rules.
func (r *Rewriter) RewriteNode(q *algebra.Query) (*algebra.Query, error) {
	q.ProvenanceRequested = false
	switch {
	case q.Limit != nil || q.Offset != nil:
		return r.rewriteLimit(q)
	case q.IsSetOp():
		return r.rewriteSetOp(q)
	case q.HasAggs:
		return r.rewriteASPJ(q)
	default:
		return r.rewriteSPJ(q)
	}
}

// provName builds a provenance attribute name per §IV-A1: the prefix
// "prov_", the base relation name (numbered on repeated references), and
// the attribute name, joined by underscores.
func (r *Rewriter) provName(rel, attr string) string {
	return "prov_" + rel + "_" + attr
}

// relInstance returns the (possibly numbered) relation-name component for
// a fresh reference to rel.
func (r *Rewriter) relInstance(rel string) string {
	r.relCount[rel]++
	if n := r.relCount[rel]; n > 1 {
		return rel + "_" + strconv.Itoa(n)
	}
	return rel
}

// ---------------------------------------------------------------------------
// SPJ

// rewriteSPJ implements case 1 of §IV-B: q+ is q with every range-table
// entry rewritten and all provenance attributes appended to the target
// list. Where-clause sublinks are attached per §IV-E before the provenance
// targets are appended.
func (r *Rewriter) rewriteSPJ(q *algebra.Query) (*algebra.Query, error) {
	for _, rte := range q.RangeTable {
		if err := r.rewriteRTE(rte); err != nil {
			return nil, err
		}
	}
	if err := r.attachWhereSublinks(q); err != nil {
		return nil, err
	}
	r.appendProvTargets(q)
	return q, nil
}

// rewriteRTE rewrites one range-table entry, setting its ProvCols (the
// entry's P-list). Entries already carrying provenance (external provenance
// annotations, §IV-A3, or previously rewritten subqueries) are left
// untouched. BASERELATION entries and base relations use rule R1.
func (r *Rewriter) rewriteRTE(rte *algebra.RTE) error {
	if rte.ProvCols != nil {
		return nil // already rewritten or externally annotated
	}
	if rte.Kind == algebra.RTERelation || rte.BaseRelation {
		// Rule R1: duplicate the visible attributes under provenance names.
		// The duplication is logical: provenance targets reference the same
		// columns; the physical copy happens in the enclosing projection.
		name := rte.RelName
		if rte.Kind != algebra.RTERelation {
			name = rte.Alias
		}
		inst := r.relInstance(name)
		rte.ProvCols = make([]algebra.ProvCol, len(rte.Cols))
		for i, col := range rte.Cols {
			rte.ProvCols[i] = algebra.ProvCol{Col: i, Name: r.provName(inst, col.Name)}
		}
		return nil
	}
	if rte.Kind == algebra.RTESubquery {
		sub, err := r.RewriteNode(rte.Subquery)
		if err != nil {
			return err
		}
		rte.Subquery = sub
		rte.Cols = sub.Schema()
		rte.ProvCols = sub.ProvCols
		return nil
	}
	return fmt.Errorf("provenance rewrite: unsupported range table entry kind %d", rte.Kind)
}

// appendProvTargets appends the provenance attributes of every range-table
// entry (in range-table order — the I concatenation of Fig. 3) to the
// target list and records the node's P-list.
func (r *Rewriter) appendProvTargets(q *algebra.Query) {
	for rt, rte := range q.RangeTable {
		for _, pc := range rte.ProvCols {
			pos := len(q.TargetList)
			q.TargetList = append(q.TargetList, algebra.TargetEntry{
				Expr: &algebra.Var{RT: rt, Col: pc.Col, Name: pc.Name, Typ: rte.Cols[pc.Col].Type},
				Name: pc.Name,
			})
			q.ProvCols = append(q.ProvCols, algebra.ProvCol{Col: pos, Name: pc.Name})
		}
	}
}

// ---------------------------------------------------------------------------
// ASPJ (rule R5)

// rewriteASPJ implements case 2 of §IV-B: the original aggregation node
// Qagg is kept, a duplicate with aggregation stripped is rewritten, and a
// new top node joins the two on the grouping expressions.
func (r *Rewriter) rewriteASPJ(q *algebra.Query) (*algebra.Query, error) {
	origWidth := len(q.TargetList)

	// The duplicate d: strip aggregation, HAVING, DISTINCT and ordering;
	// its target list becomes the grouping expressions (Π_{G→Ĝ} of R5).
	d := algebra.CopyQuery(q)
	d.TargetList = nil
	d.Having = nil
	d.HasAggs = false
	d.Distinct = false
	d.OrderBy = nil
	groupBy := d.GroupBy
	d.GroupBy = nil
	for i, g := range groupBy {
		d.TargetList = append(d.TargetList, algebra.TargetEntry{
			Expr: g,
			Name: "group_expr_" + strconv.Itoa(i+1),
		})
	}
	if len(groupBy) == 0 {
		// No grouping: d must still be a valid query; project a constant.
		// The join condition below degenerates to TRUE (every input tuple
		// contributes to the single aggregate row).
		d.TargetList = []algebra.TargetEntry{{
			Expr: &algebra.Const{Val: types.NewInt(1)},
			Name: "group_dummy",
		}}
	}
	dPlus, err := r.rewriteSPJ(d)
	if err != nil {
		return nil, err
	}

	// Qagg: the original node, with grouping expressions appended as hidden
	// targets when not already projected, so the top node can join on them.
	qAgg := q
	havingSublinks := collectSublinkRefs(qAgg.Having)
	groupPos := make([]int, len(qAgg.GroupBy))
	for i, g := range qAgg.GroupBy {
		pos := -1
		for ti, te := range qAgg.TargetList {
			if ti < origWidth && algebra.EqualExpr(te.Expr, g) {
				pos = ti
				break
			}
		}
		if pos < 0 {
			pos = len(qAgg.TargetList)
			qAgg.TargetList = append(qAgg.TargetList, algebra.TargetEntry{
				Expr: algebra.CopyExpr(g),
				Name: "group_hidden_" + strconv.Itoa(i+1),
			})
		}
		groupPos[i] = pos
	}

	// Top node: Qagg ⋈ d+ on pairwise null-safe equality of the grouping
	// expressions. Null-safe equality keeps NULL groups associated with
	// their provenance (G = Ĝ in R5 is the grouping equivalence, which
	// treats NULLs as one group).
	top := &algebra.Query{}
	aggRTE := &algebra.RTE{
		Kind: algebra.RTESubquery, Alias: "perm_agg", Subquery: qAgg, Cols: qAgg.Schema(),
	}
	provRTE := &algebra.RTE{
		Kind: algebra.RTESubquery, Alias: "perm_agg_prov", Subquery: dPlus, Cols: dPlus.Schema(),
	}
	top.RangeTable = []*algebra.RTE{aggRTE, provRTE}
	var conds []algebra.Expr
	for i := range groupPos {
		conds = append(conds, &algebra.DistinctFrom{
			Not:   true,
			Left:  &algebra.Var{RT: 0, Col: groupPos[i], Name: aggRTE.Cols[groupPos[i]].Name, Typ: aggRTE.Cols[groupPos[i]].Type},
			Right: &algebra.Var{RT: 1, Col: i, Name: provRTE.Cols[i].Name, Typ: provRTE.Cols[i].Type},
		})
	}
	cond := algebra.AndAll(conds)
	if cond == nil {
		cond = &algebra.Const{Val: types.NewBool(true)}
	}
	// R5 is a left outer join. With a GROUP BY every group of Qagg has a
	// tuple behind it in d+, so the inner join says the same and plans
	// better; without one, Qagg yields its single row over an empty input
	// too, and that row must survive with NULL provenance.
	kind := algebra.JoinInner
	if len(groupBy) == 0 {
		kind = algebra.JoinLeft
	}
	top.From = []algebra.FromItem{&algebra.FromJoin{
		Kind:  kind,
		Left:  &algebra.FromRef{RT: 0},
		Right: &algebra.FromRef{RT: 1},
		Cond:  cond,
	}}
	// Project the original output columns and the provenance attributes.
	for i := 0; i < origWidth; i++ {
		top.TargetList = append(top.TargetList, algebra.TargetEntry{
			Expr: &algebra.Var{RT: 0, Col: i, Name: aggRTE.Cols[i].Name, Typ: aggRTE.Cols[i].Type},
			Name: aggRTE.Cols[i].Name,
		})
	}
	for _, pc := range dPlus.ProvCols {
		pos := len(top.TargetList)
		top.TargetList = append(top.TargetList, algebra.TargetEntry{
			Expr: &algebra.Var{RT: 1, Col: pc.Col, Name: pc.Name, Typ: provRTE.Cols[pc.Col].Type},
			Name: pc.Name,
		})
		top.ProvCols = append(top.ProvCols, algebra.ProvCol{Col: pos, Name: pc.Name})
	}

	// Tag the pair, so the optimizer and the planner can evaluate T once
	// for both sides instead of rediscovering the duplicate.
	top.JoinBack = &algebra.JoinBack{Agg: 0, Prov: 1, AggCols: groupPos, ProvCols: make([]int, len(groupPos))}
	for i := range groupPos {
		top.JoinBack.ProvCols[i] = i
	}

	// HAVING sublinks contribute their accessed tuples too (§IV-E); they
	// are attached at the top node. Scalar and EXISTS sublinks join on
	// TRUE (the whole subquery input contributes). Their entries join the
	// pair, which then stays two-sided.
	if len(havingSublinks) > 0 {
		top.JoinBack.Reason = "having_sublink"
		if err := r.attachSublinks(top, havingSublinks, func(link *algebra.SubLink, subRT int) (algebra.Expr, error) {
			return r.sublinkJoinCond(link, subRT, func(test algebra.Expr) (algebra.Expr, error) {
				return mapExprToOutputs(test, qAgg, 0)
			})
		}); err != nil {
			return nil, err
		}
	}

	// ORDER BY of the original aggregation orders the top node.
	top.OrderBy = liftOrderBy(aggRTE, 0, origWidth)
	qAgg.OrderBy = nil
	return top, nil
}

// liftOrderBy returns the ORDER BY of the node a top node wraps as its
// range-table entry rt, whose first width outputs the top node passes
// through, re-expressed for the top node: a key on an output column stays
// one, any other key is re-expressed over the node's outputs (as HAVING
// sublink tests are) or, where it cannot be, computed by the node as a
// hidden output column.
func liftOrderBy(rte *algebra.RTE, rt, width int) []algebra.SortItem {
	q := rte.Subquery
	var out []algebra.SortItem
	for _, si := range q.OrderBy {
		if v, ok := si.Expr.(*algebra.Var); ok && v.RT == -1 && v.Col < width {
			out = append(out, algebra.SortItem{
				Expr: &algebra.Var{RT: -1, Col: v.Col, Name: v.Name, Typ: v.Typ},
				Desc: si.Desc,
			})
			continue
		}
		key, err := mapExprToOutputs(si.Expr, q, rt)
		if err != nil {
			pos := len(q.TargetList)
			q.TargetList = append(q.TargetList, algebra.TargetEntry{
				Expr: algebra.CopyExpr(si.Expr),
				Name: "order_hidden_" + strconv.Itoa(len(out)+1),
			})
			rte.Cols = q.Schema()
			key = &algebra.Var{RT: rt, Col: pos, Name: rte.Cols[pos].Name, Typ: rte.Cols[pos].Type}
		}
		out = append(out, algebra.SortItem{Expr: key, Desc: si.Desc})
	}
	return out
}

// mapExprToOutputs rewrites an expression over q's internals into one over
// q's output columns (Vars on the wrapping node's range-table entry rt),
// by structural matching against q's target entries. This is how HAVING
// sublink test expressions (which may contain aggregates) are re-expressed
// at the top join node.
func mapExprToOutputs(e algebra.Expr, q *algebra.Query, rt int) (algebra.Expr, error) {
	schema := q.Schema()
	var err error
	mapped := algebra.Replace(e, func(x algebra.Expr) algebra.Expr {
		for i, te := range q.TargetList {
			if algebra.EqualExpr(te.Expr, x) {
				return &algebra.Var{RT: rt, Col: i, Name: schema[i].Name, Typ: schema[i].Type}
			}
		}
		switch x.(type) {
		case *algebra.Var, *algebra.AggRef, *algebra.SubLink:
			if err == nil {
				err = fmt.Errorf("cannot re-express %T over the aggregation output", x)
			}
			return x
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mapped, nil
}

// ---------------------------------------------------------------------------
// Set operations (rules R6-R9)

// rewriteSetOp implements case 3 of §IV-B with the recursive split of
// Fig. 6(3b), the variant the paper's prototype uses: the original
// set-operation node is kept whole and joined with the rewritten
// duplicates of the two branches of its top-level operation.
func (r *Rewriter) rewriteSetOp(q *algebra.Query) (*algebra.Query, error) {
	origWidth := len(q.TargetList)
	node := q.SetOp

	// Build standalone query nodes for the two branches of the top-level
	// operation.
	left, err := branchQuery(q, node.Left)
	if err != nil {
		return nil, err
	}
	right, err := branchQuery(q, node.Right)
	if err != nil {
		return nil, err
	}
	dLeft, err := r.RewriteNode(left)
	if err != nil {
		return nil, err
	}
	dRight, err := r.RewriteNode(right)
	if err != nil {
		return nil, err
	}

	top := &algebra.Query{}
	origRTE := &algebra.RTE{Kind: algebra.RTESubquery, Alias: "perm_setop", Subquery: q, Cols: q.Schema()}
	leftRTE := &algebra.RTE{Kind: algebra.RTESubquery, Alias: "perm_setop_left", Subquery: dLeft, Cols: dLeft.Schema()}
	rightRTE := &algebra.RTE{Kind: algebra.RTESubquery, Alias: "perm_setop_right", Subquery: dRight, Cols: dRight.Schema()}
	top.RangeTable = []*algebra.RTE{origRTE, leftRTE, rightRTE}

	leftCond := rowEqCond(origRTE, 0, leftRTE, 1, origWidth)
	var rightCond algebra.Expr
	var leftJoinKind, rightJoinKind algebra.JoinKind
	switch node.Op {
	case algebra.SetUnion:
		// R6: left outer joins — a result tuple may stem from either side.
		leftJoinKind, rightJoinKind = algebra.JoinLeft, algebra.JoinLeft
		rightCond = rowEqCond(origRTE, 0, rightRTE, 2, origWidth)
	case algebra.SetIntersect:
		// R7: inner joins — a result tuple has contributors on both sides.
		leftJoinKind, rightJoinKind = algebra.JoinInner, algebra.JoinInner
		rightCond = rowEqCond(origRTE, 0, rightRTE, 2, origWidth)
	case algebra.SetExcept:
		// R8/R9: every tuple of T2 "different from t" contributes. For the
		// set-semantics difference the condition can be omitted (equal
		// tuples cannot appear in the result); for bag semantics the
		// inequality T1 <> T2 is joined explicitly.
		leftJoinKind, rightJoinKind = algebra.JoinInner, algebra.JoinLeft
		if node.All {
			rightCond = &algebra.UnOp{
				Op:   "NOT",
				Expr: rowEqCond(origRTE, 0, rightRTE, 2, origWidth),
				Typ:  types.KindBool,
			}
		} else {
			rightCond = &algebra.Const{Val: types.NewBool(true)}
		}
	}
	top.From = []algebra.FromItem{&algebra.FromJoin{
		Kind: rightJoinKind,
		Left: &algebra.FromJoin{
			Kind:  leftJoinKind,
			Left:  &algebra.FromRef{RT: 0},
			Right: &algebra.FromRef{RT: 1},
			Cond:  leftCond,
		},
		Right: &algebra.FromRef{RT: 2},
		Cond:  rightCond,
	}}

	for i := 0; i < origWidth; i++ {
		top.TargetList = append(top.TargetList, algebra.TargetEntry{
			Expr: &algebra.Var{RT: 0, Col: i, Name: origRTE.Cols[i].Name, Typ: origRTE.Cols[i].Type},
			Name: origRTE.Cols[i].Name,
		})
	}
	appendWrappedProv(top, 1, leftRTE, dLeft.ProvCols)
	appendWrappedProv(top, 2, rightRTE, dRight.ProvCols)

	top.OrderBy = liftOrderBy(origRTE, 0, origWidth)
	q.OrderBy = nil
	return top, nil
}

// branchQuery builds a standalone query node for one branch of a
// set-operation tree: a leaf becomes a copy of its subquery; an internal
// node becomes a new set-operation query over copies of the referenced
// entries. Copies are required because the original set-operation query is
// kept whole in the rewritten top node while the branch duplicates are
// rewritten destructively (the d1/d2 duplicates of Fig. 7).
func branchQuery(q *algebra.Query, item algebra.SetOpItem) (*algebra.Query, error) {
	switch n := item.(type) {
	case *algebra.SetOpLeaf:
		return algebra.CopyQuery(q.RangeTable[n.RT].Subquery), nil
	case *algebra.SetOpNode:
		sub := &algebra.Query{}
		tree, err := rebaseSetOp(q, n, sub)
		if err != nil {
			return nil, err
		}
		sub.SetOp = tree.(*algebra.SetOpNode)
		first := firstSetOpLeaf(sub.SetOp)
		branch := sub.RangeTable[first.RT]
		for ci, col := range branch.Cols {
			sub.TargetList = append(sub.TargetList, algebra.TargetEntry{
				Expr: &algebra.Var{RT: first.RT, Col: ci, Name: col.Name, Typ: col.Type},
				Name: col.Name,
			})
		}
		return sub, nil
	default:
		return nil, fmt.Errorf("provenance rewrite: unknown set operation item %T", item)
	}
}

// rebaseSetOp copies a set-op subtree into sub, moving the referenced
// range-table entries and renumbering leaves.
func rebaseSetOp(q *algebra.Query, item algebra.SetOpItem, sub *algebra.Query) (algebra.SetOpItem, error) {
	switch n := item.(type) {
	case *algebra.SetOpLeaf:
		orig := q.RangeTable[n.RT]
		rte := *orig
		rte.Subquery = algebra.CopyQuery(orig.Subquery)
		rte.Cols = append(algebra.Schema(nil), orig.Cols...)
		rte.ProvCols = append([]algebra.ProvCol(nil), orig.ProvCols...)
		rt := len(sub.RangeTable)
		sub.RangeTable = append(sub.RangeTable, &rte)
		return &algebra.SetOpLeaf{RT: rt}, nil
	case *algebra.SetOpNode:
		left, err := rebaseSetOp(q, n.Left, sub)
		if err != nil {
			return nil, err
		}
		right, err := rebaseSetOp(q, n.Right, sub)
		if err != nil {
			return nil, err
		}
		return &algebra.SetOpNode{Op: n.Op, All: n.All, Left: left, Right: right}, nil
	default:
		return nil, fmt.Errorf("provenance rewrite: unknown set operation item %T", item)
	}
}

func firstSetOpLeaf(item algebra.SetOpItem) *algebra.SetOpLeaf {
	for {
		switch n := item.(type) {
		case *algebra.SetOpLeaf:
			return n
		case *algebra.SetOpNode:
			item = n.Left
		default:
			return nil
		}
	}
}

// rowEqCond builds the pairwise null-safe equality T = T̂ between the first
// width columns of two wrapped subqueries (the join conditions of rules
// R5-R9).
func rowEqCond(a *algebra.RTE, aRT int, b *algebra.RTE, bRT int, width int) algebra.Expr {
	var conds []algebra.Expr
	for i := 0; i < width; i++ {
		conds = append(conds, &algebra.DistinctFrom{
			Not:   true,
			Left:  &algebra.Var{RT: aRT, Col: i, Name: a.Cols[i].Name, Typ: a.Cols[i].Type},
			Right: &algebra.Var{RT: bRT, Col: i, Name: b.Cols[i].Name, Typ: b.Cols[i].Type},
		})
	}
	cond := algebra.AndAll(conds)
	if cond == nil {
		cond = &algebra.Const{Val: types.NewBool(true)}
	}
	return cond
}

// appendWrappedProv appends provenance targets referencing a wrapped
// subquery's provenance columns to the top node.
func appendWrappedProv(top *algebra.Query, rt int, rte *algebra.RTE, prov []algebra.ProvCol) {
	for _, pc := range prov {
		pos := len(top.TargetList)
		top.TargetList = append(top.TargetList, algebra.TargetEntry{
			Expr: &algebra.Var{RT: rt, Col: pc.Col, Name: pc.Name, Typ: rte.Cols[pc.Col].Type},
			Name: pc.Name,
		})
		top.ProvCols = append(top.ProvCols, algebra.ProvCol{Col: pos, Name: pc.Name})
	}
}

// ---------------------------------------------------------------------------
// LIMIT queries

// rewriteLimit handles nodes with LIMIT/OFFSET. LIMIT is not part of the
// paper's algebra; it is handled like a set operation: the original
// limited query is kept whole and joined back (null-safe, on all output
// columns) to the rewritten duplicate without the limit, so provenance is
// attached only to the rows that survive the limit. Duplicate result rows
// share their provenance, as under rules R6/R7.
func (r *Rewriter) rewriteLimit(q *algebra.Query) (*algebra.Query, error) {
	origWidth := len(q.TargetList)
	d := algebra.CopyQuery(q)
	d.Limit = nil
	d.Offset = nil
	d.OrderBy = nil
	dPlus, err := r.RewriteNode(d)
	if err != nil {
		return nil, err
	}
	if jb := dPlus.JoinBack; jb.Shared() {
		// The join below matches the limited original's aggregate values
		// by equality, so dPlus must compute them the way the original does.
		jb.Reason = "limit"
	}
	top := &algebra.Query{}
	origRTE := &algebra.RTE{Kind: algebra.RTESubquery, Alias: "perm_limit", Subquery: q, Cols: q.Schema()}
	provRTE := &algebra.RTE{Kind: algebra.RTESubquery, Alias: "perm_limit_prov", Subquery: dPlus, Cols: dPlus.Schema()}
	top.RangeTable = []*algebra.RTE{origRTE, provRTE}
	top.From = []algebra.FromItem{&algebra.FromJoin{
		Kind:  algebra.JoinLeft,
		Left:  &algebra.FromRef{RT: 0},
		Right: &algebra.FromRef{RT: 1},
		Cond:  rowEqCond(origRTE, 0, provRTE, 1, origWidth),
	}}
	for i := 0; i < origWidth; i++ {
		top.TargetList = append(top.TargetList, algebra.TargetEntry{
			Expr: &algebra.Var{RT: 0, Col: i, Name: origRTE.Cols[i].Name, Typ: origRTE.Cols[i].Type},
			Name: origRTE.Cols[i].Name,
		})
	}
	appendWrappedProv(top, 1, provRTE, dPlus.ProvCols)
	return top, nil
}

// ---------------------------------------------------------------------------
// Sublinks (§IV-E)

// sublinkCtx describes the boolean context a sublink occurs in, which
// determines its contribution per Cui's definition (§IV-E).
type sublinkCtx struct {
	link *algebra.SubLink
	// negated: the sublink appears under an odd number of NOTs.
	negated bool
	// disjunctive: the enclosing condition can be true independently of
	// the sublink's truth value (the sublink sits under an OR, or under a
	// NOT over a conjunction). Then the whole subquery input contributes.
	disjunctive bool
}

// collectSublinkCtx walks a boolean expression recording every sublink
// with its context.
func collectSublinkCtx(e algebra.Expr, negated, disjunctive bool, out *[]sublinkCtx) {
	switch n := e.(type) {
	case nil:
		return
	case *algebra.SubLink:
		*out = append(*out, sublinkCtx{link: n, negated: negated, disjunctive: disjunctive})
		// The test expression cannot contain further sublinks (enforced at
		// analysis by expression shape), but walk defensively.
		collectSublinkCtx(n.Test, negated, disjunctive, out)
	case *algebra.BinOp:
		switch n.Op {
		case "AND":
			d := disjunctive || negated // under NOT, AND acts as OR
			collectSublinkCtx(n.Left, negated, d, out)
			collectSublinkCtx(n.Right, negated, d, out)
		case "OR":
			d := disjunctive || !negated // under NOT, OR acts as AND
			collectSublinkCtx(n.Left, negated, d, out)
			collectSublinkCtx(n.Right, negated, d, out)
		default:
			// Comparison with a (scalar) sublink operand: the comparison's
			// truth depends on the sublink value; context propagates.
			collectSublinkCtx(n.Left, negated, disjunctive, out)
			collectSublinkCtx(n.Right, negated, disjunctive, out)
		}
	case *algebra.UnOp:
		if n.Op == "NOT" {
			collectSublinkCtx(n.Expr, !negated, disjunctive, out)
			return
		}
		collectSublinkCtx(n.Expr, negated, disjunctive, out)
	case *algebra.IsNull:
		collectSublinkCtx(n.Expr, negated, true, out)
	case *algebra.DistinctFrom:
		collectSublinkCtx(n.Left, negated, disjunctive, out)
		collectSublinkCtx(n.Right, negated, disjunctive, out)
	case *algebra.FuncCall:
		for _, a := range n.Args {
			collectSublinkCtx(a, negated, true, out)
		}
	case *algebra.CaseExpr:
		for _, w := range n.Whens {
			collectSublinkCtx(w.Cond, negated, true, out)
			collectSublinkCtx(w.Result, negated, true, out)
		}
		collectSublinkCtx(n.Else, negated, true, out)
	case *algebra.Cast:
		collectSublinkCtx(n.Expr, negated, disjunctive, out)
	case *algebra.AggRef:
		collectSublinkCtx(n.Arg, negated, true, out)
	}
}

func collectSublinkRefs(e algebra.Expr) []sublinkCtx {
	var out []sublinkCtx
	collectSublinkCtx(e, false, false, &out)
	return out
}

// attachWhereSublinks rewrites the sublinks of q.Where per §IV-E: each
// rewritten sublink query is added to the range table and left-joined to
// the rest of the FROM clause on a condition derived from its context.
// The original WHERE (still containing the sublink expressions) continues
// to filter the original semantics.
func (r *Rewriter) attachWhereSublinks(q *algebra.Query) error {
	refs := collectSublinkRefs(q.Where)
	// Sublinks in the select list contribute their whole input (their value
	// is copied into every result tuple), so they attach with a TRUE join.
	for _, te := range q.TargetList {
		var tRefs []sublinkCtx
		collectSublinkCtx(te.Expr, false, true, &tRefs)
		refs = append(refs, tRefs...)
	}
	if len(refs) == 0 {
		return nil
	}
	return r.attachSublinks(q, refs, func(link *algebra.SubLink, subRT int) (algebra.Expr, error) {
		return r.sublinkJoinCond(link, subRT, func(test algebra.Expr) (algebra.Expr, error) {
			return algebra.CopyExpr(test), nil // test is already in q's scope
		})
	})
}

// attachSublinks adds one RTE per sublink to q, joined via a LEFT JOIN so
// that original result tuples survive even when no subquery tuple matches
// the context condition.
func (r *Rewriter) attachSublinks(q *algebra.Query, refs []sublinkCtx,
	condFor func(link *algebra.SubLink, subRT int) (algebra.Expr, error)) error {

	for _, ref := range refs {
		subPlus, err := r.RewriteNode(algebra.CopyQuery(ref.link.Query))
		if err != nil {
			return err
		}
		rte := &algebra.RTE{
			Kind:     algebra.RTESubquery,
			Alias:    fmt.Sprintf("perm_sublink_%d", len(q.RangeTable)+1),
			Subquery: subPlus,
			Cols:     subPlus.Schema(),
			ProvCols: subPlus.ProvCols,
		}
		subRT := len(q.RangeTable)
		q.RangeTable = append(q.RangeTable, rte)

		var cond algebra.Expr
		if ref.disjunctive {
			// The condition can hold independently of the sublink: per the
			// contribution definition the whole subquery input contributes
			// (the cross product of the accessed relations, §IV-E).
			cond = &algebra.Const{Val: types.NewBool(true)}
		} else {
			cond, err = condFor(ref.link, subRT)
			if err != nil {
				return err
			}
			if ref.negated {
				if _, isConst := cond.(*algebra.Const); !isConst {
					cond = &algebra.UnOp{Op: "NOT", Expr: cond, Typ: types.KindBool}
				}
			}
		}

		// Join the sublink entry to the rest of the FROM clause.
		if len(q.From) == 0 {
			// FROM-less query (e.g. a scalar sublink in the select list):
			// the sublink entry becomes the only FROM item; the condition
			// is necessarily TRUE in this shape.
			q.From = []algebra.FromItem{&algebra.FromRef{RT: subRT}}
			continue
		}
		var left algebra.FromItem
		if len(q.From) == 1 {
			left = q.From[0]
		} else {
			// Fold the implicit cross product into an explicit join tree.
			left = q.From[0]
			for _, fi := range q.From[1:] {
				left = &algebra.FromJoin{Kind: algebra.JoinCross, Left: left, Right: fi}
			}
		}
		q.From = []algebra.FromItem{&algebra.FromJoin{
			Kind:  algebra.JoinLeft,
			Left:  left,
			Right: &algebra.FromRef{RT: subRT},
			Cond:  cond,
		}}
	}
	return nil
}

// sublinkJoinCond derives the join condition for a sublink in a
// conjunctive (non-disjunctive) context. mapTest re-expresses the sublink's
// test expression in the attaching query's scope.
func (r *Rewriter) sublinkJoinCond(link *algebra.SubLink, subRT int,
	mapTest func(algebra.Expr) (algebra.Expr, error)) (algebra.Expr, error) {

	switch link.Kind {
	case algebra.SubAny:
		// x op ANY(S): the matching tuples contribute.
		test, err := mapTest(link.Test)
		if err != nil {
			return nil, err
		}
		subCol := &algebra.Var{RT: subRT, Col: 0, Name: "sub", Typ: link.Query.Schema()[0].Type}
		return &algebra.BinOp{Op: link.Op, Left: test, Right: subCol, Typ: types.KindBool}, nil
	case algebra.SubAll, algebra.SubExists, algebra.SubScalar:
		// Every tuple of the subquery influences the comparison outcome.
		return &algebra.Const{Val: types.NewBool(true)}, nil
	default:
		return nil, fmt.Errorf("provenance rewrite: unsupported sublink kind %d", link.Kind)
	}
}
