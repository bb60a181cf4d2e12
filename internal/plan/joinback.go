package plan

import (
	"math"

	"perm/internal/algebra"
	"perm/internal/vector"
	"perm/internal/vexec"
)

// planJoinBack plans the FROM clause of a rule-R5 node — the aggregation
// joined back to T+ on the grouping keys — as one AggAttach over a single
// evaluation of T+, whose columns come first in the fragment. It returns
// nil, noting why, when the node keeps the two-sided plan.
func (p *Planner) planJoinBack(q *algebra.Query) (*planned, error) {
	jb := q.JoinBack
	if jb == nil {
		return nil, nil
	}
	at := len(p.joinBacks)
	p.joinBacks = append(p.joinBacks, jb.Reason)
	if jb.Reason != "" {
		return nil, nil
	}
	// The optimizer chose for the engine; the pair must still read one block.
	residual, left, reason := jb.Shareable(q)
	if reason == "" && !p.vectorized {
		reason = "row_engine"
	}
	if p.joinBacks[at] = reason; reason != "" {
		return nil, nil
	}
	p.joinBacks[at] = "row_engine" // until the batch engine has it all
	agg, prov := q.RangeTable[jb.Agg].Subquery, q.RangeTable[jb.Prov].Subquery
	input, err := p.planFrom(prov)
	if err != nil || input.vnode == nil {
		return nil, err
	}
	exprs := make([]algebra.Expr, len(prov.TargetList))
	for i, te := range prov.TargetList {
		exprs[i] = te.Expr
	}
	cols, err := vexec.CompileExprs(exprs, &rowBinder{p: p, layout: input.layout})
	if err != nil {
		return nil, nil
	}
	att := vexec.NewAggAttach(input.vnode, cols, left)
	feed := *input
	feed.vnode = att.Feed()
	feed.node = vexec.NewRowSource(feed.vnode)
	if _, groups, err := p.planAggregation(agg, &feed, p.aggEstimate(agg, input)); err != nil || groups == nil || !att.SetGroups(groups) {
		return nil, err
	}
	readSnapshot(att, input, exprs)
	att.ProvKeys, att.AggKeys = jb.ProvCols, jb.AggCols
	att.Spill, att.JoinSpill = p.spillRes("aggattach"), p.spillRes("hashjoin")
	att.SetActivity(p.activity)
	p.joinBacks[at] = ""

	frag := &planned{ // the aggregate's rows hang off T+'s, whose estimate it takes
		layout: map[int]int{jb.Prov: 0, jb.Agg: len(cols)},
		kinds:  att.Kinds(),
		rts:    algebra.BitsOf(jb.Agg).Union(algebra.BitsOf(jb.Prov)),
	}
	p.setVNode(frag, att)
	setFragEst(frag, input.est)
	return frag, p.attachFilter(frag, algebra.AndAll(residual))
}

// readSnapshot lets the join-back keep its rows as row ids when T+ reads
// one columnar scan through filters, which pass its batches' columns on
// unchanged: a T+ column that is a column of the scan is then gathered
// from the scan's snapshot by id instead of being stored. The scan emits
// the ids (ColScan.RowIDs) as a column after its own.
func readSnapshot(att *vexec.AggAttach, input *planned, exprs []algebra.Expr) {
	n := input.vnode
	for {
		f, ok := n.(*vexec.Filter)
		if !ok {
			break
		}
		n = f.Input
	}
	scan, ok := n.(*vexec.ColScan)
	if !ok || scan.NumRows > math.MaxInt32 {
		return
	}
	snap, found := make([]*vector.Vec, len(exprs)), false
	for i, e := range exprs {
		v, ok := e.(*algebra.Var)
		if !ok {
			continue
		}
		off, ok := input.layout[v.RT]
		if pos := off + v.Col; ok && pos < len(scan.Cols) && scan.Cols[pos].Kind == att.Prov[i].Kind() {
			snap[i], found = scan.Cols[pos], true
		}
	}
	if found {
		scan.RowIDs = true
		att.Snap, att.RowID = snap, len(scan.Cols)
	}
}
