// The one description of a physical operator — what it is called, what
// EXPLAIN says about it and where its child slots are — and the one walk
// of a plan over it. EXPLAIN, EXPLAIN ANALYZE, probe instrumentation,
// trace spans, the misestimation harvest, the plan hash and the replica
// shape check of parallel planning are all short visitors of that walk,
// so they cannot disagree on labels, order or how an exchange's workers
// are entered, and a new operator is one new case in describe or
// describeV.
package plan

import (
	"fmt"
	"strings"

	"perm/internal/algebra"
	"perm/internal/exec"
	"perm/internal/obs"
	"perm/internal/spill"
	"perm/internal/vexec"
)

// op describes one physical operator.
type op struct {
	name  string // EXPLAIN label stem; the name in trace spans and estimate records
	args  string // EXPLAIN details, rendered in parentheses after the label
	table string // relation a scan reads; hashed, never rendered
	// extra renders the operator's own EXPLAIN ANALYZE annotations
	// (memory, spills, morsels, runtime-filter hits) after execution.
	extra func() []string
	// kids and vkids point at the child slots on the row and the batch
	// engine, in EXPLAIN order.
	kids  [2]*exec.Node
	vkids [2]*vexec.Node
	// workers marks an exchange: vkids[0] leads into worker
	// replica 0, which stands for all of them (replicas are validated to
	// be shape-identical). Replicas run on their own goroutines and are
	// rendered and hashed but never probed.
	workers bool

	// Set by the walk.
	node  any
	vec   bool
	depth int
	stats *obs.OpStats // the operator's probe; nil in uninstrumented trees
}

// describe is the description of a row-engine operator.
func describe(n exec.Node) op {
	switch x := n.(type) {
	case *exec.Scan:
		return op{name: "Scan", args: fmt.Sprintf("%d rows", len(x.Rows)), table: x.Table}
	case *exec.Filter:
		return op{name: "Filter", kids: [2]*exec.Node{&x.Input}}
	case *exec.Project:
		return op{name: "Project", args: fmt.Sprintf("%d cols", len(x.Exprs)), kids: [2]*exec.Node{&x.Input}}
	case *exec.NestedLoopJoin:
		return op{name: "NestedLoopJoin", args: joinName(x.Type), kids: [2]*exec.Node{&x.Left, &x.Right}}
	case *exec.HashJoin:
		return op{name: "HashJoin", args: fmt.Sprintf("%s, %d keys", joinName(x.Type), len(x.LeftKeys)),
			kids: [2]*exec.Node{&x.Left, &x.Right}}
	case *exec.HashAgg:
		return op{name: "HashAggregate", args: fmt.Sprintf("%d keys, %d aggs", len(x.Groups), len(x.Aggs)),
			kids: [2]*exec.Node{&x.Input}}
	case *exec.Sort:
		return op{name: "Sort", args: fmt.Sprintf("%d keys%s", len(x.Keys), spillTag(x.Spill)),
			extra: func() []string { return resAnnot(x.Spill) }, kids: [2]*exec.Node{&x.Input}}
	case *exec.Limit:
		return op{name: "Limit", kids: [2]*exec.Node{&x.Input}}
	case *exec.Distinct:
		return op{name: "Distinct", kids: [2]*exec.Node{&x.Input}}
	case *exec.SetOp:
		return op{name: "SetOp", args: fmt.Sprintf("%s, all=%v", setOpName(x.Kind), x.All),
			kids: [2]*exec.Node{&x.Left, &x.Right}}
	case *vexec.RowSource:
		// An adapter left unprobed (the result drain reads the batches
		// under it) reports what the probe on its input saw: it emits
		// exactly those rows.
		d := op{name: "BatchToRow", vkids: [2]*vexec.Node{&x.Input}}
		if p, ok := x.Input.(*vexec.Probe); ok {
			d.stats = p.Stats
		}
		return d
	}
	return op{name: fmt.Sprintf("%T", n)}
}

// describeV is the description of a batch-engine operator.
func describeV(n vexec.Node) op {
	switch x := n.(type) {
	case *vexec.ColScan:
		args := fmt.Sprintf("%d rows", x.NumRows)
		if x.HasRuntimeFilters() {
			args += ", RuntimeFilter"
		}
		return op{name: "VecScan", args: args, table: x.Table, extra: func() []string { return scanAnnot(x) }}
	case *vexec.Filter:
		return op{name: "VecFilter", vkids: [2]*vexec.Node{&x.Input}}
	case *vexec.Project:
		return op{name: "VecProject", args: fmt.Sprintf("%d cols", len(x.Exprs)), vkids: [2]*vexec.Node{&x.Input}}
	case *vexec.HashJoin:
		rf := ""
		if x.PublishesFilters() {
			rf = ", RuntimeFilter"
		}
		return op{name: "VecHashJoin",
			args:  fmt.Sprintf("%s, %d keys%s%s", joinName(x.Type), len(x.LeftKeys), rf, spillTag(x.Spill)),
			extra: func() []string { return resAnnot(x.Spill) }, vkids: [2]*vexec.Node{&x.Left, &x.Right}}
	case *vexec.NLJoin:
		return op{name: "VecNestedLoopJoin", args: joinName(x.Type), vkids: [2]*vexec.Node{&x.Left, &x.Right}}
	case *vexec.HashAgg:
		return op{name: "VecHashAggregate",
			args:  fmt.Sprintf("%d keys, %d aggs%s", len(x.Groups), len(x.Aggs), spillTag(x.Spill)),
			extra: func() []string { return resAnnot(x.Spill) }, vkids: [2]*vexec.Node{&x.Input}}
	case *vexec.AggAttach:
		return op{name: "VecAggAttach",
			args: fmt.Sprintf("%d keys, %d aggs%s", len(x.Agg.Groups), len(x.Agg.Aggs), spillTag(x.Spill)),
			extra: func() []string {
				parts := append([]string{fmt.Sprintf("materialized=%d", x.Stored)}, resAnnot(x.Spill)...)
				if x.Agg.Spill.Res.SpillEvents() > 0 { // the group table: attached by key
					parts = append(parts, fmt.Sprintf("groups_spilled=%dB", x.Agg.Spill.Res.SpillBytes()))
				}
				return parts
			}, vkids: [2]*vexec.Node{&x.Input}}
	case *vexec.VecSort:
		return op{name: "VecSort", args: fmt.Sprintf("%d keys%s", len(x.Keys), spillTag(x.Spill)),
			extra: func() []string {
				if x.ByGroup() { // the join-back below emitted its rows sorted
					return []string{"by_group"}
				}
				return resAnnot(x.Spill)
			}, vkids: [2]*vexec.Node{&x.Input}}
	case *vexec.VecTopN:
		return op{name: "VecTopN", args: fmt.Sprintf("%d keys, keep %d", len(x.Keys), x.Offset+x.Count),
			vkids: [2]*vexec.Node{&x.Input}}
	case *vexec.VecLimit:
		return op{name: "VecLimit", vkids: [2]*vexec.Node{&x.Input}}
	case *vexec.VecDistinct:
		return op{name: "VecDistinct", args: strings.TrimPrefix(spillTag(x.Spill), ", "),
			extra: func() []string { return resAnnot(x.Spill) }, vkids: [2]*vexec.Node{&x.Input}}
	case *vexec.VecSetOp:
		return op{name: "VecSetOp", args: fmt.Sprintf("%s, all=%v%s", setOpName(x.Kind), x.All, spillTag(x.Spill)),
			extra: func() []string { return resAnnot(x.Spill) }, vkids: [2]*vexec.Node{&x.Left, &x.Right}}
	case *vexec.Exchange:
		return op{name: "Exchange", args: fmt.Sprintf("workers=%d", len(x.Workers)), workers: true,
			extra: func() []string { return workerAnnot(x) }, vkids: [2]*vexec.Node{&x.Workers[0]}}
	}
	return op{name: fmt.Sprintf("%T", n)}
}

// each calls row or batch on every child slot, in EXPLAIN order.
func (d *op) each(row func(*exec.Node), batch func(*vexec.Node)) {
	for _, k := range d.kids {
		if k != nil {
			row(k)
		}
	}
	for _, k := range d.vkids {
		if k != nil {
			batch(k)
		}
	}
}

// walk visits every operator of a plan in EXPLAIN order (pre-order,
// children in slot order), looking through probes.
func walk(n exec.Node, depth int, visit func(op)) {
	var st *obs.OpStats
	if p, ok := n.(*exec.Probe); ok {
		st, n = p.Stats, p.Input
	}
	d := describe(n)
	if st != nil {
		d.stats = st
	}
	d.node, d.depth = n, depth
	visit(d)
	d.each(func(k *exec.Node) { walk(*k, depth+1, visit) }, func(k *vexec.Node) { walkV(*k, depth+1, visit) })
}

// walkV is walk below a batch→row adapter.
func walkV(n vexec.Node, depth int, visit func(op)) {
	var st *obs.OpStats
	if p, ok := n.(*vexec.Probe); ok {
		st, n = p.Stats, p.Input
	}
	d := describeV(n)
	d.node, d.vec, d.depth, d.stats = n, true, depth, st
	visit(d)
	d.each(nil, func(k *vexec.Node) { walkV(*k, depth+1, visit) })
}

// appendLine renders the operator's EXPLAIN line, annot between label and
// newline.
func (d *op) appendLine(out []byte, annot string) []byte {
	for i := 0; i < d.depth; i++ {
		out = append(out, ' ', ' ')
	}
	out = append(out, d.name...)
	if d.args != "" {
		out = append(append(append(out, " ("...), d.args...), ')')
	}
	return append(append(out, annot...), '\n')
}

// Explain renders a plan tree as an indented string (EXPLAIN output).
func Explain(n exec.Node) string {
	var sb []byte
	walk(n, 0, func(d op) { sb = d.appendLine(sb, "") })
	return string(sb)
}

// spillTag renders the EXPLAIN annotation of a spill-capable operator:
// ", spill=on" when a memory budget can force it to disk, empty
// otherwise.
func spillTag(res spill.Resources) string {
	if res.Enabled() {
		return ", spill=on"
	}
	return ""
}

// joinName is the EXPLAIN label of a join kind, the same on both engines.
func joinName(k algebra.JoinKind) string {
	switch k {
	case algebra.JoinInner:
		return "inner"
	case algebra.JoinLeft:
		return "left"
	case algebra.JoinRight:
		return "right"
	case algebra.JoinFull:
		return "full"
	default:
		return "?"
	}
}

// setOpName is the EXPLAIN label of a set operation: its keyword in
// lower case.
func setOpName(k algebra.SetOpKind) string { return strings.ToLower(k.String()) }
