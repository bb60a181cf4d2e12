package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"perm/internal/algebra"
	"perm/internal/analyze"
	"perm/internal/catalog"
	"perm/internal/exec"
	"perm/internal/mem"
	"perm/internal/obs"
	"perm/internal/optimize"
	"perm/internal/plan"
	"perm/internal/provrewrite"
	"perm/internal/sql"
	"perm/internal/tpch"
	"perm/internal/types"
	"perm/internal/vexec"
	"perm/internal/wire"
)

// The shadow pipeline is what perm.Database.Query does, spelled out
// stage by stage over a catalog the bench owns, so that every module
// boundary can be timed from outside the engine: sql.Parse ->
// analyze.AnalyzeSelect -> provrewrite.RewriteTree ->
// optimize.QueryWithStats -> plan.Plan -> drain and box -> wire.Encode ->
// wire.ReadResponse. Spans inside the engine are a later change.

// span is one record of trace.json. The spans of one statement execution
// share Stmt and hang off its "stmt" root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a statement's root span
	Stmt    string `json:"stmt"`   // workload:class/form#draw@cycle
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the traced pass began
	EndNS   int64  `json:"end_ns"`
	Rows    int64  `json:"rows,omitempty"`  // rows out of the stage or operator
	Nodes   int    `json:"nodes,omitempty"` // algebra nodes out of a compile stage
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// makes a replay plain; a tracer with keep off makes it traced (serial,
// instrumented) without recording, so that a pass of hundreds of cycles
// does not write hundreds of identical trees. The stages are timed
// either way.
type tracer struct {
	t0    time.Time
	keep  bool
	spans []span
}

// add records a span and returns its ID, 0 when nothing was recorded.
func (t *tracer) add(parent int, stmt, name string, start, end time.Time) int {
	if t == nil || !t.keep {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Stmt: stmt, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
	return id
}

// shadow owns the bench's copy of the catalog.
type shadow struct {
	cat      *catalog.Catalog
	budget   *mem.Budget
	spillDir string
	// wireAll makes a result too large for one wire frame an error. It is
	// set for wire_mixed, whose every reply has to fit; the embedded
	// workloads skip the wire stages for such a result (Q1's q+).
	wireAll bool
}

// wireCells is the result size, in values, above which an embedded replay
// skips the wire stages: at the ~60 bytes a value takes in a frame, more
// cannot fit wire.MaxFrame, and finding that out costs a full marshal.
const wireCells = wire.MaxFrame / 64

// newShadow builds the TPC-H schema over catalog.New and loads the same
// generated rows the engine got (the heaps share the row storage).
func newShadow(d *tpch.Dataset, memLimit int64, spillDir string) (*shadow, error) {
	cat := catalog.New()
	ddl, err := sql.ParseAll(tpch.SchemaSQL())
	if err != nil {
		return nil, err
	}
	for _, st := range ddl {
		ct, ok := st.(*sql.CreateTableStmt)
		if !ok {
			return nil, fmt.Errorf("schema: unexpected %T", st)
		}
		cols := make([]catalog.Column, len(ct.Cols))
		for i, c := range ct.Cols {
			cols[i] = catalog.Column{Name: c.Name, Type: c.Type}
		}
		t, err := cat.CreateTable(ct.Name, cols, false)
		if err != nil {
			return nil, err
		}
		if err := t.Heap.InsertAll(d.Tables[ct.Name]); err != nil {
			return nil, err
		}
	}
	if memLimit <= 0 {
		memLimit = 0 // unlimited
	}
	return &shadow{cat: cat, budget: mem.NewGovernor(0).Session(memLimit), spillDir: spillDir}, nil
}

// TableRows makes the shadow catalog the optimizer's statistics source,
// as perm.catalogStats does for the engine's.
func (s *shadow) TableRows(name string) (float64, bool) {
	t, ok := s.cat.Table(name)
	if !ok {
		return 0, false
	}
	return t.Stats().Rows, true
}

// stages is what one replay of one statement measured.
type stages struct {
	parse, analyze, rewrite, optimize, plan, execute, encode, decode time.Duration

	nodesAnalyzed, nodesRewritten, nodesOptimized int
	rows, cols, frameBytes                        int

	ops []obs.Span // traced replays: one per physical operator, pre-order
}

func (st *stages) compile() time.Duration {
	return st.parse + st.analyze + st.rewrite + st.optimize + st.plan
}

// pipeline is compile plus execute: what a cold db.Query does. The wire
// stages are on top of it.
func (st *stages) pipeline() time.Duration { return st.compile() + st.execute }

// countNodes counts the query nodes and range-table entries of a tree,
// through subqueries and sublinks.
func countNodes(q *algebra.Query) int {
	if q == nil {
		return 0
	}
	n := 1 + len(q.RangeTable)
	for _, rte := range q.RangeTable {
		n += countNodes(rte.Subquery)
	}
	q.VisitExprs(func(e algebra.Expr) {
		algebra.WalkExpr(e, func(x algebra.Expr) {
			if link, ok := x.(*algebra.SubLink); ok {
				n += countNodes(link.Query)
			}
		})
	})
	return n
}

// compile runs the five compile stages. With a tracer it plans serially,
// so that plan.Instrument can see every operator: a parallel segment is
// probed as one opaque unit.
func (s *shadow) compile(label, text string, tr *tracer, root int, st *stages) (*algebra.Query, exec.Node, error) {
	t0 := time.Now()
	parsed, err := sql.Parse(text)
	t1 := time.Now()
	if err != nil {
		return nil, nil, err
	}
	sel, ok := parsed.(*sql.SelectStmt)
	if !ok {
		return nil, nil, fmt.Errorf("not a SELECT: %T", parsed)
	}
	st.parse = t1.Sub(t0)
	tr.add(root, label, "sql.parse", t0, t1)

	t0 = time.Now()
	q, err := analyze.New(s.cat).AnalyzeSelect(sel)
	t1 = time.Now()
	if err != nil {
		return nil, nil, err
	}
	st.analyze, st.nodesAnalyzed = t1.Sub(t0), countNodes(q)
	tr.annotate(tr.add(root, label, "analyze.analyze", t0, t1), 0, st.nodesAnalyzed)

	t0 = time.Now()
	q, err = provrewrite.RewriteTree(q, provrewrite.Options{})
	t1 = time.Now()
	if err != nil {
		return nil, nil, err
	}
	st.rewrite, st.nodesRewritten = t1.Sub(t0), countNodes(q)
	tr.annotate(tr.add(root, label, "provrewrite.rewrite", t0, t1), 0, st.nodesRewritten)

	t0 = time.Now()
	q = optimize.QueryWithStats(q, s)
	t1 = time.Now()
	st.optimize, st.nodesOptimized = t1.Sub(t0), countNodes(q)
	tr.annotate(tr.add(root, label, "optimize.optimize", t0, t1), 0, st.nodesOptimized)

	par := runtime.GOMAXPROCS(0)
	if tr != nil {
		par = 1
	}
	t0 = time.Now()
	node, err := plan.New(s.cat).SetResources(s.budget, s.spillDir).SetParallelism(par).Plan(q)
	t1 = time.Now()
	if err != nil {
		return nil, nil, err
	}
	st.plan = t1.Sub(t0)
	tr.add(root, label, "plan.plan", t0, t1)
	return q, node, nil
}

func (t *tracer) annotate(id int, rows int64, nodes int) {
	if id > 0 {
		t.spans[id-1].Rows, t.spans[id-1].Nodes = rows, nodes
	}
}

// instrument puts a probe on every operator of a plan. A plan that is
// vectorized to the root keeps its RowSource on top without one:
// drainBoxed has to find it there to box straight out of the column
// vectors, as perm.Database.Query does. Behind a probe the drain would go
// row at a time through BatchToRow, a path the engine never takes for
// such a plan, and charge it to exec.fallback_ms.
func instrument(node exec.Node) exec.Node {
	probed := plan.Instrument(node) // probes the operators below in place
	if _, ok := node.(*vexec.RowSource); ok {
		return node
	}
	return probed
}

// drainBoxed runs a plan to the end and boxes every result value, the way
// perm.Database does: straight out of the column vectors when the plan
// is vectorized to the root.
func drainBoxed(node exec.Node) ([][]types.Value, error) {
	rs, ok := node.(*vexec.RowSource)
	if !ok {
		rows, err := exec.Collect(node)
		if err != nil {
			return nil, err
		}
		out := make([][]types.Value, len(rows))
		for i, r := range rows {
			out[i] = r
		}
		return out, nil
	}
	in := rs.Input
	if err := in.Open(); err != nil {
		return nil, err
	}
	defer in.Close()
	var out [][]types.Value
	for {
		b, err := in.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		emit := func(lane int) {
			vr := make([]types.Value, len(b.Cols))
			for j, c := range b.Cols {
				vr[j] = c.Value(lane)
			}
			out = append(out, vr)
		}
		if b.Sel != nil {
			for _, lane := range b.Sel {
				emit(lane)
			}
		} else {
			for lane := 0; lane < b.N; lane++ {
				emit(lane)
			}
		}
	}
}

// drainCounting runs a plan to the end and only counts rows: execution
// without result boxing.
func drainCounting(node exec.Node) (int, error) {
	n := 0
	if rs, ok := node.(*vexec.RowSource); ok {
		in := rs.Input
		if err := in.Open(); err != nil {
			return 0, err
		}
		defer in.Close()
		for {
			b, err := in.Next()
			if err != nil || b == nil {
				return n, err
			}
			n += b.Live()
		}
	}
	if err := node.Open(); err != nil {
		return 0, err
	}
	defer node.Close()
	for {
		r, err := node.Next()
		if err != nil || r == nil {
			return n, err
		}
		n++
	}
}

// replay runs one statement through every stage and returns the decoded
// wire response. With a tracer it records a span per stage and per
// physical operator.
func (s *shadow) replay(label, text string, tr *tracer) (*wire.Response, *stages, error) {
	st := &stages{}
	begin := time.Now()
	root := tr.add(0, label, "stmt", begin, begin)
	q, node, err := s.compile(label, text, tr, root, st)
	if err != nil {
		return nil, nil, err
	}

	if tr != nil {
		node = instrument(node)
	}
	t0 := time.Now()
	rows, err := drainBoxed(node)
	t1 := time.Now()
	if err != nil {
		return nil, nil, err
	}
	st.execute = t1.Sub(t0)
	if tr != nil {
		st.ops = plan.OperatorSpans(node)
		exe := tr.add(root, label, "vexec.execute", t0, t1)
		tr.annotate(exe, int64(len(rows)), 0)
		tr.addOperators(exe, label, t0, st.ops)
	}

	schema := q.Schema()
	resp := &wire.Response{OK: true, Columns: schema.Names(), Prov: make([]bool, len(schema)), Rows: rows}
	for _, pc := range q.ProvCols {
		resp.Prov[pc.Col] = true
	}
	st.rows, st.cols = len(rows), len(schema)
	if !s.wireAll && st.rows*st.cols > wireCells {
		tr.finish(root, int64(len(rows)))
		return resp, st, nil
	}

	t0 = time.Now()
	frame, err := wire.Encode(resp)
	t1 = time.Now()
	if err != nil {
		return nil, nil, fmt.Errorf("wire.Encode: %w", err)
	}
	st.encode, st.frameBytes = t1.Sub(t0), len(frame)
	tr.add(root, label, "wire.encode", t0, t1)

	t0 = time.Now()
	back, err := wire.ReadResponse(bytes.NewReader(frame))
	t1 = time.Now()
	if err != nil {
		return nil, nil, fmt.Errorf("wire.ReadResponse: %w", err)
	}
	st.decode = t1.Sub(t0)
	tr.add(root, label, "wire.decode", t0, t1)
	tr.finish(root, int64(len(rows)))
	return back, st, nil
}

// finish closes a statement's root span.
func (t *tracer) finish(root int, rows int64) {
	if root > 0 {
		t.spans[root-1].EndNS = time.Since(t.t0).Nanoseconds()
		t.spans[root-1].Rows = rows
	}
}

// addOperators turns the probes' measurements into spans under the
// execute span. Probes accumulate time over many Next calls, so an
// operator span carries its total time from the start of execution, not
// its real position in it.
func (t *tracer) addOperators(exe int, label string, start time.Time, ops []obs.Span) {
	if len(ops) == 0 {
		return
	}
	// parentAt[d] is the span at depth d below the execute span. The first
	// operator is at depth 1, or 2 under an unprobed RowSource.
	top := ops[0].Depth - 1
	parentAt := []int{exe}
	for _, op := range ops {
		for len(parentAt) > op.Depth-top {
			parentAt = parentAt[:len(parentAt)-1]
		}
		id := t.add(parentAt[len(parentAt)-1], label, op.Name, start, start.Add(time.Duration(op.DurNS)))
		t.annotate(id, op.Rows, 0)
		parentAt = append(parentAt, id)
	}
}

// planAndDrain compiles a statement untimed, then times planning and a
// counting drain on their own: the base for perm.result_box_ms.
func (s *shadow) planAndDrain(text string) (planD, drainD time.Duration, err error) {
	var st stages
	_, node, err := s.compile("", text, nil, 0, &st)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	_, err = drainCounting(node)
	return st.plan, time.Since(t0), err
}
