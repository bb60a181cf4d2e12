// What is left of the go-test benchmarks after bench/ (bash bench/run.sh)
// took over every timing series: the two allocation guards CI runs, the
// paper's Perm-vs-Trio comparison (Fig. 15, section V-C) and the Fig. 6
// 3a-vs-3b set-operation ablation, none of which bench/ has a workload
// for.
package perm_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"perm"
	"perm/internal/algebra"
	"perm/internal/synth"
	"perm/internal/tpch"
	"perm/internal/trio"
	"perm/internal/types"
	"perm/internal/vector"
	"perm/internal/vexec"
)

// benchSF is the scale factor used by the benchmarks. The paper's
// 10MB/100MB/1GB databases are SF 0.01/0.1/1; the benches default to a
// smaller instance so they run in seconds.
const benchSF = 0.002

var (
	benchOnce sync.Once
	benchDB   *perm.Database
)

func sharedBenchDB(b *testing.B) *perm.Database {
	b.Helper()
	benchOnce.Do(func() {
		benchDB = perm.NewDatabase()
		tpch.MustLoad(benchDB, benchSF, 42)
	})
	return benchDB
}

// BenchmarkFig15Trio compares Perm's lazy provenance against the
// Trio-style baseline on supplier key-range selections (the workload of
// §V-C, scaled down from 1000 to a per-op measure).
func BenchmarkFig15Trio(b *testing.B) {
	db := sharedBenchDB(b)
	maxKey, err := db.TableRowCount("supplier")
	if err != nil {
		b.Fatal(err)
	}

	b.Run("perm-lazy", func(b *testing.B) {
		rng := tpch.NewRand(1)
		for i := 0; i < b.N; i++ {
			q := injectProv(synth.SupplierSelection(rng, maxKey))
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trio-trace", func(b *testing.B) {
		rng := tpch.NewRand(1)
		sys := trio.New(db)
		// Derivation (eager provenance computation) happens beforehand,
		// as in the paper; only tracing is measured.
		names := make([]string, b.N)
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			names[i] = sys.FreshName()
			if err := sys.Derive(names[i], synth.SupplierSelection(rng, maxKey)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.TraceAll(names[i]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		for _, name := range names {
			sys.Drop(name) //nolint:errcheck — cleanup
		}
	})
}

// benchBinder binds Vars positionally for the vexec alloc-budget bench.
type benchBinder struct{}

func (benchBinder) BindVar(v *algebra.Var) (int, error) { return v.Col, nil }
func (benchBinder) BindSubLink(*algebra.SubLink) (algebra.SubLinkValue, error) {
	return nil, fmt.Errorf("no sublinks")
}

// allocPipeline builds the guards' scan→filter→project pipeline over a
// 32k-row two-column table: σ(a%3=0) then π(a+b, b). Compiled expressions
// carry per-instance scratch state, so every call compiles its own
// copies, exactly as the planner does per worker replica.
func allocPipeline(b *testing.B, cols []*vector.Vec, n int) (*vexec.ColScan, vexec.Node) {
	b.Helper()
	v := func(col int) algebra.Expr { return &algebra.Var{RT: 0, Col: col, Typ: types.KindInt} }
	c := func(x int64) algebra.Expr { return &algebra.Const{Val: types.NewInt(x)} }
	pred, err := vexec.CompileExpr(&algebra.BinOp{
		Op:    "=",
		Left:  &algebra.BinOp{Op: "%", Left: v(0), Right: c(3), Typ: types.KindInt},
		Right: c(0), Typ: types.KindBool,
	}, benchBinder{})
	if err != nil {
		b.Fatal(err)
	}
	proj, err := vexec.CompileExprs([]algebra.Expr{
		&algebra.BinOp{Op: "+", Left: v(0), Right: v(1), Typ: types.KindInt},
		v(1),
	}, benchBinder{})
	if err != nil {
		b.Fatal(err)
	}
	scan := vexec.NewColScan(cols, n)
	return scan, vexec.NewProject(vexec.NewFilter(scan, pred), proj)
}

// Allocation budgets of one full drain of the 32k-row pipeline.
const (
	// Serial: the batch-buffer pool makes the per-batch cost O(1) small
	// allocations (batch headers and selection reslices); without pooling,
	// every batch would allocate fresh result vectors and the count
	// explodes by an order of magnitude.
	allocBudgetPerDrain = 600
	// Behind a 4-worker Exchange: worker-side batches still recycle
	// through the shared (goroutine-safe) buffer pool, and so do the
	// morsels the exchange buffers — handed-over snapshot views and
	// pooled copies, in pooled holders — leaving the per-batch constant of
	// the serial pipeline plus the per-Open helper goroutines: 99 a drain
	// on a 2-CPU Xeon, where the consumer's own worker streams most of
	// the 32 batches. The budget is that plus half again, so two more
	// allocations per emitted batch break it: pooled buffers crossing
	// goroutines (each would need a defensive copy) or an exchange that
	// stopped recycling what it emits. How many batches helpers buffer
	// depends on the core count, so a fresh allocation per buffered batch
	// shows only in proportion.
	allocBudgetPerParallelDrain = 150
)

// joinBackBytesPerRow bounds what a join-back whose T+ is 8 snapshot
// columns allocates per input row: its store keeps a row id and a group id
// (8 bytes) and gathers the columns from the snapshot on emission into
// pooled batches. Copying the columns into the store costs over 70.
const joinBackBytesPerRow = 16

// joinBackPipeline builds rule R5's join-back over an n-row table of 8 int
// columns, all of which T+ reads from the scan's snapshot by row id:
// count(*) grouped by the 97 values of column 1, attached to every row.
func joinBackPipeline(b *testing.B, n int) vexec.Node {
	b.Helper()
	const width = 8
	rows := make([]types.Row, n)
	kinds := make([]types.Kind, width)
	vars := make([]algebra.Expr, width)
	for c := range kinds {
		kinds[c], vars[c] = types.KindInt, &algebra.Var{RT: 0, Col: c, Typ: types.KindInt}
	}
	for i := range rows {
		rows[i] = make(types.Row, width)
		for c := range rows[i] {
			rows[i][c] = types.NewInt(int64(i % (97 + c)))
		}
	}
	cols, ok := vector.FromRows(rows, kinds)
	if !ok {
		b.Fatal("rows do not pivot")
	}
	prov, err := vexec.CompileExprs(vars, benchBinder{})
	if err != nil {
		b.Fatal(err)
	}
	keys, err := vexec.CompileExprs(vars[1:2], benchBinder{})
	if err != nil {
		b.Fatal(err)
	}
	out, err := vexec.CompileExprs(vars[:2], benchBinder{})
	if err != nil {
		b.Fatal(err)
	}
	scan := vexec.NewColScan(cols, n)
	scan.RowIDs = true
	att := vexec.NewAggAttach(scan, prov, false)
	att.Snap, att.RowID = cols, width
	att.ProvKeys, att.AggKeys = []int{1}, []int{0}
	agg := vexec.NewHashAgg(att.Feed(), keys, []vexec.AggSpec{{Fn: algebra.AggCount, Star: true, ResultKind: types.KindInt}})
	if !att.SetGroups(vexec.NewProject(agg, out)) {
		b.Fatal("aggregation pipeline not recognized")
	}
	return att
}

// allocBudgetPerCompile bounds the allocations of compiling and planning
// one q+ of the two shapes that are most of synth_compile's time: what was
// measured (setop10 9,980, agg10 7,836) plus 20 %. With relation sets as a
// map per call and an optimizer pass per nesting level they cost 15,268
// and 23,930.
var allocBudgetPerCompile = map[string]float64{"setop": 11976, "agg": 9403}

// BenchmarkAllocBudget asserts that the batch-buffer pool keeps a
// vectorized pipeline's steady-state allocation rate flat, serial and
// behind an exchange, and that a join-back keeps its rows as row ids, so
// a regression in the recycling protocol or the join-back store fails
// CI's bench smoke.
func BenchmarkAllocBudget(b *testing.B) {
	const n, workers = 32 * 1024, 4
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 97))}
	}
	cols, ok := vector.FromRows(rows, []types.Kind{types.KindInt, types.KindInt})
	if !ok {
		b.Fatal("rows do not pivot")
	}
	drainer := func(b *testing.B, pipeline vexec.Node) func() {
		return func() {
			if err := pipeline.Open(); err != nil {
				b.Fatal(err)
			}
			for {
				batch, err := pipeline.Next()
				if err != nil {
					b.Fatal(err)
				}
				if batch == nil {
					break
				}
			}
			if err := pipeline.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	guard := func(pipeline vexec.Node, budget float64) func(*testing.B) {
		return func(b *testing.B) {
			drain := drainer(b, pipeline)
			drain() // warm the pool
			allocs := testing.AllocsPerRun(10, drain)
			b.ReportMetric(allocs, "allocs/drain")
			if allocs > budget {
				b.Fatalf("pipeline allocated %.0f times per drain (budget %.0f): batch recycling regressed", allocs, budget)
			}
			for i := 0; i < b.N; i++ {
				drain()
			}
		}
	}
	_, serial := allocPipeline(b, cols, n)
	b.Run("scan-filter-project", guard(serial, allocBudgetPerDrain))

	replicas := make([]vexec.Node, workers)
	for w := range replicas {
		_, replicas[w] = allocPipeline(b, cols, n)
	}
	exchange := vexec.NewExchange(replicas)
	b.Run("parallel-exchange", guard(exchange, allocBudgetPerParallelDrain))

	b.Run("join-back-store", func(b *testing.B) {
		drain := drainer(b, joinBackPipeline(b, n))
		drain()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 5
		for i := 0; i < runs; i++ {
			drain()
		}
		runtime.ReadMemStats(&after)
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / runs / n
		b.ReportMetric(perRow, "B/row")
		if perRow > joinBackBytesPerRow {
			b.Fatalf("join-back allocated %.1f bytes per input row (budget %d): its store copies T+ instead of keeping row ids", perRow, joinBackBytesPerRow)
		}
		for i := 0; i < b.N; i++ {
			drain()
		}
	})

	// A plan-cache miss: what Prepare does to a statement text, then Plan.
	cat := compileCatalog(b, 0.0002)
	for shape, budget := range allocBudgetPerCompile {
		text := compileShape(shape, 10, 40)
		b.Run("compile/"+shape+"10", func(b *testing.B) {
			allocs := testing.AllocsPerRun(5, func() { compileAndPlan(b, cat, text) })
			b.ReportMetric(allocs, "allocs/compile")
			if allocs > budget {
				b.Fatalf("compile + plan allocated %.0f times (budget %.0f): per-call relation sets or per-pass optimizer work are back", allocs, budget)
			}
			for i := 0; i < b.N; i++ {
				compileAndPlan(b, cat, text)
			}
		})
	}
}
