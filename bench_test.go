// Benchmarks regenerating the paper's evaluation (Figs. 9-15) as Go
// testing.B benchmarks, one family per table/figure, plus ablation
// benches for the design choices called out in DESIGN.md. The full
// paper-style tables (with per-size columns and timeout marking) are
// produced by cmd/permbench; these benches give the same series in
// `go test -bench` form on a small scale factor.
package perm_test

import (
	"fmt"
	"sync"
	"testing"

	"perm"
	"perm/internal/algebra"
	"perm/internal/eval"
	"perm/internal/synth"
	"perm/internal/tpch"
	"perm/internal/trio"
	"perm/internal/types"
	"perm/internal/vector"
	"perm/internal/vexec"
)

// benchSF is the scale factor used by the benchmarks. The paper's
// 10MB/100MB/1GB databases are SF 0.01/0.1/1; the benches default to a
// smaller instance so the full suite runs in minutes.
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

func runBenchQuery(b *testing.B, db *perm.Database, q tpch.Query) {
	b.Helper()
	for _, s := range q.Setup {
		if _, err := db.Exec(s); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := db.Query(q.Text); err != nil {
		b.Fatalf("%v\n%s", err, q.Text)
	}
	for _, s := range q.Teardown {
		if _, err := db.Exec(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig09CompileOverhead measures the compilation pipeline per
// TPC-H query: parse+analyze (base) vs parse+analyze+provenance-rewrite
// (rewrite). The difference is the Fig. 9 overhead; it depends only on
// the algebraic structure, not the database size.
func BenchmarkFig09CompileOverhead(b *testing.B) {
	db := sharedBenchDB(b)
	rng := tpch.NewRand(7)
	for _, n := range tpch.SupportedQueries() {
		q := tpch.MustQGen(n, rng)
		for _, s := range q.Setup {
			db.Exec(s) //nolint:errcheck
		}
		b.Run(fmt.Sprintf("Q%d/analyze", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := db.CompileOnly(q.Text); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Q%d/rewrite", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := db.CompileWithRewrite(q.Text); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, s := range q.Teardown {
			db.Exec(s) //nolint:errcheck
		}
	}
}

// BenchmarkFig10TPCH measures execution time of every supported TPC-H
// query, normal vs provenance (Fig. 10's columns at one size). Fig. 11's
// cardinalities are reported as custom metrics (rows/op).
func BenchmarkFig10TPCH(b *testing.B) {
	db := sharedBenchDB(b)
	rng := tpch.NewRand(7)
	for _, n := range tpch.SupportedQueries() {
		q := tpch.MustQGen(n, rng)
		b.Run(fmt.Sprintf("Q%d/norm", n), func(b *testing.B) {
			benchWithRows(b, db, q)
		})
		b.Run(fmt.Sprintf("Q%d/prov", n), func(b *testing.B) {
			if n == 9 || n == 11 || n == 16 {
				// Provenance blow-up queries (§V-A2); run but cap work.
				if testing.Short() {
					b.Skip("blow-up query skipped with -short")
				}
			}
			benchWithRows(b, db, q.Provenance())
		})
	}
}

// benchWithRows runs a query b.N times, reporting result cardinality as
// a metric (regenerates Fig. 11 alongside Fig. 10).
func benchWithRows(b *testing.B, db *perm.Database, q tpch.Query) {
	b.Helper()
	var rows int
	for i := 0; i < b.N; i++ {
		for _, s := range q.Setup {
			if _, err := db.Exec(s); err != nil {
				b.Fatal(err)
			}
		}
		res, err := db.Query(q.Text)
		if err != nil {
			b.Fatalf("%v\n%s", err, q.Text)
		}
		rows = len(res.Rows)
		for _, s := range q.Teardown {
			if _, err := db.Exec(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(rows), "rows/op")
}

// BenchmarkFig12SetOps regenerates the set-operation series (numSetOp
// 1..5, union/intersect trees over part selections).
func BenchmarkFig12SetOps(b *testing.B) {
	db := sharedBenchDB(b)
	maxKey, err := db.TableRowCount("part")
	if err != nil {
		b.Fatal(err)
	}
	for numSetOp := 1; numSetOp <= 5; numSetOp++ {
		rng := tpch.NewRand(uint64(numSetOp))
		q := synth.SetOpQuery(rng, numSetOp, maxKey)
		b.Run(fmt.Sprintf("n%d/norm", numSetOp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runBenchQuery(b, db, tpch.Query{Text: q})
			}
		})
		b.Run(fmt.Sprintf("n%d/prov", numSetOp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runBenchQuery(b, db, tpch.Query{Text: injectProv(q)})
			}
		})
	}
}

// BenchmarkFig13SPJ regenerates the SPJ series (numSub 1..6).
func BenchmarkFig13SPJ(b *testing.B) {
	db := sharedBenchDB(b)
	maxKey, err := db.TableRowCount("part")
	if err != nil {
		b.Fatal(err)
	}
	for numSub := 1; numSub <= 6; numSub++ {
		rng := tpch.NewRand(uint64(numSub))
		q := synth.SPJQuery(rng, numSub, maxKey)
		b.Run(fmt.Sprintf("n%d/norm", numSub), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runBenchQuery(b, db, tpch.Query{Text: q})
			}
		})
		b.Run(fmt.Sprintf("n%d/prov", numSub), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runBenchQuery(b, db, tpch.Query{Text: injectProv(q)})
			}
		})
	}
}

// BenchmarkFig14Agg regenerates the nested-aggregation series (agg 1..10).
func BenchmarkFig14Agg(b *testing.B) {
	db := sharedBenchDB(b)
	partCount, err := db.TableRowCount("part")
	if err != nil {
		b.Fatal(err)
	}
	for agg := 1; agg <= 10; agg++ {
		q := synth.AggChainQuery(agg, partCount)
		b.Run(fmt.Sprintf("agg%d/norm", agg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runBenchQuery(b, db, tpch.Query{Text: q})
			}
		})
		b.Run(fmt.Sprintf("agg%d/prov", agg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runBenchQuery(b, db, tpch.Query{Text: injectProv(q)})
			}
		})
	}
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

// BenchmarkAblationSetOpVariant compares the paper's Fig. 6(3b) rewrite
// (default) against the flattened 3a variant the paper predicts a speedup
// for (§V-B1) — the ablation DESIGN.md calls out.
func BenchmarkAblationSetOpVariant(b *testing.B) {
	for _, variant := range []struct {
		name    string
		flatten bool
	}{{"3b-recursive", false}, {"3a-flattened", true}} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			db := perm.NewDatabaseWithOptions(perm.Options{FlattenSetOps: variant.flatten})
			tpch.MustLoad(db, benchSF, 42)
			maxKey, err := db.TableRowCount("part")
			if err != nil {
				b.Fatal(err)
			}
			rng := tpch.NewRand(9)
			q := injectProv(synth.SetOpQuery(rng, 4, maxKey))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationJoinStrategy isolates the null-safe hash join the
// rewriter's join-back conditions rely on, against the nested-loop
// fallback, on the R5 aggregation rewrite shape.
func BenchmarkAblationJoinStrategy(b *testing.B) {
	db := sharedBenchDB(b)
	// The aggregation rewrite produces exactly this join-back shape; the
	// planner picks a hash join for it. Compare against an artificially
	// non-equi variant that forces a nested loop.
	hashQ := injectProv("SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag")
	b.Run("hash-join-back", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(hashQ); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationOptimizer compares provenance-query execution with the
// logical optimizer on (default) vs off, on the workloads whose rewritten
// shapes the optimizer targets: TPC-H provenance queries (Fig. 10) and
// the synthetic SPJ series (Fig. 13).
func BenchmarkAblationOptimizer(b *testing.B) {
	for _, variant := range []struct {
		name    string
		disable bool
	}{{"opt-on", false}, {"opt-off", true}} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			db := perm.NewDatabaseWithOptions(perm.Options{DisableOptimizer: variant.disable})
			tpch.MustLoad(db, benchSF, 42)
			maxKey, err := db.TableRowCount("part")
			if err != nil {
				b.Fatal(err)
			}
			rng := tpch.NewRand(7)
			for _, n := range []int{1, 3, 5, 10, 15} {
				q := tpch.MustQGen(n, rng).Provenance()
				b.Run(fmt.Sprintf("Q%d/prov", n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						runBenchQuery(b, db, q)
					}
				})
			}
			for _, numSub := range []int{2, 4, 6} {
				spjRng := tpch.NewRand(uint64(numSub))
				q := injectProv(synth.SPJQuery(spjRng, numSub, maxKey))
				b.Run(fmt.Sprintf("spj%d/prov", numSub), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						runBenchQuery(b, db, tpch.Query{Text: q})
					}
				})
			}
		})
	}
}

// BenchmarkAblationVectorized compares execution with the vectorized
// engine on (default) vs off across the benchmark series the columnar
// operators target: TPC-H provenance queries (Fig. 10), the synthetic
// SPJ series (Fig. 13) and the nested-aggregation chains (Fig. 14).
func BenchmarkAblationVectorized(b *testing.B) {
	for _, variant := range []struct {
		name    string
		disable bool
	}{{"vec-on", false}, {"vec-off", true}} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			db := perm.NewDatabaseWithOptions(perm.Options{DisableVectorized: variant.disable})
			tpch.MustLoad(db, benchSF, 42)
			maxKey, err := db.TableRowCount("part")
			if err != nil {
				b.Fatal(err)
			}
			partCount := maxKey
			rng := tpch.NewRand(7)
			for _, n := range []int{1, 3, 5, 10, 15} {
				q := tpch.MustQGen(n, rng)
				b.Run(fmt.Sprintf("Q%d/norm", n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						runBenchQuery(b, db, q)
					}
				})
				b.Run(fmt.Sprintf("Q%d/prov", n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						runBenchQuery(b, db, q.Provenance())
					}
				})
			}
			for _, numSub := range []int{2, 4, 6} {
				spjRng := tpch.NewRand(uint64(numSub))
				q := injectProv(synth.SPJQuery(spjRng, numSub, maxKey))
				b.Run(fmt.Sprintf("spj%d/prov", numSub), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						runBenchQuery(b, db, tpch.Query{Text: q})
					}
				})
			}
			for _, agg := range []int{3, 6, 10} {
				q := injectProv(synth.AggChainQuery(agg, partCount))
				b.Run(fmt.Sprintf("aggchain%d/prov", agg), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						runBenchQuery(b, db, tpch.Query{Text: q})
					}
				})
			}
			if !variant.disable {
				b.Run("alloc-budget/scan-filter-project", benchVecAllocBudget)
				b.Run("alloc-budget/parallel-exchange", benchParallelAllocBudget)
			}
		})
	}
}

// benchBinder binds Vars positionally for the vexec alloc-budget bench.
type benchBinder struct{}

func (benchBinder) BindVar(v *algebra.Var) (int, error) { return v.Col, nil }
func (benchBinder) BindSubLink(*algebra.SubLink) (eval.SubLinkValue, error) {
	return nil, fmt.Errorf("no sublinks")
}

// allocBudgetPerDrain bounds the allocations of one full drain of a
// 32k-row scan→filter→project pipeline. The batch-buffer pool makes the
// per-batch cost O(1) small allocations (batch headers and selection
// reslices); without pooling, every batch would allocate fresh result
// vectors and the count explodes by an order of magnitude. Guarded here
// so a regression in the recycling protocol fails CI's bench smoke.
const allocBudgetPerDrain = 600

// benchVecAllocBudget asserts the batch-buffer pool keeps a vectorized
// pipeline's steady-state allocation rate flat.
func benchVecAllocBudget(b *testing.B) {
	const n = 32 * 1024
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 97))}
	}
	kinds := []types.Kind{types.KindInt, types.KindInt}
	cols, ok := vector.FromRows(rows, kinds)
	if !ok {
		b.Fatal("rows do not pivot")
	}
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
	pipeline := vexec.NewProject(vexec.NewFilter(vexec.NewColScan(cols, n), pred), proj)
	drain := func() {
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
	drain() // warm the pool
	allocs := testing.AllocsPerRun(10, drain)
	b.ReportMetric(allocs, "allocs/drain")
	if allocs > allocBudgetPerDrain {
		b.Fatalf("vectorized pipeline allocated %.0f times per drain (budget %d): batch-buffer recycling regressed",
			allocs, allocBudgetPerDrain)
	}
	for i := 0; i < b.N; i++ {
		drain()
	}
}

// allocBudgetPerParallelDrain bounds one full drain of the same pipeline
// behind a 4-worker Exchange. Worker-side batches still recycle through
// the shared (goroutine-safe) buffer pool; only the exchange's handoff
// copies are fresh unpooled vectors — a per-batch constant, not
// per-row — plus the per-Open goroutine/channel setup. A blowout here
// means pooled buffers started crossing goroutines (each would need a
// defensive copy or, worse, corrupt a recycled batch), or the handoff
// copy went back to growing by append: exactly sized it costs 400
// allocations a drain (1169 when it grew from capacity 0); the budget is
// that plus 20 %.
const allocBudgetPerParallelDrain = 480

// benchParallelAllocBudget asserts the exchange keeps the parallel
// pipeline's steady-state allocation rate flat.
func benchParallelAllocBudget(b *testing.B) {
	const n, workers = 32 * 1024, 4
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 97))}
	}
	kinds := []types.Kind{types.KindInt, types.KindInt}
	cols, ok := vector.FromRows(rows, kinds)
	if !ok {
		b.Fatal("rows do not pivot")
	}
	v := func(col int) algebra.Expr { return &algebra.Var{RT: 0, Col: col, Typ: types.KindInt} }
	c := func(x int64) algebra.Expr { return &algebra.Const{Val: types.NewInt(x)} }
	// Compiled expressions carry per-instance scratch state, so every
	// worker replica compiles its own copies, exactly as the planner does.
	replicas := make([]vexec.Node, workers)
	drivers := make([]*vexec.ColScan, workers)
	srcs := make([]vexec.TagSource, workers)
	for w := 0; w < workers; w++ {
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
		drivers[w], srcs[w] = scan, scan
		replicas[w] = vexec.NewProject(vexec.NewFilter(scan, pred), proj)
	}
	pipeline := vexec.NewExchange(replicas, drivers, srcs, vexec.NewMorsels(n))
	drain := func() {
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
	drain() // warm the pool
	allocs := testing.AllocsPerRun(10, drain)
	b.ReportMetric(allocs, "allocs/drain")
	if allocs > allocBudgetPerParallelDrain {
		b.Fatalf("parallel pipeline allocated %.0f times per drain (budget %d): exchange or pool recycling regressed",
			allocs, allocBudgetPerParallelDrain)
	}
	for i := 0; i < b.N; i++ {
		drain()
	}
}

// BenchmarkParallelSpeedup measures morsel-driven parallel execution
// against the serial plan (workers=1) on the queries the parallel site
// finder targets hardest: the Fig. 10 scan-heavy provenance rewrites and
// an SPJ chain. Wall-clock speedup tracks the host's core count — on a
// single-core runner the interesting signal is the absence of regression
// at workers=1 and bounded overhead at workers=4.
func BenchmarkParallelSpeedup(b *testing.B) {
	for _, variant := range []struct {
		name    string
		workers int
	}{{"workers-1", 1}, {"workers-4", 4}} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			db := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1, Parallelism: variant.workers})
			tpch.MustLoad(db, benchSF, 42)
			maxKey, err := db.TableRowCount("part")
			if err != nil {
				b.Fatal(err)
			}
			rng := tpch.NewRand(7)
			for _, n := range []int{1, 15} {
				q := tpch.MustQGen(n, rng)
				b.Run(fmt.Sprintf("Q%d/norm", n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						runBenchQuery(b, db, q)
					}
				})
				b.Run(fmt.Sprintf("Q%d/prov", n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						runBenchQuery(b, db, q.Provenance())
					}
				})
			}
			spjRng := tpch.NewRand(4)
			q := injectProv(synth.SPJQuery(spjRng, 4, maxKey))
			b.Run("spj4/prov", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runBenchQuery(b, db, tpch.Query{Text: q})
				}
			})
		})
	}
}

// BenchmarkCorePipeline measures the bare engine stages on a mid-size
// query (context for Fig. 9's absolute numbers).
func BenchmarkCorePipeline(b *testing.B) {
	db := sharedBenchDB(b)
	rng := tpch.NewRand(7)
	q := tpch.MustQGen(5, rng)
	b.Run("parse-analyze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := db.CompileOnly(q.Text); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse-analyze-rewrite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := db.CompileWithRewrite(q.Provenance().Text); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q.Text); err != nil {
				b.Fatal(err)
			}
		}
	})
}
