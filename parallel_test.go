package perm_test

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"perm"
	"perm/internal/synth"
	"perm/internal/tpch"
)

// parallelPair returns databases over the same data at worker counts 1
// (the serial baseline — morsel dispatch never engages) and n, both with
// the given memory limit (-1 = unlimited).
func parallelPair(t *testing.T, n int, limit int64, setup func(*perm.Database)) (serial, parallel *perm.Database) {
	t.Helper()
	serial = perm.NewDatabaseWithOptions(perm.Options{Parallelism: 1, MemoryLimit: limit, SpillDir: t.TempDir()})
	parallel = perm.NewDatabaseWithOptions(perm.Options{Parallelism: n, MemoryLimit: limit, SpillDir: t.TempDir()})
	setup(serial)
	setup(parallel)
	return serial, parallel
}

// TestParallelTransparencyBig requires byte-identical output — same
// rows, same order — between serial and parallel plans for every parent
// an exchange can have: scan/filter/project spines on their own, and
// exchanges under aggregates (grouped and global, integer and float),
// sorts, top-N, distinct, set operations and joins.
func TestParallelTransparencyBig(t *testing.T) {
	queries := []string{
		// Exchange over a filtered scan: order must replay morsel order.
		`SELECT a, b, s FROM big WHERE a % 3 = 0`,
		`SELECT a + b, s FROM big WHERE b < 3`,
		// Sort over an exchange: stable ties on b resolved by input order.
		`SELECT a, b, s FROM big ORDER BY b, s`,
		`SELECT a FROM big ORDER BY a DESC LIMIT 10`,
		// Aggregation over an exchange, grouped and global; min/max over
		// strings.
		`SELECT a % 4096, count(*), sum(b), min(s), max(a) FROM big GROUP BY a % 4096`,
		`SELECT count(*), sum(a), min(s), max(s) FROM big`,
		`SELECT b, avg(a), count(*) FROM big GROUP BY b`,
		// Float SUM/AVG: accumulation order is the serial input order.
		`SELECT sum(a * 0.5), avg(b * 1.5) FROM big`,
		`SELECT b, sum(a * 0.25) FROM big GROUP BY b`,
		// Distinct and set operations over exchanged inputs.
		`SELECT DISTINCT a % 8192, b FROM big`,
		`SELECT a % 1000 FROM big INTERSECT ALL SELECT a % 1500 FROM big`,
		`SELECT a % 2000 FROM big UNION SELECT b FROM big`,
		// Joins on the probe spine: hash and the ordered self-join.
		`SELECT count(*), sum(x.a), sum(y.a) FROM big AS x, big AS y WHERE x.a = y.a AND x.b = 1`,
		`SELECT x.a, y.b FROM big AS x JOIN big AS y ON x.a = y.a WHERE x.a < 500 ORDER BY x.a, y.b`,
	}
	for _, workers := range []int{2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			serial, parallel := parallelPair(t, workers, -1, bigTable)
			for _, q := range queries {
				t.Run(q[:minInt(48, len(q))], func(t *testing.T) {
					assertIdenticalResult(t, serial, parallel, q)
				})
			}
			// Parallelism alone must never cause disk traffic: an exchange
			// holds no more than a few batches per worker.
			if st := parallel.QueryStats(); st.BytesSpilled != 0 || st.SpillEvents != 0 {
				t.Fatalf("unlimited parallel database spilled: %+v", st)
			}
			if st := parallel.QueryStats(); st.MemoryInUse != 0 {
				t.Fatalf("parallel workers leaked reservations: %d bytes", st.MemoryInUse)
			}
		})
	}
}

// TestParallelSpillTransparency composes both machines: a 4 MiB budget
// shared by the workers of each query, so parallel execution spills —
// grace joins and partial aggregations under worker reservations — and
// must still be byte-identical to the serial plan under the same budget.
func TestParallelSpillTransparency(t *testing.T) {
	queries := []string{
		`SELECT a, b, s FROM big ORDER BY b, s`,
		`SELECT a % 4096, count(*), sum(b), min(s), max(a) FROM big GROUP BY a % 4096`,
		`SELECT DISTINCT a % 8192, b FROM big`,
		`SELECT a % 997, b FROM big EXCEPT ALL SELECT a % 997, b FROM big WHERE b > 3`,
		`SELECT count(*), sum(x.a), sum(y.a) FROM big AS x, big AS y WHERE x.a = y.a AND x.b = 1`,
		`SELECT x.a, y.b FROM big AS x JOIN big AS y ON x.a = y.a WHERE x.a < 500 ORDER BY x.a, y.b`,
	}
	for _, workers := range []int{2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			serial, parallel := parallelPair(t, workers, 4<<20, bigTable)
			for _, q := range queries {
				t.Run(q[:minInt(48, len(q))], func(t *testing.T) {
					assertIdenticalResult(t, serial, parallel, q)
				})
			}
			if st := parallel.QueryStats(); st.MemoryInUse != 0 {
				t.Fatalf("parallel workers leaked reservations: %d bytes", st.MemoryInUse)
			}
		})
	}
	// A genuinely tiny budget (64 KiB) forces every worker to spill; the
	// cross-worker disk merge must stay exact too.
	serial, parallel := parallelPair(t, 4, 64<<10, bigTable)
	for _, q := range queries {
		assertIdenticalResult(t, serial, parallel, q)
	}
	if st := parallel.QueryStats(); st.BytesSpilled == 0 {
		t.Fatalf("64 KiB parallel budget never spilled: %+v", st)
	}
}

// TestParallelTransparencyFig10 runs the Fig. 10 TPC-H provenance
// workload serial vs parallel, normal and rewritten.
func TestParallelTransparencyFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H parallel test skipped with -short")
	}
	const sf = 0.002
	for _, workers := range []int{2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			serial, parallel := parallelPair(t, workers, -1, func(db *perm.Database) {
				tpch.MustLoad(db, sf, 42)
			})
			rng := tpch.NewRand(7)
			for _, n := range []int{1, 3, 10, 15} {
				q := tpch.MustQGen(n, rng)
				for _, db := range []*perm.Database{serial, parallel} {
					for _, s := range q.Setup {
						db.MustExec(s)
					}
				}
				assertIdenticalResult(t, serial, parallel, q.Text)
				assertIdenticalResult(t, serial, parallel, q.Provenance().Text)
				for _, db := range []*perm.Database{serial, parallel} {
					for _, s := range q.Teardown {
						db.MustExec(s)
					}
				}
			}
			if st := parallel.QueryStats(); st.BytesSpilled != 0 {
				t.Fatalf("unlimited parallel database spilled: %+v", st)
			}
		})
	}
}

// TestParallelFig10UnderBudget reruns the Fig. 10 workload with both
// sides under the 4 MiB session budget of the spill suite: parallel +
// spill must compose without output drift.
func TestParallelFig10UnderBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H parallel spill test skipped with -short")
	}
	const sf = 0.002
	serial, parallel := parallelPair(t, 4, 4<<20, func(db *perm.Database) {
		tpch.MustLoad(db, sf, 42)
	})
	rng := tpch.NewRand(7)
	for _, n := range []int{1, 3, 10, 15} {
		q := tpch.MustQGen(n, rng)
		for _, db := range []*perm.Database{serial, parallel} {
			for _, s := range q.Setup {
				db.MustExec(s)
			}
		}
		assertIdenticalResult(t, serial, parallel, q.Text)
		assertIdenticalResult(t, serial, parallel, q.Provenance().Text)
		for _, db := range []*perm.Database{serial, parallel} {
			for _, s := range q.Teardown {
				db.MustExec(s)
			}
		}
	}
	if st := parallel.QueryStats(); st.MemoryInUse != 0 {
		t.Fatalf("parallel workers leaked reservations: %d bytes", st.MemoryInUse)
	}
}

// TestParallelSynthCorpora runs the generated §V-B workloads — SPJ
// chains, set-operation trees and aggregation chains — normal and with
// provenance, serial vs parallel.
func TestParallelSynthCorpora(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H parallel corpus skipped with -short")
	}
	const sf = 0.002
	serial, parallel := parallelPair(t, 4, -1, func(db *perm.Database) {
		tpch.MustLoad(db, sf, 42)
	})
	maxKey, err := serial.TableRowCount("part")
	if err != nil {
		t.Fatal(err)
	}
	var queries []string
	for seed := uint64(1); seed <= 4; seed++ {
		rng := tpch.NewRand(seed)
		queries = append(queries, synth.SPJQuery(rng, int(seed)+1, maxKey))
		queries = append(queries, synth.SetOpQuery(rng, int(seed)+1, maxKey))
		queries = append(queries, synth.AggChainQuery(int(seed), maxKey))
	}
	for _, q := range queries {
		assertIdenticalResult(t, serial, parallel, q)
		assertIdenticalResult(t, serial, parallel, injectProv(q))
	}
	if st := parallel.QueryStats(); st.BytesSpilled != 0 {
		t.Fatalf("unlimited parallel database spilled: %+v", st)
	}
}

// TestParallelExplainAnnotation pins the EXPLAIN surface: the exchange
// is the one operator that reports a worker count, an aggregate or sort
// above it carries none, and a serial handle over the same data never
// shows one.
func TestParallelExplainAnnotation(t *testing.T) {
	serial, parallel := parallelPair(t, 4, -1, bigTable)
	cases := []struct {
		query string
		above string // the operator directly over the exchange, if any
	}{
		{`SELECT a FROM big WHERE a % 3 = 0`, ""},
		{`SELECT b, count(*) FROM big GROUP BY b`, "VecHashAggregate"},
		{`SELECT a FROM big ORDER BY a`, "VecSort"},
	}
	for _, c := range cases {
		plan, err := parallel.ExplainSQL(c.query)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(plan, "\n")
		ex := -1
		for i, l := range lines {
			if strings.TrimLeft(l, " ") == "Exchange (workers=4)" {
				ex = i
			} else if strings.Contains(l, "workers=") {
				t.Fatalf("parallel EXPLAIN of %q shows workers outside an exchange:\n%s", c.query, plan)
			}
		}
		if ex < 0 {
			t.Fatalf("parallel EXPLAIN of %q lacks Exchange (workers=4):\n%s", c.query, plan)
		}
		if c.above != "" && (ex == 0 || !strings.HasPrefix(strings.TrimLeft(lines[ex-1], " "), c.above+" ")) {
			t.Fatalf("parallel EXPLAIN of %q: the exchange is not directly below %s:\n%s", c.query, c.above, plan)
		}
		splan, err := serial.ExplainSQL(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(splan, "workers=") {
			t.Fatalf("serial EXPLAIN of %q mentions workers:\n%s", c.query, splan)
		}
		// EXPLAIN ANALYZE: morsels per worker, the consumer's own worker
		// first, covering big's 32 morsels once, and the most morsels
		// buffered at once, within the run-ahead window of 4.
		report, err := parallel.ExplainAnalyzeSQL(c.query)
		if err != nil {
			t.Fatal(err)
		}
		m := exchangeAnnotRe.FindStringSubmatch(report)
		if m == nil {
			t.Fatalf("EXPLAIN ANALYZE of %q lacks the exchange's morsel annotation:\n%s", c.query, report)
		}
		counts, total := strings.Fields(m[1]), 0
		for _, f := range counts {
			n, _ := strconv.Atoi(f)
			total += n
		}
		if len(counts) != 4 || total != 32 {
			t.Fatalf("morsels/worker=[%s] of %q: want 4 workers sharing 32 morsels", m[1], c.query)
		}
		if peak, _ := strconv.Atoi(m[2]); peak < 0 || peak > 4 {
			t.Fatalf("buffered_peak=%d of %q exceeds the run-ahead window of 4", peak, c.query)
		}
	}
}

// exchangeAnnotRe matches an exchange's EXPLAIN ANALYZE annotation.
var exchangeAnnotRe = regexp.MustCompile(`Exchange \(workers=4\) \(actual .*morsels/worker=\[([0-9 ]+)\] buffered_peak=([0-9]+)`)

// TestBenchShapesPlanOnlyExchanges: the TPC-H statements the benchmark
// times (Q1/3/5/6/10/12/14 as q and q+, at SF 0.01) plan at 4 workers
// with exchanges as their only parallel operators, and some of them do
// plan one.
func TestBenchShapesPlanOnlyExchanges(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{Parallelism: 4})
	tpch.MustLoad(db, 0.01, 42)
	exchanges := 0
	for seed := uint64(1); seed <= 3; seed++ {
		rng := tpch.NewRand(seed)
		for _, n := range []int{1, 3, 5, 6, 10, 12, 14} {
			q := tpch.MustQGen(n, rng)
			for _, text := range []string{q.Text, q.Provenance().Text} {
				plan, err := db.ExplainSQL(text)
				if err != nil {
					t.Fatalf("Q%d: %v", n, err)
				}
				for _, l := range strings.Split(plan, "\n") {
					if !strings.Contains(l, "workers=") {
						continue
					}
					if !strings.HasPrefix(strings.TrimLeft(l, " "), "Exchange (workers=4)") {
						t.Fatalf("Q%d plans a parallel operator other than an exchange: %q\n%s", n, l, plan)
					}
					exchanges++
				}
			}
		}
	}
	if exchanges == 0 {
		t.Fatal("no benchmark statement planned an exchange")
	}
}
