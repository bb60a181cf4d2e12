package perm_test

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"perm"
	"perm/internal/fault"
	"perm/internal/obs"
	"perm/internal/tpch"
)

// assertNoLeftovers requires a database to hold no reservation and the
// process no open spill file (goroutines are leakCheck's).
func assertNoLeftovers(t *testing.T, db *perm.Database) {
	t.Helper()
	if inUse := db.QueryStats().MemoryInUse; inUse != 0 {
		t.Fatalf("reserved memory after the query = %d, want 0", inUse)
	}
	if fds := leakedSpillFDs(); len(fds) != 0 {
		t.Fatalf("open spill files after the query: %v", fds)
	}
}

// TestExchangeWorkerPanics: the worker.panic fault point fires on the
// worker the consumer's goroutine runs as well as on helpers, and a
// panic in either leaves no goroutine, reservation or spill file behind.
// (A helper's panic before the consumer's first pull is pinned in
// internal/vexec.)
func TestExchangeWorkerPanics(t *testing.T) {
	leakCheck(t)
	cases := []struct {
		name, spec, query string
		limit             int64
		plan              string // what EXPLAIN ANALYZE must show without the fault
	}{
		// Every pull panics: the consumer's worker claims morsel 0 and
		// streams it, so its own first pull is the one that fails.
		{"caller", "worker.panic:1000000", `SELECT a, b, s FROM big WHERE b >= 0`, -1, "morsels/worker="},
		// The build side overflows 48 KiB and goes Grace, so worker 0 runs
		// the serial plan alone with spill files open when it panics.
		{"spilled-build", "worker.panic:1", `SELECT x.a, y.s FROM big AS x JOIN big AS y ON x.a = y.a WHERE y.b < 3`,
			48 << 10, "serial=spilled-build"},
		// A pull in the middle of the stream panics, on whichever worker
		// makes it, while the sort above the exchange holds spilled runs.
		{"mid-stream", "worker.panic:0.05;seed=3", `SELECT a, b, s FROM big ORDER BY b, s`, 48 << 10, "spills="},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serial, parallel := parallelPair(t, 2, c.limit, bigTable)
			report, err := parallel.ExplainAnalyzeSQL(c.query)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(report, c.plan) {
				t.Fatalf("EXPLAIN ANALYZE lacks %q:\n%s", c.plan, report)
			}
			inj := mustInjector(t, c.spec)
			restore := fault.Set(inj)
			before := obs.PanicsRecovered.Load()
			_, err = parallel.Query(c.query)
			restore()
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("query with a panicking worker: err = %v", err)
			}
			if obs.PanicsRecovered.Load() <= before {
				t.Fatal("recovered panic not counted")
			}
			assertNoLeftovers(t, parallel)
			assertIdenticalResult(t, serial, parallel, c.query)
		})
	}
}

// TestExchangeFirstMorselErrorWins: one row of morsel 1 and one of a
// later morsel divide by zero. A 2-worker plan reports morsel 1's error
// after exactly the rows the serial plan delivered before it — morsel 0
// and morsel 1's first batch — whichever worker hit which error first.
// Morsel 5 lies beyond the run-ahead window of morsel 1; morsel 2 lies
// within it, where the consumer's own worker may fail it first.
func TestExchangeFirstMorselErrorWins(t *testing.T) {
	leakCheck(t)
	serial, parallel := parallelPair(t, 2, -1, bigTable)
	fetch := func(db *perm.Database, query string) (int, error) {
		p, err := db.Prepare(query)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := p.Start()
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		rows, err := cur.Fetch(0)
		return len(rows), err
	}
	for _, later := range []int{5, 2} {
		// Row 1500 of morsel 1 (its second batch) and row 10 of the later
		// morsel; a morsel is 2048 rows and a is the row's position.
		query := fmt.Sprintf(`SELECT a, 1000000 / ((a - %d) * (a - %d)) FROM big`, 2048+1500, later*2048+10)
		wantRows, wantErr := fetch(serial, query)
		if wantErr == nil || wantRows != 2048+1024 {
			t.Fatalf("serial plan: %d rows, err %v; want morsel 0 and one batch of morsel 1, then the error",
				wantRows, wantErr)
		}
		for run := 0; run < 20; run++ {
			gotRows, gotErr := fetch(parallel, query)
			if gotErr == nil || gotErr.Error() != wantErr.Error() || gotRows != wantRows {
				t.Fatalf("morsels 1 and %d, run %d: parallel plan delivered %d rows, then %v; serial %d rows, then %v",
					later, run, gotRows, gotErr, wantRows, wantErr)
			}
		}
	}
	assertNoLeftovers(t, parallel)
}

// TestExchangeCursorClose: closing a cursor mid-stream on a 2-worker
// plan stops the helper (leakCheck) and releases everything it held.
func TestExchangeCursorClose(t *testing.T) {
	leakCheck(t)
	_, parallel := parallelPair(t, 2, 4<<20, bigTable)
	p, err := parallel.Prepare(`SELECT a, b, s FROM big WHERE a % 3 = 0`)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 10; run++ {
		cur, err := p.Start()
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := cur.Fetch(10); err != nil || len(rows) != 10 {
			t.Fatalf("fetch: %d rows, %v", len(rows), err)
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
	}
	assertNoLeftovers(t, parallel)
}

var (
	scanRowsRe = regexp.MustCompile(`^\s*(VecScan \([^)]*\)) \(actual time=\S+ rows=([0-9]+)`)
	peakRe     = regexp.MustCompile(`peak memory ([0-9]+)B`)
)

// buildScans returns the probed scans of an EXPLAIN ANALYZE report by
// label, and the plan's peak reservation.
func buildScans(t *testing.T, report string) (map[string]int, int) {
	t.Helper()
	scans := map[string]int{}
	for _, line := range strings.Split(report, "\n") {
		if m := scanRowsRe.FindStringSubmatch(line); m != nil {
			scans[m[1]], _ = strconv.Atoi(m[2])
		}
	}
	m := peakRe.FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("no peak memory in\n%s", report)
	}
	peak, _ := strconv.Atoi(m[1])
	return scans, peak
}

// TestExchangeSharesBuilds: a 2-worker Q3 at SF 0.01 builds each hash
// join on its probe spine once. Its build scans, which worker 0 runs and
// EXPLAIN ANALYZE probes, read as many rows as the serial plan's, and
// its peak session reservation is no larger than the serial plan's.
func TestExchangeSharesBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H shared-build test skipped with -short")
	}
	serial, parallel := parallelPair(t, 2, 64<<20, func(db *perm.Database) { tpch.MustLoad(db, 0.01, 42) })
	for seed := uint64(1); seed <= 3; seed++ {
		q := tpch.MustQGen(3, tpch.NewRand(seed))
		for _, text := range []string{q.Text, q.Provenance().Text} {
			sreport, err := serial.ExplainAnalyzeSQL(text)
			if err != nil {
				t.Fatal(err)
			}
			preport, err := parallel.ExplainAnalyzeSQL(text)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(preport, "Exchange (workers=2)") {
				t.Fatalf("no exchange in\n%s", preport)
			}
			want, speak := buildScans(t, sreport)
			got, ppeak := buildScans(t, preport)
			if len(got) < 2 {
				t.Fatalf("want the two build scans probed, got %v in\n%s", got, preport)
			}
			for label, rows := range got {
				if rows != want[label] {
					t.Fatalf("%s read %d rows at 2 workers, %d serially:\n%s\n%s", label, rows, want[label], preport, sreport)
				}
			}
			if ppeak > speak {
				t.Fatalf("peak reservation %dB at 2 workers > %dB serially", ppeak, speak)
			}
			assertIdenticalResult(t, serial, parallel, text)
		}
	}
}

// TestExchangeSpilledBuildRunsSerial: under a 48 KiB budget a spine
// join's build overflows and goes Grace; the exchange then runs worker 0
// alone, and the result is byte-identical to the serial plan's under the
// same budget and to the unbudgeted one's.
func TestExchangeSpilledBuildRunsSerial(t *testing.T) {
	leakCheck(t)
	queries := []string{
		`SELECT x.a, y.s FROM big AS x JOIN big AS y ON x.a = y.a WHERE y.b < 3`,
		`SELECT y.b, count(*), sum(x.a) FROM big AS x JOIN big AS y ON x.a = y.a + 1 GROUP BY y.b`,
	}
	serial, parallel := parallelPair(t, 2, 48<<10, bigTable)
	unlimited := perm.NewDatabaseWithOptions(perm.Options{Parallelism: 2, MemoryLimit: -1})
	bigTable(unlimited)
	for _, q := range queries {
		report, err := parallel.ExplainAnalyzeSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(report, "Exchange (workers=2)") || !strings.Contains(report, "serial=spilled-build") {
			t.Fatalf("want an exchange degraded by its spilled build:\n%s", report)
		}
		assertIdenticalResult(t, serial, parallel, q)
		assertIdenticalResult(t, unlimited, parallel, q)
	}
	assertNoLeftovers(t, parallel)
}

// TestExchangeFanOutBounded: a cross join on the replicated spine fans
// each 2048-row morsel of big out to 32 batches. Under a 256 KiB budget
// the exchange's buffers, which reserve nothing, still hold no more
// than slotBatches batches per run-ahead slot, and a LIMIT above the
// exchange stops the helpers without draining the product.
func TestExchangeFanOutBounded(t *testing.T) {
	leakCheck(t)
	setup := func(db *perm.Database) {
		bigTable(db)
		db.MustExec(`CREATE TABLE sm (k int)`)
		db.MustExec(`INSERT INTO sm VALUES (1), (2), (3), (4), (5), (6), (7), (8), (9), (10), (11), (12), (13), (14), (15), (16)`)
	}
	serial, parallel := parallelPair(t, 2, 256<<10, setup)
	for _, q := range []string{
		`SELECT count(*), sum(x.a * s.k) FROM big AS x, sm AS s WHERE x.b >= 0`,
		`SELECT x.a, s.k FROM big AS x, sm AS s WHERE x.b >= 0 LIMIT 5`,
	} {
		report, err := parallel.ExplainAnalyzeSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		m := batchesPeakRe.FindStringSubmatch(report)
		if m == nil || !strings.Contains(report, "VecNestedLoopJoin") {
			t.Fatalf("EXPLAIN ANALYZE of %q lacks an exchange over the cross join:\n%s", q, report)
		}
		// 4 run-ahead slots of 4 batches each.
		if peak, _ := strconv.Atoi(m[1]); peak > 16 {
			t.Fatalf("%q buffered %d batches at once, want at most 16:\n%s", q, peak, report)
		}
		assertIdenticalResult(t, serial, parallel, q)
	}
	assertNoLeftovers(t, parallel)
}

// batchesPeakRe matches the peak of batches an exchange buffered.
var batchesPeakRe = regexp.MustCompile(`Exchange \(workers=2\) \(actual .*batches_peak=([0-9]+)`)
