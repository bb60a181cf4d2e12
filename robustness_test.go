package perm_test

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"perm"
	"perm/internal/fault"
	"perm/internal/obs"
	"perm/internal/qcache"
	"perm/internal/session"
	"perm/internal/spill"
	"perm/internal/tpch"
)

// leakCheck snapshots the goroutine count and fails the test if more
// goroutines are still alive at cleanup time (after a settling grace
// period for exiting workers) than at the start.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d at start, %d at cleanup\n%s",
					before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// leakedSpillFDs scans the process's open file descriptors for spill
// temp files (they are unlinked at creation, so a leak is visible only
// as a still-open descriptor). Returns nil on platforms without
// /proc/self/fd.
func leakedSpillFDs() []string {
	if runtime.GOOS != "linux" {
		return nil
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil
	}
	var leaks []string
	for _, e := range ents {
		if dst, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil &&
			strings.Contains(dst, spill.FilePrefix) {
			leaks = append(leaks, dst)
		}
	}
	return leaks
}

func mustInjector(t *testing.T, spec string) *fault.Injector {
	t.Helper()
	inj, err := fault.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestStatementTimeout: a statement exceeding its timeout returns a
// structured timeout error (code, query ID) within twice the timeout —
// in serial, parallel and spilling configurations — and the engine
// stays fully usable.
func TestStatementTimeout(t *testing.T) {
	leakCheck(t)
	// A 65k x 65k cross join: never completes before the timeout.
	const longQuery = `SELECT count(*) FROM big a, big b WHERE a.b + b.b > 1`
	const timeout = time.Second
	cases := []struct {
		name  string
		opts  perm.Options
		query string
	}{
		{"serial", perm.Options{Parallelism: -1}, longQuery},
		{"parallel", perm.Options{Parallelism: 4}, longQuery},
		{"spilling", perm.Options{Parallelism: -1, MemoryLimit: 64 << 10},
			`SELECT a.a, b.a FROM big a, big b ORDER BY a.a - b.a`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.StatementTimeout = timeout
			opts.SpillDir = t.TempDir()
			db := perm.NewDatabaseWithOptions(opts)
			bigTable(db)

			start := time.Now()
			_, err := db.Query(tc.query)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("query exceeding statement_timeout returned no error")
			}
			var qe *obs.QueryError
			if !errors.As(err, &qe) {
				t.Fatalf("timeout error is unstructured: %v", err)
			}
			if qe.Code != obs.CodeTimeout {
				t.Fatalf("timeout error code = %q, want %q (err: %v)", qe.Code, obs.CodeTimeout, err)
			}
			if !strings.HasPrefix(qe.QueryID, "q") {
				t.Fatalf("timeout error query ID = %q, want an engine query ID", qe.QueryID)
			}
			if !strings.Contains(err.Error(), "statement timeout") {
				t.Fatalf("timeout error message = %v, want a statement-timeout message", err)
			}
			if elapsed > 2*timeout {
				t.Fatalf("timeout surfaced after %v, want within %v", elapsed, 2*timeout)
			}
			// No reservations or registry entries linger, and the handle
			// still answers.
			if inUse := db.QueryStats().MemoryInUse; inUse != 0 {
				t.Fatalf("reserved memory after timeout = %d, want 0", inUse)
			}
			res := db.MustQuery(`SELECT count(*) FROM perm_stat_activity`)
			if got := res.Rows[0][0].String(); got != "1" {
				t.Fatalf("activity rows after timeout = %s, want 1 (the observer)", got)
			}
			res = db.MustQuery(`SELECT count(*) FROM big`)
			if got := res.Rows[0][0].String(); got != "65536" {
				t.Fatalf("post-timeout query = %s, want 65536", got)
			}
		})
	}
}

// TestStatementTimeoutEnv: Options.StatementTimeout = 0 defers to
// PERM_STATEMENT_TIMEOUT; a malformed value is ignored (no timeout)
// rather than fatal.
func TestStatementTimeoutEnv(t *testing.T) {
	t.Setenv("PERM_STATEMENT_TIMEOUT", "500ms")
	db := perm.NewDatabaseWithOptions(perm.Options{Parallelism: -1, SpillDir: t.TempDir()})
	bigTable(db)
	_, err := db.Query(`SELECT count(*) FROM big a, big b WHERE a.b + b.b > 1`)
	var qe *obs.QueryError
	if !errors.As(err, &qe) || qe.Code != obs.CodeTimeout {
		t.Fatalf("env-configured timeout: err = %v, want a structured timeout error", err)
	}

	// Negative option wins over the environment; quick queries finish.
	db2 := perm.NewDatabaseWithOptions(perm.Options{StatementTimeout: -1})
	db2.MustExec(`CREATE TABLE t (x int); INSERT INTO t VALUES (1)`)
	time.Sleep(600 * time.Millisecond) // longer than the env timeout
	if _, err := db2.Query(`SELECT x FROM t`); err != nil {
		t.Fatalf("explicitly disabled timeout still fired: %v", err)
	}

	t.Setenv("PERM_STATEMENT_TIMEOUT", "not-a-duration")
	db3 := perm.NewDatabase()
	db3.MustExec(`CREATE TABLE u (x int)`)
	if _, err := db3.Query(`SELECT x FROM u`); err != nil {
		t.Fatalf("malformed PERM_STATEMENT_TIMEOUT broke queries: %v", err)
	}
}

// TestSetStatementTimeout drives the session dialect: plain integers are
// milliseconds (PostgreSQL convention), durations parse, "off" disarms,
// and 0 restores the server-configured base.
func TestSetStatementTimeout(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{StatementTimeout: 7 * time.Second})
	db.MustExec(`CREATE TABLE t (x int); INSERT INTO t VALUES (1)`)
	sess := session.New(db)
	defer sess.Close()

	steps := []struct {
		value string
		want  time.Duration
	}{
		{"250", 250 * time.Millisecond},
		{"1.5s", 1500 * time.Millisecond},
		{"off", -1},
		{"0", 7 * time.Second},
	}
	for _, st := range steps {
		if _, err := sess.Run("SET statement_timeout = " + st.value); err != nil {
			t.Fatalf("SET statement_timeout = %s: %v", st.value, err)
		}
		if got := sess.DB().Opts().StatementTimeout; got != st.want {
			t.Fatalf("after SET statement_timeout = %s: timeout = %v, want %v", st.value, got, st.want)
		}
		if _, err := sess.Query(`SELECT x FROM t`); err != nil {
			t.Fatalf("query under statement_timeout = %s: %v", st.value, err)
		}
	}
	for _, bad := range []string{"abc", "-5", "-2s"} {
		if _, err := sess.Run("SET statement_timeout = " + bad); err == nil {
			t.Fatalf("SET statement_timeout = %s did not fail", bad)
		}
	}
}

// TestChaosSpillIO: injected spill I/O failures (disk full mid-run,
// read errors on the merge path) surface as clean query errors; every
// reservation and spill file descriptor is released, and once the
// injected fault clears, the retried query returns byte-identical
// results. The queries spill through the external sort (one merge level
// and two), through each grouping operator's partitions — aggregation,
// DISTINCT, a set operation — and through the Grace hash join. A last
// case fails the final spill write of the two-level sort, which lands in
// its last intermediate merge.
func TestChaosSpillIO(t *testing.T) {
	leakCheck(t)
	const (
		join      = `SELECT x.a, y.s FROM big AS x JOIN big AS y ON x.a = y.a WHERE x.b = 1`
		twoLevels = `SELECT a, b, s FROM big UNION ALL SELECT a, b + 1, s FROM big ORDER BY b, s, a`
	)
	queries := []string{
		`SELECT a, b, s FROM big ORDER BY b, a`,
		`SELECT a, count(*), min(s) FROM big GROUP BY a`,
		`SELECT DISTINCT a, s FROM big`,
		`SELECT a, s FROM big EXCEPT ALL SELECT a, s FROM big WHERE b = 0`,
		join,
		twoLevels,
	}
	opts := perm.Options{Parallelism: -1, MemoryLimit: 64 << 10, SpillDir: t.TempDir()}
	clean := perm.NewDatabaseWithOptions(opts)
	bigTable(clean)
	want := make([]string, len(queries))
	for i, q := range queries {
		before := clean.QueryStats().BytesSpilled
		want[i] = clean.MustQuery(q).String()
		if clean.QueryStats().BytesSpilled == before {
			t.Fatalf("reference run of %s did not spill; the fault taps are not exercised", q)
		}
	}
	// The hash join went Grace, and the sort merged in two levels: one
	// level over at most 64 runs writes at most 8 merged runs, so more
	// than 72 spill events take two.
	analyzed := func(q, op string) string {
		for _, line := range strings.Split(clean.MustQuery("EXPLAIN ANALYZE "+q).String(), "\n") {
			if strings.Contains(line, op) {
				return line
			}
		}
		t.Fatalf("EXPLAIN ANALYZE %s has no %s", q, op)
		return ""
	}
	if line := analyzed(join, "HashJoin"); !strings.Contains(line, "spilled=") {
		t.Fatalf("the hash join of %s did not spill: %s", join, line)
	}
	line := analyzed(twoLevels, "VecSort")
	var events int
	if at := strings.Index(line, "spills="); at >= 0 {
		fmt.Sscanf(line[at:], "spills=%d", &events) //nolint:errcheck — events stays 0
	}
	if events <= 72 {
		t.Fatalf("the sort of %s did not merge in two levels: %s", twoLevels, line)
	}
	counter := mustInjector(t, "spill.write:0.0")
	restore := fault.Set(counter)
	clean.MustQuery(twoLevels)
	restore()
	lastWrite := fmt.Sprintf("spill.write:1@%d", counter.Calls(fault.PointSpillWrite))

	// Counting rules: fail the first N calls of the point, then recover —
	// so the in-test retry deterministically succeeds.
	for _, spec := range []string{"spill.write:1", "spill.write:4", "spill.read:1"} {
		t.Run(spec, func(t *testing.T) {
			db := perm.NewDatabaseWithOptions(opts)
			bigTable(db)
			for i, query := range queries {
				got := faultedRun(t, db, spec, query)
				if got.String() != want[i] {
					t.Fatalf("%s: retried query diverges from the clean run", query)
				}
			}
		})
	}
	t.Run(lastWrite, func(t *testing.T) {
		db := perm.NewDatabaseWithOptions(opts)
		bigTable(db)
		if got := faultedRun(t, db, lastWrite, twoLevels); got.String() != want[len(want)-1] {
			t.Fatalf("%s: retried query diverges from the clean run", twoLevels)
		}
	})
}

// faultedRun runs query under the counting fault rule spec: the first
// attempt must fail cleanly, and the result of the first attempt that
// succeeds is returned.
func faultedRun(t *testing.T, db *perm.Database, spec, query string) *perm.Result {
	t.Helper()
	restore := fault.Set(mustInjector(t, spec))
	defer restore()
	_, err := db.Query(query)
	if err == nil {
		t.Fatalf("%s under %s returned no error", query, spec)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("%s: error does not wrap the injected fault: %v", query, err)
	}
	if inUse := db.QueryStats().MemoryInUse; inUse != 0 {
		t.Fatalf("%s: reserved memory after injected failure = %d, want 0", query, inUse)
	}
	if leaks := leakedSpillFDs(); len(leaks) > 0 {
		t.Fatalf("%s: leaked spill files after injected failure: %v", query, leaks)
	}
	// Each aborted attempt consumes one injected failure, so bounded
	// retries drain the counting rule.
	for attempt := 0; ; attempt++ {
		got, err := db.Query(query)
		if err == nil {
			return got
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s: retry attempt %d: %v", query, attempt, err)
		}
		if attempt > 6 {
			t.Fatalf("%s: injected fault never cleared: %v", query, err)
		}
	}
}

// TestChaosMemDenial: probabilistic memory-grant denial forces spills
// but never changes results — injected runs are byte-identical to clean
// ones across sorts, aggregates and provenance rewrites.
func TestChaosMemDenial(t *testing.T) {
	leakCheck(t)
	queries := []string{
		`SELECT a, b, s FROM big ORDER BY b, a`,
		`SELECT b, count(*), min(a) FROM big GROUP BY b ORDER BY b`,
		`SELECT DISTINCT s FROM big ORDER BY s`,
		`SELECT a, s FROM big INTERSECT ALL SELECT a, s FROM big WHERE b < 3`,
	}
	opts := perm.Options{Parallelism: -1, MemoryLimit: 1 << 20, SpillDir: t.TempDir()}
	clean := perm.NewDatabaseWithOptions(opts)
	bigTable(clean)
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = clean.MustQuery(q).String()
	}

	db := perm.NewDatabaseWithOptions(opts)
	bigTable(db)
	restore := fault.Set(mustInjector(t, "mem.grow:0.2;seed=11"))
	defer restore()
	for i, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s under mem.grow injection: %v", q, err)
		}
		if res.String() != want[i] {
			t.Fatalf("%s diverges under mem.grow injection", q)
		}
	}
	if inUse := db.QueryStats().MemoryInUse; inUse != 0 {
		t.Fatalf("reserved memory after injected runs = %d, want 0", inUse)
	}
}

// TestChaosWorkerPanic: a panic inside a parallel exchange worker
// surfaces as one clean query error — no deadlock in the exchange, no
// leaked goroutines or reservations, process alive — and the retry
// returns byte-identical results.
func TestChaosWorkerPanic(t *testing.T) {
	leakCheck(t)
	// No ORDER BY / aggregate: the plan runs the filter pipeline under an
	// Exchange (where the worker.panic tap sits), and morsel-order
	// emission makes the output order deterministic anyway.
	const query = `SELECT a, b, s FROM big WHERE b >= 0`
	serial := perm.NewDatabaseWithOptions(perm.Options{Parallelism: -1, SpillDir: t.TempDir()})
	bigTable(serial)
	want := serial.MustQuery(query)

	db := perm.NewDatabaseWithOptions(perm.Options{Parallelism: 4, SpillDir: t.TempDir()})
	bigTable(db)
	restore := fault.Set(mustInjector(t, "worker.panic:1"))
	defer restore()

	before := obs.PanicsRecovered.Load()
	_, err := db.Query(query)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("query with panicking worker: err = %v, want a worker-panic error", err)
	}
	if obs.PanicsRecovered.Load() <= before {
		t.Fatal("recovered panic not counted")
	}
	if inUse := db.QueryStats().MemoryInUse; inUse != 0 {
		t.Fatalf("reserved memory after worker panic = %d, want 0", inUse)
	}
	got, err := db.Query(query)
	if err != nil {
		t.Fatalf("retry after worker panic: %v", err)
	}
	if got.String() != want.String() {
		t.Fatal("parallel retry diverges from the serial run")
	}
}

// TestTimeoutVsCancelRace: an explicit cancel and a statement timeout
// racing for the same query produce exactly one structured error and
// one counter increment, whichever lands first.
func TestTimeoutVsCancelRace(t *testing.T) {
	aq := &obs.ActiveQuery{ID: "q1", Start: time.Now()}
	if !aq.CancelTimeout(time.Second) {
		t.Fatal("first CancelTimeout must land")
	}
	if aq.CancelTimeout(time.Second) {
		t.Fatal("second CancelTimeout must not land")
	}
	aq.Cancel() // explicit cancel after timeout: cause stays timeout
	var qe *obs.QueryError
	if err := aq.CancelErr(); !errors.As(err, &qe) || qe.Code != obs.CodeTimeout {
		t.Fatalf("cause after timeout-then-cancel: %v, want timeout", aq.CancelErr())
	}

	aq2 := &obs.ActiveQuery{ID: "q2", Start: time.Now()}
	aq2.Cancel()
	if aq2.CancelTimeout(time.Second) {
		t.Fatal("CancelTimeout after explicit cancel must not land")
	}
	if err := aq2.CancelErr(); !errors.As(err, &qe) || qe.Code != obs.CodeCancelled {
		t.Fatalf("cause after cancel-then-timeout: %v, want cancelled", aq2.CancelErr())
	}
}

// TestRobustnessMetricsExposed: the new counters are visible through
// perm_metrics (and therefore /metrics).
func TestRobustnessMetricsExposed(t *testing.T) {
	db := perm.NewDatabase()
	db.MustExec(`CREATE TABLE t (x int)`)
	for _, name := range []string{
		"perm_panics_recovered_total",
		"perm_statement_timeouts_total",
		"perm_conns_shed_total",
		"perm_client_retries_total",
	} {
		res := db.MustQuery(fmt.Sprintf(`SELECT count(*) FROM perm_metrics WHERE name = '%s'`, name))
		if got := res.Rows[0][0].String(); got != "1" {
			t.Errorf("perm_metrics rows for %s = %s, want 1", name, got)
		}
	}
}

// cursorQueryID finds the open statement running text in
// perm_stat_activity ("" when there is none).
func cursorQueryID(t *testing.T, observer *perm.Database, text string) string {
	t.Helper()
	res, err := observer.Query(`SELECT query_id, query FROM perm_stat_activity`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[1].String() == text {
			return row[0].String()
		}
	}
	return ""
}

// statementCalls returns (calls, errors) of text in perm_stat_statements.
func statementCalls(t *testing.T, observer *perm.Database, text string) (calls, errs int64) {
	t.Helper()
	res, err := observer.Query(`SELECT fingerprint, calls, errors FROM perm_stat_statements`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[0].String() == qcache.Fingerprint(text) {
			return row[1].Int(), row[2].Int()
		}
	}
	return 0, 0
}

// TestCursorIsAStatement: an open cursor is a running statement from
// Start to exhaustion, failure or Close — registered in
// perm_stat_activity under a query ID, cancellable, covered by the
// statement timeout, counted once in perm_stat_statements — and leaves
// neither reservations nor goroutines behind, in serial, parallel and
// spilling plans.
func TestCursorIsAStatement(t *testing.T) {
	// lineitem × lineitem at SF 0.002: 1.4e8 pairs, far more than a
	// Fetch completes before the cancel or the deadline is observed.
	const join = `select a.l_orderkey, b.l_orderkey from lineitem a, lineitem b where a.l_quantity + b.l_quantity > 1`
	base := perm.NewDatabaseWithOptions(perm.Options{Parallelism: -1, SpillDir: t.TempDir()})
	tpch.MustLoad(base, 0.002, 42)
	observer := base.WithOptions(base.Opts())
	with := func(change func(*perm.Options)) *perm.Database {
		o := base.Opts()
		change(&o)
		return base.WithOptions(o)
	}
	idle := func(t *testing.T, db *perm.Database) {
		t.Helper()
		if id := cursorQueryID(t, observer, join); id != "" {
			t.Errorf("statement %s still in perm_stat_activity", id)
		}
		if inUse := db.SessionQueryStats().MemoryInUse; inUse != 0 {
			t.Errorf("reserved memory after the cursor ended = %d, want 0", inUse)
		}
	}

	for _, cfg := range []struct {
		name string
		db   *perm.Database
	}{
		{"serial", base},
		{"parallel", with(func(o *perm.Options) { o.Parallelism = 4 })},
		{"spilling", with(func(o *perm.Options) { o.MemoryLimit = 64 << 10 })},
	} {
		t.Run("cancel/"+cfg.name, func(t *testing.T) {
			leakCheck(t)
			p, err := cfg.db.Prepare(join)
			if err != nil {
				t.Fatal(err)
			}
			calls0, errs0 := statementCalls(t, observer, join)
			cur, err := p.Start()
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			if rows, err := cur.Fetch(10); err != nil || len(rows) != 10 {
				t.Fatalf("Fetch(10) = %d rows, %v", len(rows), err)
			}
			id := cursorQueryID(t, observer, join)
			if id == "" {
				t.Fatal("open cursor is absent from perm_stat_activity")
			}
			if err := observer.Cancel(id); err != nil {
				t.Fatalf("Cancel(%s): %v", id, err)
			}
			_, err = cur.Fetch(0)
			var qe *obs.QueryError
			if !errors.As(err, &qe) || qe.Code != obs.CodeCancelled || qe.QueryID != id {
				t.Fatalf("Fetch after CANCEL %s: %v, want the structured cancelled error", id, err)
			}
			if rows, err := cur.Fetch(0); err != nil || len(rows) != 0 {
				t.Fatalf("Fetch after the cursor failed = %d rows, %v; want none", len(rows), err)
			}
			for i := 0; i < 2; i++ {
				if err := cur.Close(); err != nil {
					t.Fatalf("Close #%d: %v", i+1, err)
				}
			}
			idle(t, cfg.db)
			calls, errs := statementCalls(t, observer, join)
			if calls-calls0 != 1 || errs-errs0 != 1 {
				t.Errorf("perm_stat_statements moved by %d calls, %d errors; want 1, 1 (finish exactly once)",
					calls-calls0, errs-errs0)
			}
		})
	}

	t.Run("exhausted", func(t *testing.T) {
		const q = `select n_name from nation order by n_name`
		p, err := base.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := p.Start()
		if err != nil {
			t.Fatal(err)
		}
		if cursorQueryID(t, observer, q) == "" {
			t.Fatal("open cursor is absent from perm_stat_activity")
		}
		if rows, err := cur.Fetch(0); err != nil || len(rows) != 25 {
			t.Fatalf("Fetch(0) = %d rows, %v; want 25", len(rows), err)
		}
		if id := cursorQueryID(t, observer, q); id != "" {
			t.Errorf("exhausted cursor %s still in perm_stat_activity", id)
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		if calls, errs := statementCalls(t, observer, q); calls != 1 || errs != 0 {
			t.Errorf("perm_stat_statements: %d calls, %d errors; want 1, 0", calls, errs)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		leakCheck(t)
		db := with(func(o *perm.Options) { o.StatementTimeout = 200 * time.Millisecond })
		p, err := db.Prepare(join)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := p.Start()
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		// The deadline runs from Start, through the time the consumer
		// takes between fetches.
		time.Sleep(300 * time.Millisecond)
		_, err = cur.Fetch(0)
		var qe *obs.QueryError
		if !errors.As(err, &qe) || qe.Code != obs.CodeTimeout {
			t.Fatalf("Fetch past the statement timeout: %v, want the structured timeout error", err)
		}
		idle(t, db)
	})
}
