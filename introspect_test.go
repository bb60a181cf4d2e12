package perm_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"perm"
	"perm/internal/session"
)

// introspectDB returns a database with tracing on for every query and a
// small populated table.
func introspectDB(t *testing.T, opts perm.Options) *perm.Database {
	t.Helper()
	db := perm.NewDatabaseWithOptions(opts)
	db.MustExec(`CREATE TABLE shop (name text, numempl int)`)
	db.MustExec(`CREATE TABLE sales (sname text, itemid int)`)
	db.MustExec(`INSERT INTO shop VALUES ('Merdies', 3), ('Edeka', 7)`)
	db.MustExec(`INSERT INTO sales VALUES ('Merdies', 1), ('Merdies', 2), ('Edeka', 1)`)
	return db
}

// TestStatActivitySelfView: a query over perm_stat_activity observes at
// least itself (registered before planning, like pg_stat_activity).
func TestStatActivitySelfView(t *testing.T) {
	db := introspectDB(t, perm.Options{})
	res, err := db.Query(`SELECT query_id, session_id, query FROM perm_stat_activity`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("perm_stat_activity rows = %d, want 1 (the observing query itself)", len(res.Rows))
	}
	row := res.Rows[0]
	if !strings.HasPrefix(row[0].String(), "q") {
		t.Fatalf("query_id = %q, want q<N>", row[0].String())
	}
	if !strings.Contains(row[2].String(), "perm_stat_activity") {
		t.Fatalf("query column = %q, want the observing statement", row[2].String())
	}
	if got := fmt.Sprint(db.SessionID()); row[1].String() != got {
		t.Fatalf("session_id = %s, want %s", row[1].String(), got)
	}
	// Once the query finishes it must deregister: a later snapshot again
	// sees only its own observer.
	res, err = db.Query(`SELECT query_id FROM perm_stat_activity`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("activity registry leaked: %d rows", len(res.Rows))
	}
}

func TestStatStatementsAggregates(t *testing.T) {
	db := introspectDB(t, perm.Options{})
	for i := 0; i < 3; i++ {
		// Different literals, same fingerprint: stat_statements must
		// aggregate by normalized shape.
		db.MustQuery(fmt.Sprintf(`SELECT name FROM shop WHERE numempl > %d`, i))
	}
	if _, err := db.Query(`SELECT broken FROM shop`); err == nil {
		t.Fatal("expected analyzer error")
	}
	res, err := db.Query(`
		SELECT query, calls, errors, rows_emitted
		FROM perm_stat_statements
		WHERE query = 'select name from shop where numempl > ?'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 aggregated entry, got %d", len(res.Rows))
	}
	if calls := res.Rows[0][1].String(); calls != "3" {
		t.Fatalf("calls = %s, want 3", calls)
	}
	res, err = db.Query(`
		SELECT errors FROM perm_stat_statements
		WHERE query = 'select broken from shop'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "1" {
		t.Fatalf("failed statement not accounted: %v", res.Rows)
	}
	// Latency columns are well-formed: mean/p50/p99 are non-negative and
	// p50 <= p99 <= some sane bound of max.
	res = db.MustQuery(`
		SELECT mean_ms, p50_ms, p99_ms, max_ms FROM perm_stat_statements
		WHERE query = 'select name from shop where numempl > ?'`)
	var v [4]float64
	for i := range v {
		if _, err := fmt.Sscanf(res.Rows[0][i].String(), "%g", &v[i]); err != nil {
			t.Fatalf("latency column %d = %q: %v", i, res.Rows[0][i].String(), err)
		}
		if v[i] < 0 {
			t.Fatalf("latency column %d negative: %g", i, v[i])
		}
	}
	if v[1] > v[2] {
		t.Fatalf("p50 %g > p99 %g", v[1], v[2])
	}
}

// TestExecScriptStatementsOwnText: each statement of an Exec script is a
// query of its own under its own text — in perm_stat_statements and in
// perm_traces — not one query per statement under the whole script.
func TestExecScriptStatementsOwnText(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{TraceSample: 1})
	db.MustExec("CREATE TABLE a (x int); INSERT INTO a VALUES (1);\n CREATE VIEW v AS SELECT x FROM a; INSERT INTO a VALUES (2);; SELECT x FROM v;")
	// DDL and INSERT record no phase spans: only the SELECT is traced.
	res := db.MustQuery("SELECT DISTINCT query FROM perm_traces")
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "SELECT x FROM v" {
		t.Errorf("perm_traces holds %v, want the SELECT's own text", res.Rows)
	}
	res = db.MustQuery("SELECT query, calls FROM perm_stat_statements WHERE query NOT LIKE '%perm_%' ORDER BY query")
	var got []string
	for _, row := range res.Rows {
		got = append(got, row[0].String()+" x"+row[1].String())
	}
	want := "create table a (x int) x1; create view v as select x from a x1; insert into a values (?) x2; select x from v x1"
	if strings.Join(got, "; ") != want {
		t.Errorf("perm_stat_statements holds %q, want %q", got, want)
	}
}

func TestPermTracesSampledSpans(t *testing.T) {
	db := introspectDB(t, perm.Options{TraceSample: 1})
	db.MustQuery(`SELECT s.name, count(*) FROM shop s, sales sa WHERE s.name = sa.sname GROUP BY s.name`)
	res := db.MustQuery(`
		SELECT span, count(*) FROM perm_traces
		WHERE depth = 0 GROUP BY span ORDER BY span`)
	phases := map[string]bool{}
	for _, row := range res.Rows {
		phases[row[0].String()] = true
	}
	for _, want := range []string{"parse", "rewrite", "optimize", "plan", "execute"} {
		if !phases[want] {
			t.Fatalf("missing phase span %q in perm_traces (have %v)", want, phases)
		}
	}
	// Operator spans (depth >= 1) from the instrumented execution of the
	// join/aggregate query.
	res = db.MustQuery(`SELECT span FROM perm_traces WHERE depth >= 1`)
	ops := map[string]bool{}
	for _, row := range res.Rows {
		ops[row[0].String()] = true
	}
	if len(ops) == 0 {
		t.Fatal("no operator spans recorded for a sampled query")
	}
	found := false
	for op := range ops {
		if strings.Contains(op, "Scan") {
			found = true
		}
	}
	if !found {
		t.Fatalf("operator spans %v include no scan", ops)
	}
}

func TestTracingOffRecordsNothing(t *testing.T) {
	db := introspectDB(t, perm.Options{TraceSample: -1})
	db.MustQuery(`SELECT name FROM shop`)
	res := db.MustQuery(`SELECT count(*) FROM perm_traces`)
	if got := res.Rows[0][0].String(); got != "0" {
		t.Fatalf("perm_traces holds %s traces with sampling off, want 0", got)
	}
}

func TestPermMetricsView(t *testing.T) {
	db := introspectDB(t, perm.Options{})
	res := db.MustQuery(`SELECT labels, value FROM perm_metrics WHERE name = 'perm_build_info'`)
	if len(res.Rows) != 1 {
		t.Fatalf("perm_build_info rows = %d, want 1", len(res.Rows))
	}
	if labels := res.Rows[0][0].String(); !strings.Contains(labels, "version=") {
		t.Fatalf("perm_build_info labels = %q, want a version label", labels)
	}
	if v := res.Rows[0][1].String(); v != "1" {
		t.Fatalf("perm_build_info value = %s, want 1", v)
	}
	// The view composes with the engine like any relation: aggregate it.
	res = db.MustQuery(`SELECT count(*) FROM perm_metrics WHERE name = 'perm_qcache_lookups_total'`)
	if got := res.Rows[0][0].String(); got != "4" {
		t.Fatalf("qcache lookup outcome families = %s, want 4 (hit/miss/invalidation/eviction)", got)
	}
}

// TestSystemViewsCompose joins a system view against user data and runs
// a provenance rewrite over one — system tables are ordinary relations
// to the analyzer, rewriter and planner.
func TestSystemViewsCompose(t *testing.T) {
	db := introspectDB(t, perm.Options{})
	db.MustQuery(`SELECT name FROM shop`)
	res, err := db.Query(`
		SELECT s.query, sh.name
		FROM perm_stat_statements s, shop sh
		WHERE s.query = 'select name from shop' AND sh.numempl > 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("join over perm_stat_statements rows = %d, want 1", len(res.Rows))
	}
	res, err = db.Query(`SELECT PROVENANCE query_id FROM perm_stat_activity`)
	if err != nil {
		t.Fatalf("provenance over a system view: %v", err)
	}
	if len(res.Columns) < 2 {
		t.Fatalf("provenance query returned no provenance columns: %v", res.Columns)
	}
}

func TestSystemTableNamespaceReserved(t *testing.T) {
	db := perm.NewDatabase()
	if _, err := db.Exec(`CREATE TABLE perm_traces (a int)`); err == nil ||
		!strings.Contains(err.Error(), "system table") {
		t.Fatalf("CREATE TABLE over a system table: err = %v", err)
	}
	if _, err := db.Exec(`CREATE VIEW perm_stat_activity AS SELECT 1`); err == nil {
		t.Fatal("CREATE VIEW over a system table must fail")
	}
}

func TestCancelUnknownQuery(t *testing.T) {
	db := perm.NewDatabase()
	if err := db.Cancel("q999"); err == nil || !strings.Contains(err.Error(), "not running") {
		t.Fatalf("Cancel of unknown query: err = %v", err)
	}
	if _, err := db.Exec(`CANCEL q999`); err == nil || !strings.Contains(err.Error(), "not running") {
		t.Fatalf("CANCEL statement for unknown query: err = %v", err)
	}
	if _, err := db.Exec(`CANCEL 'q999'`); err == nil || !strings.Contains(err.Error(), "not running") {
		t.Fatalf("CANCEL with quoted ID: err = %v", err)
	}
}

// cancelTarget launches query on db in a goroutine, waits until it shows
// up in perm_stat_activity (observed through observer, a handle sharing
// the engine), cancels it, and returns the query error.
func cancelTarget(t *testing.T, db, observer *perm.Database, query string, viaSQL bool) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := db.Query(query)
		errc <- err
	}()
	deadline := time.Now().Add(20 * time.Second)
	var id string
	for id == "" {
		if time.Now().After(deadline) {
			t.Fatal("target query never appeared in perm_stat_activity")
		}
		res, err := observer.Query(`SELECT query_id, query FROM perm_stat_activity WHERE phase = 'execute'`)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			if row[1].String() == query {
				id = row[0].String()
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if viaSQL {
		if _, err := observer.Exec("CANCEL " + id); err != nil {
			t.Fatalf("CANCEL %s: %v", id, err)
		}
	} else if err := observer.Cancel(id); err != nil {
		t.Fatalf("Cancel(%s): %v", id, err)
	}
	select {
	case err := <-errc:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled query did not return")
		return nil
	}
}

// TestCancelLongQuery cancels a multi-second query mid-flight in serial,
// parallel and spilling configurations: the issuer gets a clean
// cancellation error promptly, and other sessions are unaffected.
func TestCancelLongQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running cancellation test")
	}
	// A 65k x 65k cross join: billions of output rows, far beyond what
	// completes before the cancel lands.
	const longQuery = `SELECT count(*) FROM big a, big b WHERE a.b + b.b > 1`
	cases := []struct {
		name   string
		opts   perm.Options
		query  string
		viaSQL bool
	}{
		{"serial", perm.Options{Parallelism: -1}, longQuery, false},
		{"parallel", perm.Options{Parallelism: 4}, longQuery, true},
		{"spilling", perm.Options{Parallelism: -1, MemoryLimit: 64 << 10},
			`SELECT a.a, b.a FROM big a, big b ORDER BY a.a - b.a`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakCheck(t)
			opts := tc.opts
			opts.SpillDir = t.TempDir()
			db := perm.NewDatabaseWithOptions(opts)
			bigTable(db)
			observer := db.WithOptions(db.Opts())
			start := time.Now()
			err := cancelTarget(t, db, observer, tc.query, tc.viaSQL)
			if err == nil {
				t.Fatal("cancelled query returned no error")
			}
			if !strings.Contains(err.Error(), "cancelled") {
				t.Fatalf("cancelled query error = %v, want a cancellation error", err)
			}
			if waited := time.Since(start); waited > 15*time.Second {
				t.Fatalf("cancellation took %v, want prompt termination", waited)
			}
			// The engine is fully usable afterwards, and other sessions
			// were never affected.
			res := observer.MustQuery(`SELECT count(*) FROM big`)
			if got := res.Rows[0][0].String(); got != "65536" {
				t.Fatalf("post-cancel query = %s, want 65536", got)
			}
			res = observer.MustQuery(`SELECT count(*) FROM perm_stat_activity`)
			if got := res.Rows[0][0].String(); got != "1" {
				t.Fatalf("activity registry rows after cancel = %s, want 1", got)
			}
		})
	}
}

// TestTracedExecutionIdentical: sampling a query must never change its
// results — traced and untraced databases produce byte-identical output
// across serial, parallel and spilling execution.
func TestTracedExecutionIdentical(t *testing.T) {
	queries := []string{
		`SELECT name, numempl FROM shop ORDER BY name`,
		`SELECT s.name, count(*) FROM shop s, sales sa WHERE s.name = sa.sname GROUP BY s.name ORDER BY 1`,
		`SELECT PROVENANCE name FROM shop ORDER BY name`,
		`SELECT DISTINCT itemid FROM sales ORDER BY itemid`,
		`SELECT name FROM shop UNION SELECT sname FROM sales ORDER BY 1`,
	}
	configs := []struct {
		name string
		opts perm.Options
	}{
		{"serial", perm.Options{Parallelism: -1}},
		{"parallel", perm.Options{Parallelism: 4}},
		{"spilling", perm.Options{Parallelism: -1, MemoryLimit: 64 << 10}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			traced, untraced := cfg.opts, cfg.opts
			traced.TraceSample = 1
			untraced.TraceSample = -1
			traced.SpillDir = t.TempDir()
			untraced.SpillDir = t.TempDir()
			a := introspectDB(t, traced)
			b := introspectDB(t, untraced)
			for _, q := range queries {
				assertIdenticalResult(t, a, b, q)
			}
			// Every query on the traced side actually produced a trace.
			res := a.MustQuery(`SELECT count(*) FROM perm_traces WHERE depth = 0 AND span = 'execute'`)
			var n int
			fmt.Sscanf(res.Rows[0][0].String(), "%d", &n)
			if n < len(queries) {
				t.Fatalf("traced side recorded %d executed traces, want >= %d", n, len(queries))
			}
		})
	}
}

func TestSessionSetTraceSample(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{TraceSample: -1})
	db.MustExec(`CREATE TABLE t (a int); INSERT INTO t VALUES (1)`)
	sess := session.New(db)
	if _, err := sess.Run(`SET trace_sample = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(`SELECT a FROM t`); err != nil {
		t.Fatal(err)
	}
	// One row per span: count the execute phase span to count traces.
	res, err := sess.Query(`SELECT count(*) FROM perm_traces WHERE query = 'SELECT a FROM t' AND span = 'execute'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].String(); got != "1" {
		t.Fatalf("traces for session-sampled query = %s, want 1", got)
	}
	// SET must not change the session's identity in the activity view.
	before := sess.DB().SessionID()
	if _, err := sess.Run(`SET trace_sample = off`); err != nil {
		t.Fatal(err)
	}
	if after := sess.DB().SessionID(); after != before {
		t.Fatalf("SET changed session ID %d -> %d", before, after)
	}
	if err := sess.SetOption("trace_sample", "-3"); err == nil {
		t.Fatal("negative trace_sample must be rejected")
	}
	sess.Close()
}

// allocBudgetPerUntracedQuery bounds the allocations of one cached,
// untraced point query end to end. The lifecycle bookkeeping this
// budget guards (query ID, activity registration, statement stats) must
// stay a small per-query constant: the tracing off-path is one atomic
// add and must never allocate, so a regression here means introspection
// leaked onto the hot path.
const allocBudgetPerUntracedQuery = 90

func TestUntracedQueryAllocFlat(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{TraceSample: -1})
	db.MustExec(`CREATE TABLE t (a int, b int)`)
	db.MustExec(`INSERT INTO t VALUES (1,2),(3,4),(5,6)`)
	q := `SELECT a, b FROM t WHERE a > 1`
	db.MustQuery(q) // warm the compiled-query cache
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > allocBudgetPerUntracedQuery {
		t.Fatalf("untraced cached query allocated %.0f times (budget %d): introspection overhead regressed",
			allocs, allocBudgetPerUntracedQuery)
	}
}

// TestPreparedStatementsTracked: EXECUTE of a prepared statement shows
// up in statement statistics like a plain query.
func TestPreparedStatementsTracked(t *testing.T) {
	db := introspectDB(t, perm.Options{})
	p, err := db.Prepare(`SELECT name FROM shop WHERE numempl > 4`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
	}
	res := db.MustQuery(`
		SELECT calls FROM perm_stat_statements
		WHERE query = 'select name from shop where numempl > ?'`)
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "2" {
		t.Fatalf("prepared runs not accounted: %v", res.Rows)
	}
}

// systemViewSchemas pins every system view's columns, in order, as
// ViewSchema renders them.
var systemViewSchemas = map[string]string{
	"perm_stat_activity": "query_id text, session_id bigint, phase text, query text, fingerprint text, " +
		"elapsed_ms double, rows_emitted bigint, morsels_claimed bigint, morsels_total bigint, " +
		"mem_reserved_bytes bigint, spilled_bytes bigint, cancel_requested boolean",
	"perm_stat_statements": "fingerprint text, query text, calls bigint, errors bigint, rows_emitted bigint, " +
		"total_ms double, mean_ms double, p50_ms double, p99_ms double, max_ms double",
	"perm_traces": "query_id text, fingerprint text, query text, span text, depth bigint, " +
		"start_ms double, duration_ms double, rows_emitted bigint",
	"perm_stat_estimates": "fingerprint text, query text, analyzed bigint, ops bigint, max_qerr double, " +
		"mean_qerr double, worst_op text, worst_est double, worst_act bigint, last_seen_ms double",
	"perm_stat_plans": "fingerprint text, query text, old_plan text, new_plan text, trigger text, " +
		"flips bigint, age_ms double, before_mean_ms double, after_mean_ms double",
	"perm_events":  "seq bigint, age_ms double, kind text, query_id text, fingerprint text, detail text",
	"perm_metrics": "name text, labels text, value double",
}

// TestSystemViewsSchema fills every introspection store (a traced
// workload, an EXPLAIN ANALYZE, a plan flip and a CANCEL) and checks each
// system view's columns, that it has rows, and that every row's width and
// value kinds match its columns.
func TestSystemViewsSchema(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{TraceSample: 1})
	db.MustExec("CREATE TABLE r (a INT, b INT)")
	db.MustExec("INSERT INTO r VALUES (1,2),(3,4),(5,6)")
	db.MustExec("CREATE TABLE s (a INT)")
	db.MustExec("INSERT INTO s VALUES (1)")
	const q = "SELECT r.a FROM r, s WHERE r.a = s.a"
	db.MustQuery(q)
	for i := 0; i < 2000; i++ {
		db.MustExec("INSERT INTO s VALUES (7)")
	}
	db.MustQuery(q) // the build side flips
	if _, err := db.Exec("EXPLAIN ANALYZE " + q); err != nil {
		t.Fatal(err)
	}
	bigTable(db)
	observer := db.WithOptions(db.Opts())
	if err := cancelTarget(t, db, observer, `SELECT count(*) FROM big a, big b WHERE a.b + b.b > 1`, true); err == nil {
		t.Fatal("cancelled query returned no error")
	}

	for view, schema := range systemViewSchemas {
		if got := db.ViewSchema(view); got != schema {
			t.Errorf("%s columns:\n got  %s\n want %s", view, got, schema)
			continue
		}
		res := observer.MustQuery("SELECT * FROM " + view)
		if len(res.Rows) == 0 {
			t.Errorf("%s has no rows after a workload that fills it", view)
		}
		cols := strings.Split(schema, ", ")
		if len(res.Columns) != len(cols) {
			t.Errorf("%s SELECT * has %d columns, want %d", view, len(res.Columns), len(cols))
			continue
		}
		for i, row := range res.Rows {
			if len(row) != len(cols) {
				t.Errorf("%s row %d has %d values, want %d", view, i, len(row), len(cols))
				break
			}
			for j, v := range row {
				if name, kind, _ := strings.Cut(cols[j], " "); v.IsNull() || v.Kind() != kind || res.Columns[j] != name {
					t.Errorf("%s row %d column %s = %s (%s), want a %s", view, i, res.Columns[j], v, v.Kind(), kind)
				}
			}
		}
	}
}
