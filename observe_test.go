package perm_test

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"perm"
	"perm/internal/fault"
	"perm/internal/obs"
	"perm/internal/qcache"
	"perm/internal/session"
	"perm/internal/tpch"
)

// assertAnalyzedTransparent requires that running a query under EXPLAIN
// ANALYZE instrumentation returns byte-identical results — same columns,
// same rows, same order — as the plain run. Probes forward batches and
// rows by pointer, so instrumentation must never be observable in the
// output.
func assertAnalyzedTransparent(t *testing.T, db *perm.Database, query string) string {
	t.Helper()
	plain, err := db.Query(query)
	if err != nil {
		t.Fatalf("plain run of %q: %v", query, err)
	}
	analyzed, report, err := db.QueryAnalyzed(query)
	if err != nil {
		t.Fatalf("analyzed run of %q: %v", query, err)
	}
	if fmt.Sprint(plain.Columns) != fmt.Sprint(analyzed.Columns) {
		t.Fatalf("columns diverge under ANALYZE for %q", query)
	}
	if len(plain.Rows) != len(analyzed.Rows) {
		t.Fatalf("row count diverges under ANALYZE for %q: plain=%d analyzed=%d",
			query, len(plain.Rows), len(analyzed.Rows))
	}
	for i := range plain.Rows {
		for j := range plain.Rows[i] {
			va, vb := plain.Rows[i][j], analyzed.Rows[i][j]
			if va.String() != vb.String() || va.IsNull() != vb.IsNull() {
				t.Fatalf("row %d col %d diverges under ANALYZE for %q: plain=%v analyzed=%v",
					i, j, query, va, vb)
			}
		}
	}
	return report
}

// TestExplainAnalyzeBasics pins the report surface on a small plan:
// every operator line carries an (actual ...) annotation with its row
// count, the footer reports total time and the query fingerprint, and
// the SQL-dialect form returns the same report shape.
func TestExplainAnalyzeBasics(t *testing.T) {
	db := perm.NewDatabase()
	db.MustExec(`CREATE TABLE shop (name text, numempl int)`)
	db.MustExec(`INSERT INTO shop VALUES ('Merdies', 3), ('SatMarkt', 15), ('EDampf', 1)`)

	report := assertAnalyzedTransparent(t, db, `SELECT name FROM shop WHERE numempl > 2 ORDER BY name`)
	for _, want := range []string{"(actual ", "rows=2", "time=", "Execution time: ", "Fingerprint: "} {
		if !strings.Contains(report, want) {
			t.Fatalf("report lacks %q:\n%s", want, report)
		}
	}
	// The fingerprint folds literals: the same shape with a different
	// constant must report the same fingerprint line.
	other, err := db.ExplainAnalyzeSQL(`SELECT name FROM shop WHERE numempl > 999 ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	fpLine := func(s string) string {
		for _, l := range strings.Split(s, "\n") {
			if strings.HasPrefix(l, "Fingerprint: ") {
				return l
			}
		}
		return ""
	}
	if fp := fpLine(report); fp == "" || fp != fpLine(other) {
		t.Fatalf("fingerprint not literal-invariant: %q vs %q", fpLine(report), fpLine(other))
	}

	// The SQL dialect: EXPLAIN ANALYZE <select> through Query returns the
	// report as rows under a "plan" column.
	res, err := db.Query(`EXPLAIN ANALYZE SELECT name FROM shop WHERE numempl > 2 ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("EXPLAIN ANALYZE columns = %v", res.Columns)
	}
	var joined strings.Builder
	for _, row := range res.Rows {
		joined.WriteString(row[0].String())
		joined.WriteString("\n")
	}
	for _, want := range []string{"(actual ", "Execution time: ", "Fingerprint: "} {
		if !strings.Contains(joined.String(), want) {
			t.Fatalf("dialect report lacks %q:\n%s", want, joined.String())
		}
	}
	// EXPLAIN without ANALYZE must stay annotation-free.
	plain, err := db.ExplainSQL(`SELECT name FROM shop WHERE numempl > 2 ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain, "actual") {
		t.Fatalf("plain EXPLAIN grew annotations:\n%s", plain)
	}
}

// TestExplainAnalyzeAcceptance is the PR's acceptance scenario: TPC-H
// Q15 with provenance under a 4 MiB budget and 2 workers must report
// nonzero per-operator timings, spill events on the spilling operator,
// and per-worker morsel counts — while the result stays byte-identical
// to the uninstrumented run.
func TestExplainAnalyzeAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H EXPLAIN ANALYZE acceptance skipped with -short")
	}
	db := perm.NewDatabaseWithOptions(perm.Options{
		Parallelism: 2, MemoryLimit: 4 << 20, SpillDir: t.TempDir(),
	})
	tpch.MustLoad(db, 0.002, 42)
	rng := tpch.NewRand(7)
	q := tpch.MustQGen(15, rng)
	for _, s := range q.Setup {
		db.MustExec(s)
	}
	defer func() {
		for _, s := range q.Teardown {
			db.MustExec(s)
		}
	}()
	report := assertAnalyzedTransparent(t, db, q.Provenance().Text)
	if !strings.Contains(report, "time=") || strings.Contains(report, "time=0s ") {
		t.Fatalf("report lacks nonzero operator timings:\n%s", report)
	}
	if !strings.Contains(report, "workers=2") || !strings.Contains(report, "morsels/worker=[") {
		t.Fatalf("report lacks per-worker morsel counts:\n%s", report)
	}
	if !strings.Contains(report, "spills=") {
		t.Fatalf("report lacks spill events under the 4 MiB budget:\n%s", report)
	}
	if st := db.SessionQueryStats(); st.MemoryInUse != 0 {
		t.Fatalf("analyzed run leaked reservations: %d bytes", st.MemoryInUse)
	}
}

// TestExplainAnalyzeTransparencyFig10 runs the Fig. 10 TPC-H workload —
// normal and provenance-rewritten — under ANALYZE instrumentation in
// every execution regime (serial, 4 workers; unlimited, 4 MiB budget)
// and requires byte-identical results throughout.
func TestExplainAnalyzeTransparencyFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H EXPLAIN ANALYZE transparency skipped with -short")
	}
	const sf = 0.002
	regimes := []struct {
		name    string
		workers int
		limit   int64
	}{
		{"serial", 1, -1},
		{"serial-4MiB", 1, 4 << 20},
		{"workers=4", 4, -1},
		{"workers=4-4MiB", 4, 4 << 20},
	}
	for _, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) {
			db := perm.NewDatabaseWithOptions(perm.Options{
				Parallelism: rg.workers, MemoryLimit: rg.limit, SpillDir: t.TempDir(),
			})
			tpch.MustLoad(db, sf, 42)
			rng := tpch.NewRand(7)
			for _, n := range []int{1, 3, 10, 15} {
				q := tpch.MustQGen(n, rng)
				for _, s := range q.Setup {
					db.MustExec(s)
				}
				assertAnalyzedTransparent(t, db, q.Text)
				assertAnalyzedTransparent(t, db, q.Provenance().Text)
				for _, s := range q.Teardown {
					db.MustExec(s)
				}
			}
			if st := db.SessionQueryStats(); st.MemoryInUse != 0 {
				t.Fatalf("analyzed runs leaked reservations: %d bytes", st.MemoryInUse)
			}
		})
	}
}

// mediumTable builds a ~16k-row table: big enough that a 64 KiB budget
// forces spilling, small enough for the -race concurrency test.
func mediumTable(db *perm.Database) {
	db.MustExec(`CREATE TABLE med (a int, b int, s text)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO med VALUES `)
	for i := 0; i < 64; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'val-%d')", i, i%7, i%13)
	}
	db.MustExec(sb.String())
	for i := 0; i < 8; i++ { // 64 × 2^8 = 16384 rows
		db.MustExec(fmt.Sprintf(`INSERT INTO med SELECT a + %d, b, s FROM med`, 64<<i))
	}
}

// TestMetricsConcurrentSessions drives 8 concurrent sessions through
// cache churn (repeated hits, DML invalidations) and forced spill (64
// KiB budgets) and asserts the engine counters account for all of it:
// the session gauges return exactly to their baseline, and the grant/
// denial/spill/cache counters all moved. Run under -race this also
// verifies every counter hot path is data-race-free.
func TestMetricsConcurrentSessions(t *testing.T) {
	base := perm.NewDatabaseWithOptions(perm.Options{
		MemoryLimit: 64 << 10, SpillDir: t.TempDir(),
	})
	mediumTable(base)

	sessionsBefore := obs.SessionsActive.Load()
	preparedBefore := obs.PreparedStatements.Load()
	grantsBefore := obs.MemGrants.Load()
	denialsBefore := obs.MemDenials.Load()
	cacheBefore := base.QueryCacheStats()

	const numSessions = 8
	var wg sync.WaitGroup
	for i := 0; i < numSessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := session.New(base)
			defer s.Close()
			if err := s.Prepare("p", `SELECT count(*) FROM med`); err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 3; round++ {
				// Shared statement: first compiler wins, everyone else hits.
				if _, err := s.Query(`SELECT a % 4096, count(*), sum(b) FROM med GROUP BY a % 4096`); err != nil {
					t.Error(err)
					return
				}
				// Spill-forcing sort under the 64 KiB session budget.
				if _, err := s.Query(`SELECT a, b, s FROM med ORDER BY b, s LIMIT 5`); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Execute("p"); err != nil {
					t.Error(err)
					return
				}
				// One session churns the catalog version, invalidating
				// every cached artifact.
				if id == 0 {
					if _, err := s.Exec(fmt.Sprintf(`INSERT INTO med VALUES (%d, 0, 'churn')`, 1<<20+round)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()

	if got := obs.SessionsActive.Load(); got != sessionsBefore {
		t.Fatalf("SessionsActive gauge did not return to baseline: %d != %d", got, sessionsBefore)
	}
	if got := obs.PreparedStatements.Load(); got != preparedBefore {
		t.Fatalf("PreparedStatements gauge did not return to baseline: %d != %d", got, preparedBefore)
	}
	if d := obs.MemGrants.Load() - grantsBefore; d <= 0 {
		t.Fatalf("no memory grants recorded (delta %d)", d)
	}
	if d := obs.MemDenials.Load() - denialsBefore; d <= 0 {
		t.Fatalf("no memory denials recorded under a 64 KiB budget (delta %d)", d)
	}
	st := base.QueryStats()
	if st.SpillEvents == 0 || st.BytesSpilled == 0 {
		t.Fatalf("64 KiB sessions never spilled: %+v", st)
	}
	cache := base.QueryCacheStats()
	if cache.Hits <= cacheBefore.Hits {
		t.Fatalf("no cache hits across %d sessions: %+v", numSessions, cache)
	}
	if cache.Misses <= cacheBefore.Misses {
		t.Fatalf("no cache misses recorded: %+v", cache)
	}
	if cache.Invalidations <= cacheBefore.Invalidations {
		t.Fatalf("DML churn produced no invalidations: %+v", cache)
	}

	// The registry must expose all engine families over this state.
	var sb strings.Builder
	if err := base.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"perm_qcache_lookups_total", "perm_qcache_entries",
		"perm_mem_reserved_bytes", "perm_mem_spilled_bytes_total", "perm_mem_grants_total",
		"perm_parallel_morsels_total", "perm_parallel_serial_fallbacks_total",
		"perm_sessions_active", "perm_prepared_statements", "perm_catalog_version",
	} {
		if !strings.Contains(sb.String(), "# TYPE "+fam+" ") {
			t.Fatalf("metrics exposition lacks family %s:\n%s", fam, sb.String())
		}
	}
}

// TestExplainAnalyzeSharesBareIdentity: EXPLAIN ANALYZE <select> caches
// and fingerprints as the bare <select> does, whatever surrounds its
// keywords — comments between them, a trailing comment or semicolon, a
// second statement after it.
func TestExplainAnalyzeSharesBareIdentity(t *testing.T) {
	const q = `SELECT a FROM t WHERE a > 1 ORDER BY a`
	for _, text := range []string{
		"EXPLAIN ANALYZE " + q,
		"explain /* why */ analyze " + q + ";",
		"EXPLAIN -- x\nANALYZE\n" + q + " -- trailing",
		"EXPLAIN ANALYZE " + q + "; SELECT 1",
	} {
		db := perm.NewDatabase()
		db.MustExec(`CREATE TABLE t (a int)`)
		db.MustExec(`INSERT INTO t VALUES (1), (2)`)
		var report strings.Builder
		if strings.HasSuffix(text, "SELECT 1") {
			if _, err := db.Exec(text); err != nil {
				t.Fatal(err)
			}
		} else {
			res, err := db.Query(text)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range res.Rows {
				report.WriteString(row[0].String() + "\n")
			}
		}
		if report.Len() > 0 && !strings.Contains(report.String(), "Fingerprint: "+qcache.Fingerprint(q)+"\n") {
			t.Errorf("%q reports another fingerprint than the bare statement:\n%s", text, report.String())
		}
		before := db.QueryCacheStats()
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
		if after := db.QueryCacheStats(); after.Hits != before.Hits+1 {
			t.Errorf("bare statement after %q missed the cache: %+v -> %+v", text, before, after)
		}
	}
}

// TestOneDrainEveryEntryPoint: Query, a traced Query, QueryAnalyzed,
// Prepared.Run and a fully fetched Cursor run the same plan through the
// same drain — byte-identical rows for Q1, Q3, Q10 and their q+ — and
// the traced and the analyzed run read batches under the root adapter
// like the plain one: the adapter reports exactly what the probe on its
// input measured, which a row-at-a-time drain through its own probe
// never would.
func TestOneDrainEveryEntryPoint(t *testing.T) {
	// Unbudgeted whatever the environment says: under injected memory
	// denials a join may go Grace in one run and not in the next, and q+
	// rows that tie on the ORDER BY key then come out in another order.
	db := perm.NewDatabaseWithOptions(perm.Options{TraceSample: -1, MemoryLimit: -1})
	tpch.MustLoad(db, 0.002, 42)
	traced := db.WithOptions(perm.Options{TraceSample: 1, MemoryLimit: -1})
	rng := tpch.NewRand(7)
	for _, n := range []int{1, 3, 10} {
		q := tpch.MustQGen(n, rng)
		for _, text := range []string{q.Text, q.Provenance().Text} {
			plain := db.MustQuery(text)
			check := func(how string, res *perm.Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s of %q: %v", how, text, err)
				}
				if got, want := res.String(), plain.String(); got != want {
					t.Fatalf("%s of %q differs from Query:\n%s\nvs\n%s", how, text, got, want)
				}
			}

			res, err := traced.Query(text)
			check("traced Query", res, err)
			id := traced.LastQueryInfo().ID
			spans := db.MustQuery(fmt.Sprintf(
				`SELECT span, depth, duration_ms, rows_emitted FROM perm_traces WHERE query_id = '%s' AND depth >= 1`, id)).Rows
			if len(spans) < 2 || spans[0][0].String() != "BatchToRow" || spans[1][1].Int() != 2 {
				t.Fatalf("traced %q: operator spans start %v, want the root adapter and its input", text, spans)
			}
			if spans[0][2].Float() != spans[1][2].Float() || spans[0][3].Int() != int64(len(plain.Rows)) {
				t.Errorf("traced %q: root adapter span (%v ms, %v rows) is not its input's (%v ms) over %d rows: drained row by row?",
					text, spans[0][2], spans[0][3], spans[1][2], len(plain.Rows))
			}

			res, report, err := db.QueryAnalyzed(text)
			check("QueryAnalyzed", res, err)
			lines := strings.SplitN(report, "\n", 3)
			var rootTime, inTime string
			var inRows, inBatches int
			if _, err := fmt.Sscanf(lines[0], "BatchToRow (actual time=%s", &rootTime); err != nil {
				t.Fatalf("analyzed %q: root line %q", text, lines[0])
			}
			annot := lines[1][strings.Index(lines[1], "(actual"):]
			if _, err := fmt.Sscanf(annot, "(actual time=%s rows=%d batches=%d", &inTime, &inRows, &inBatches); err != nil {
				t.Fatalf("analyzed %q: input line %q: %v", text, lines[1], err)
			}
			if rootTime != inTime || inRows != len(plain.Rows) || (inBatches == 0 && inRows > 0) {
				t.Errorf("analyzed %q: root adapter time=%s over input time=%s rows=%d batches=%d (%d result rows): drained row by row?",
					text, rootTime, inTime, inRows, inBatches, len(plain.Rows))
			}

			p, err := db.Prepare(text)
			if err != nil {
				t.Fatal(err)
			}
			res, err = p.Run()
			check("Prepared.Run", res, err)
			cur, err := p.Start()
			if err != nil {
				t.Fatal(err)
			}
			fetched := &perm.Result{Columns: cur.Columns(), ProvColumns: cur.ProvColumns()}
			for {
				rows, err := cur.Fetch(1000)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) == 0 {
					break
				}
				fetched.Rows = append(fetched.Rows, rows...)
			}
			check("Cursor", fetched, cur.Close())
		}
	}
}

// analyzedFooter runs text under EXPLAIN ANALYZE and returns the peak
// memory and spilled bytes its report footer reads.
func analyzedFooter(t *testing.T, db *perm.Database, text string) (peak, spilled int64) {
	t.Helper()
	report, err := db.ExplainAnalyzeSQL(text)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`\(peak memory (\d+)B, spilled (\d+)B\)`).FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("report lacks the footer:\n%s", report)
	}
	peak, _ = strconv.ParseInt(m[1], 10, 64)
	spilled, _ = strconv.ParseInt(m[2], 10, 64)
	return peak, spilled
}

// TestExplainAnalyzePeakIsTheStatements: the EXPLAIN ANALYZE footer reads
// the statement's own peak and spill, not its session's high-water mark:
// a one-row sort reads the same small peak, and nothing spilled, before
// and after a sort that spills on the same handle.
func TestExplainAnalyzePeakIsTheStatements(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: 1 << 20, SpillDir: t.TempDir(), Parallelism: -1})
	bigTable(db)
	db.MustExec(`CREATE TABLE one (a int)`)
	db.MustExec(`INSERT INTO one VALUES (1)`)
	const small = `SELECT a FROM one ORDER BY a`
	peak0, spilled0 := analyzedFooter(t, db, small)
	db.MustQuery(`SELECT a, s FROM big ORDER BY s, a`)
	if st := db.SessionQueryStats(); st.BytesSpilled == 0 || st.PeakMemory < 1<<19 {
		t.Fatalf("the big sort did not fill the session budget and spill: %+v", st)
	}
	peak1, spilled1 := analyzedFooter(t, db, small)
	if fault.Enabled() {
		return // injected denials spill the one-row sort at random
	}
	if peak0 != peak1 || peak1 >= 1<<10 || spilled0 != 0 || spilled1 != 0 {
		t.Fatalf("one-row sort footer: peak %dB spilled %dB before the big sort, %dB and %dB after; want the same small peak and no spill",
			peak0, spilled0, peak1, spilled1)
	}
}

// TestStatActivityIsTheStatements: perm_stat_activity's memory columns
// read the statement's own accountant, not its handle's: after a sort
// that spills under a 1 MiB budget, an observer query on the same handle
// reads nothing spilled.
func TestStatActivityIsTheStatements(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: 1 << 20, SpillDir: t.TempDir(), Parallelism: -1})
	bigTable(db)
	db.MustQuery(`SELECT a, s FROM big ORDER BY s, a`)
	if st := db.SessionQueryStats(); st.BytesSpilled == 0 {
		t.Fatalf("the big sort did not spill: %+v", st)
	}
	res := db.MustQuery(`SELECT spilled_bytes FROM perm_stat_activity`)
	if len(res.Rows) != 1 {
		t.Fatalf("perm_stat_activity rows = %d, want the observer alone", len(res.Rows))
	}
	if got := res.Rows[0][0].String(); got != "0" {
		t.Errorf("observer reads %s spilled bytes, the earlier sort's; want 0", got)
	}
}

// TestCacheCountsOneLookupPerSelect: a statement counts one plan-cache
// lookup for its SELECT and none for its own text when that is not a
// plain SELECT: EXPLAIN ANALYZE of a cached SELECT is one hit, EXPLAIN and
// SELECT ... INTO are none.
func TestCacheCountsOneLookupPerSelect(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{Parallelism: -1})
	db.MustExec(`CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2)`)
	const q = `SELECT a FROM t WHERE a > 1`
	db.MustQuery(q)
	for _, c := range []struct {
		text         string
		hits, misses uint64
	}{
		{q, 1, 0},
		{"EXPLAIN ANALYZE " + q, 1, 0},
		{"EXPLAIN " + q, 0, 0},
		{"SELECT a INTO u FROM t", 0, 0},
	} {
		before := db.QueryCacheStats()
		if _, err := db.Query(c.text); err != nil {
			t.Fatal(err)
		}
		after := db.QueryCacheStats()
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != c.hits || misses != c.misses {
			t.Errorf("%s: %d hits and %d misses, want %d and %d", c.text, hits, misses, c.hits, c.misses)
		}
	}
}

// TestStatementFacts: each statement records its own cache outcome and
// spill in LastQueryInfo, whichever entry point runs it. A statement hits
// when it runs a tree it did not compile: from the query cache, or the
// one a prepared statement holds; one that compiled, or ran no tree,
// does not.
func TestStatementFacts(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: 1 << 20, SpillDir: t.TempDir()})
	bigTable(db)
	hit := func(how string, want bool) {
		t.Helper()
		if got := db.LastQueryInfo().CacheHit; got != want {
			t.Errorf("%s: cache_hit %v, want %v", how, got, want)
		}
	}
	const q = `SELECT a FROM big WHERE a < 3 ORDER BY a`
	db.MustQuery(q)
	hit("first Query", false)
	db.MustQuery(q)
	hit("second Query", true)
	db.MustQuery("EXPLAIN ANALYZE " + q)
	hit("EXPLAIN ANALYZE of the cached SELECT", true)
	db.MustQuery("EXPLAIN " + q)
	hit("EXPLAIN", false)
	db.MustExec(`SELECT b FROM big WHERE a = 1`)
	hit("first Exec of a SELECT", false)
	db.MustExec(`SELECT b FROM big WHERE a = 1`)
	hit("second Exec of a SELECT", true)

	p, err := db.Prepare(`SELECT count(*) FROM big WHERE b = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	hit("first Run after Prepare", true)
	db.MustExec(`INSERT INTO big VALUES (-1, 2, 'x')`)
	hit("INSERT", false)
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	hit("first Run after DML", false)
	c, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch(0); err != nil {
		t.Fatal(err)
	}
	hit("Cursor over the recompiled tree", true)

	const spilling = `SELECT a, s FROM big ORDER BY s, a`
	var runs []perm.QueryInfo
	for i := 0; i < 2; i++ {
		before := db.SessionQueryStats()
		db.MustQuery(spilling)
		info := db.LastQueryInfo()
		if after := db.SessionQueryStats(); info.SpilledBytes != after.BytesSpilled-before.BytesSpilled ||
			info.SpillEvents != after.SpillEvents-before.SpillEvents || info.SpilledBytes == 0 {
			t.Fatalf("spilling sort recorded %d bytes in %d events; its session wrote %d in %d",
				info.SpilledBytes, info.SpillEvents, after.BytesSpilled-before.BytesSpilled, after.SpillEvents-before.SpillEvents)
		}
		runs = append(runs, info)
	}
	if !fault.Enabled() && (runs[0].SpilledBytes != runs[1].SpilledBytes || runs[0].SpillEvents != runs[1].SpillEvents) {
		t.Errorf("the same sort recorded %d/%d, then %d/%d spilled bytes/events", runs[0].SpilledBytes, runs[0].SpillEvents,
			runs[1].SpilledBytes, runs[1].SpillEvents)
	}
	db.MustQuery(q)
	if info := db.LastQueryInfo(); !fault.Enabled() && (info.SpilledBytes != 0 || info.SpillEvents != 0) {
		t.Errorf("a statement after the spilling one recorded its spill: %+v", info)
	}
}
