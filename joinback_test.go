package perm_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"perm"
	"perm/internal/fault"
	"perm/internal/obs"
	"perm/internal/synth"
	"perm/internal/tpch"
	"perm/internal/types"
)

// joinBackFixture has NULL grouping keys (alone and in multi-key groups),
// an empty table and a view to aggregate over.
const joinBackFixture = `
	CREATE TABLE g (k int, j text, v int, w float);
	INSERT INTO g VALUES (1, 'a', 10, 1.5), (1, 'a', 11, 2.5), (1, NULL, 12, 0.5),
		(NULL, 'a', 13, 1.0), (NULL, NULL, 14, 2.0), (NULL, NULL, 15, 3.0),
		(2, 'b', 16, NULL), (3, 'c', NULL, 4.0);
	CREATE TABLE e (x int, y int);
	CREATE VIEW gv AS SELECT k, j, v FROM g WHERE v > 10;
`

// joinBackShapes are rule-R5 shapes, whether one operator evaluates
// their join-back and whether it also emits their ORDER BY (by_group).
var joinBackShapes = []struct {
	q               string
	shared, byGroup bool
}{
	{`SELECT k, count(*), sum(v) FROM g GROUP BY k`, true, false},
	{`SELECT k, j, count(*), max(w) FROM g GROUP BY k, j`, true, false},
	{`SELECT k, count(*) FROM g GROUP BY k HAVING count(*) > 1`, true, false},
	{`SELECT k, count(*) FROM g GROUP BY k HAVING NOT EXISTS (SELECT x FROM e)`, false, false},
	{`SELECT count(*), sum(v) FROM g GROUP BY k % 2`, true, false},
	{`SELECT k, count(DISTINCT j) FROM g GROUP BY k`, false, false},
	{`SELECT x, count(*) FROM e GROUP BY x`, true, false},
	{`SELECT count(*), sum(x) FROM e`, true, false},
	{`SELECT k, count(*) FROM g WHERE v > 100 GROUP BY k`, true, false},
	{`SELECT count(*), avg(w) FROM g WHERE v > 100`, true, false},
	{`SELECT k, sum(v) FROM gv GROUP BY k`, true, false},
	{`SELECT j, sum(w) AS s FROM g GROUP BY j ORDER BY s DESC, j`, true, true},
	// Groups tying on the key interleave their rows by input position; NULL
	// keys sort first descending; HAVING drops groups before they are ranked.
	{`SELECT j, count(*) AS c FROM g GROUP BY j ORDER BY c`, true, true},
	{`SELECT k, j, sum(v) AS s FROM g GROUP BY k, j ORDER BY k DESC, j DESC`, true, true},
	{`SELECT k, j, count(*) AS c FROM g GROUP BY k, j ORDER BY c DESC, k`, true, true},
	{`SELECT k, count(*) AS c FROM g GROUP BY k HAVING count(*) > 1 ORDER BY c, k`, true, true},
	{`SELECT k, count(*) FROM g GROUP BY k ORDER BY k LIMIT 2`, false, false},
	// Keys computed over the aggregate's outputs order the rows above it;
	// a key it does not output becomes one of its columns.
	{`SELECT k, count(*) FROM g GROUP BY k ORDER BY k * 2 DESC`, true, false},
	{`SELECT k, count(*) FROM g GROUP BY k ORDER BY count(*) * -1, k`, true, false},
	{`SELECT k FROM g GROUP BY k ORDER BY sum(v) DESC, k`, true, true},
	{`SELECT k, count(*) FROM g GROUP BY k ORDER BY k * 2 DESC LIMIT 2`, false, false},
	// A computed grouping key is stored beside the row ids, in either order.
	{`SELECT k % 2 AS m, count(*) AS c FROM g GROUP BY k % 2 ORDER BY m DESC`, true, true},
	// The R5 cases of rewrite_rules_test.go.
	{`SELECT b, count(*) FROM r GROUP BY b`, true, false},
	{`SELECT sum(a) FROM r`, true, false},
	{`SELECT count(*) FROM e HAVING count(*) > 0`, true, false},
}

// TestJoinBackShared: the join-back over one evaluation of T+ equals the
// row engine's two-sided plan as a multiset and satisfies the §III-E
// theorem, and its serial, parallel, budgeted and fault-injected runs are
// byte-identical — over the R5 shapes, every TPC-H q+ and the aggregation
// chains, where only the innermost level shares. The Fig. 10 q+ plans
// show the operator, and their sorts take its rows as they come unless
// the budget denied its store, so a silent fallback fails.
func TestJoinBackShared(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H join-back corpus skipped with -short")
	}
	setup := func(db *perm.Database) *perm.Database {
		db.MustExec(joinBackFixture + `
			CREATE TABLE r (a int, b text);
			INSERT INTO r VALUES (1, 'x'), (2, 'y'), (2, 'y'), (3, NULL);`)
		tpch.MustLoad(db, 0.001, 42)
		return db
	}
	ref := setup(perm.NewDatabaseWithOptions(perm.Options{DisableVectorized: true, Parallelism: -1, MemoryLimit: -1}))
	configs := []struct {
		name  string
		fault string
		db    *perm.Database
	}{
		{"serial", "", setup(perm.NewDatabaseWithOptions(perm.Options{Parallelism: -1, MemoryLimit: -1}))},
		{"workers=4", "", setup(perm.NewDatabaseWithOptions(perm.Options{Parallelism: 4, MemoryLimit: -1}))},
		{"48KiB", "", setup(perm.NewDatabaseWithOptions(perm.Options{Parallelism: -1, MemoryLimit: 48 << 10, SpillDir: t.TempDir()}))},
		{"fault", "mem.grow:0.05;seed=42", setup(perm.NewDatabaseWithOptions(perm.Options{Parallelism: -1, MemoryLimit: 4 << 20, SpillDir: t.TempDir()}))},
	}
	maxKey, err := ref.TableRowCount("part")
	if err != nil {
		t.Fatal(err)
	}

	type stmt struct {
		q               string
		setup, teardown []string
	}
	var stmts []stmt
	for _, s := range joinBackShapes {
		stmts = append(stmts, stmt{q: s.q})
	}
	rng := tpch.NewRand(7)
	for _, n := range tpch.SupportedQueries() {
		q := tpch.MustQGen(n, rng)
		stmts = append(stmts, stmt{q.Text, q.Setup, q.Teardown})
	}
	stmts = append(stmts, stmt{q: synth.AggChainQuery(3, maxKey)}, stmt{q: synth.AggChainQuery(10, maxKey)})

	shared0 := obs.JoinBackShared.Load()
	for _, s := range stmts {
		all := append([]*perm.Database{ref}, configs[0].db, configs[1].db, configs[2].db, configs[3].db)
		for _, db := range all {
			for _, ddl := range s.setup {
				db.MustExec(ddl)
			}
		}
		prov := injectProv(s.q)
		norm := ref.MustQuery(s.q)
		checkTheorem(t, ref, s.q, norm, ref.MustQuery(prov))
		checkOrder(t, configs[0].db, s.q, len(norm.Columns), configs[0].db.MustQuery(prov))
		var first string
		for _, cfg := range configs {
			restore := func() {}
			if cfg.fault != "" {
				restore = fault.Set(mustInjector(t, cfg.fault))
			}
			assertSameResult(t, cfg.db, ref, prov)
			got := cfg.db.MustQuery(prov).String()
			restore()
			if first == "" {
				first = got
			} else if got != first {
				t.Errorf("%s output differs from serial for %s", cfg.name, prov)
			}
		}
		for _, db := range all {
			for _, ddl := range s.teardown {
				db.MustExec(ddl)
			}
		}
	}
	if obs.JoinBackShared.Load() == shared0 {
		t.Error("no join-back was planned as one operator")
	}

	serial := configs[0].db
	for _, s := range joinBackShapes {
		out, err := serial.ExplainSQL(injectProv(s.q))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out, "VecAggAttach") != s.shared {
			t.Errorf("%s: shared = %v, want %v:\n%s", s.q, !s.shared, s.shared, out)
		}
		assertByGroup(t, serial, injectProv(s.q), s.byGroup)
	}
	rng = tpch.NewRand(7)
	for _, n := range []int{1, 3, 5, 6, 10, 12, 14} {
		q := tpch.MustQGen(n, rng).Provenance()
		out, err := serial.ExplainSQL(q.Text)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "VecAggAttach") {
			t.Errorf("Q%d q+ keeps the two-sided join-back:\n%s", n, out)
		}
		// Every ORDER BY of Fig. 10 is on the aggregate's output. At 48 KiB
		// the operator sorts only rows it could store. Q1's 5,733 fit as row
		// ids (8 bytes a row), the ordering's 8 more a row beside them do not.
		ordered := n != 6 && n != 14
		assertByGroup(t, serial, q.Text, ordered)
		report, err := configs[2].db.ExplainAnalyzeSQL(q.Text)
		if err != nil {
			t.Fatal(err)
		}
		held := !strings.Contains(report, "materialized=0")
		if !fault.Enabled() && (strings.Contains(report, "by_group") != (ordered && held && n != 1) || n == 1 && !held) {
			t.Errorf("Q%d q+ at 48 KiB, store held = %v:\n%s", n, held, report)
		}
	}
	// Fig. 10 Q1's q+ at SF 0.02 under tpch_spill's 4 MiB: its store of row
	// ids is held, so the input is read once and the sort passes the rows
	// through, serial and with the ids crossing an exchange. Injected
	// denials (PERM_FAULT) may deny the store, here and at 48 KiB above;
	// then only the output is checked.
	big := perm.NewDatabaseWithOptions(perm.Options{Parallelism: -1, MemoryLimit: 4 << 20, SpillDir: t.TempDir()})
	tpch.MustLoad(big, 0.02, 42)
	q1 := tpch.MustQGen(1, tpch.NewRand(7)).Provenance().Text
	want := big.MustQuery(q1)
	for _, workers := range []int{-1, 4} {
		db := big.WithOptions(func() perm.Options { o := big.Opts(); o.Parallelism = workers; return o }())
		if got := db.MustQuery(q1).String(); got != want.String() {
			t.Errorf("Q1 q+ at 4 MiB, workers=%d, differs from serial", workers)
		}
		report, err := db.ExplainAnalyzeSQL(q1)
		if err != nil {
			t.Fatal(err)
		}
		var stored, bytes int
		for _, line := range strings.Split(report, "\n") {
			if i := strings.Index(line, "materialized="); i >= 0 {
				fmt.Sscanf(line[i:], "materialized=%d mem=%dB", &stored, &bytes)
			}
		}
		if !fault.Enabled() && (stored != len(want.Rows) || bytes > 2<<20 || !strings.Contains(report, "by_group") ||
			strings.Contains(report, "spills=") || strings.Contains(report, "Exchange") != (workers > 1)) {
			t.Errorf("Q1 q+ at 4 MiB, workers=%d: %d of %d rows stored in %d bytes:\n%s", workers, stored, len(want.Rows), bytes, report)
		}
	}

	res := serial.MustQuery(`SELECT labels, value FROM perm_metrics WHERE name = 'perm_joinback_two_sided_total'`)
	if !strings.Contains(res.String(), `reason="having_sublink"`) {
		t.Errorf("perm_metrics lacks the two-sided reasons:\n%s", res)
	}
}

// assertByGroup checks whether EXPLAIN ANALYZE of q shows its sort passing
// the join-back's rows through.
func assertByGroup(t *testing.T, db *perm.Database, q string, want bool) {
	t.Helper()
	report, err := db.ExplainAnalyzeSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(report, "by_group") != want {
		t.Errorf("%s: by_group = %v, want %v:\n%s", q, !want, want, report)
	}
}

// TestJoinBackRobust: the join-back operator completes under a 48 KiB
// budget — its row store denied, and with its group table denied too —
// with output byte-identical to the unbudgeted run, serial and parallel,
// and cancelled or timed out mid-attach it returns the structured error;
// either way it leaves no reservation, goroutine or spill file behind.
func TestJoinBackRobust(t *testing.T) {
	const (
		// 7 groups over 65,536 rows, which the budget does not let the
		// operator hold: it reads its input again. 20,000 groups deny the
		// group table, which spills like any aggregation's; its rows then
		// attach by key through a Grace join. The float sum adds halves,
		// which sum exactly however the spilled partial sums combine.
		attach = `SELECT PROVENANCE b, count(*), sum(a) FROM big GROUP BY b`
		keyed  = `SELECT PROVENANCE a % 20000 AS k, count(*) FROM big GROUP BY a % 20000`
		fsum   = `SELECT PROVENANCE a % 20000 AS k, sum(a * 0.5), avg(a * 0.5) FROM big GROUP BY a % 20000`
	)
	base := perm.NewDatabaseWithOptions(perm.Options{Parallelism: -1, MemoryLimit: -1, SpillDir: t.TempDir()})
	bigTable(base)
	observer := base.WithOptions(base.Opts())
	with := func(change func(*perm.Options)) *perm.Database {
		o := base.Opts()
		change(&o)
		return base.WithOptions(o)
	}
	idle := func(t *testing.T, db *perm.Database) {
		t.Helper()
		if inUse := db.SessionQueryStats().MemoryInUse; inUse != 0 {
			t.Errorf("reserved memory after the statement = %d, want 0", inUse)
		}
		if fds := leakedSpillFDs(); len(fds) > 0 {
			t.Errorf("spill files still open: %v", fds)
		}
	}
	tiny := func(o *perm.Options) { o.MemoryLimit = 48 << 10 }
	configs := []struct {
		name string
		db   *perm.Database
	}{
		{"48KiB", with(tiny)},
		{"48KiB/workers=4", with(func(o *perm.Options) { tiny(o); o.Parallelism = 4 })},
	}
	for _, q := range []struct{ name, text string }{{"attach", attach}, {"keyed", keyed}, {"keyed/float", fsum}} {
		want := base.MustQuery(q.text).String()
		for _, cfg := range configs {
			t.Run(cfg.name+"/"+q.name, func(t *testing.T) {
				leakCheck(t)
				spilled := cfg.db.SessionQueryStats().BytesSpilled
				if got := cfg.db.MustQuery(q.text).String(); got != want {
					t.Fatalf("budgeted output differs from the unbudgeted run")
				}
				keyed := q.name != "attach"
				if spilled == cfg.db.SessionQueryStats().BytesSpilled && keyed {
					t.Error("nothing spilled under 48 KiB")
				}
				report, err := cfg.db.ExplainAnalyzeSQL(q.text)
				if err != nil || !strings.Contains(report, "materialized=0") {
					t.Errorf("the store was held under 48 KiB (%v):\n%s", err, report)
				}
				if strings.Contains(report, "groups_spilled=") != keyed {
					t.Errorf("group table spilled = %v, want %v:\n%s", !keyed, keyed, report)
				}
				idle(t, cfg.db)
			})
		}
	}

	// 1 MiB holds the store of 65,536 row ids (512 KiB) but not 65,536
	// groups, which spill: the rows gathered by id attach by key. Injected
	// denials (PERM_FAULT) may deny the store too; then only the output is
	// checked.
	const held = `SELECT PROVENANCE a, count(*) FROM big GROUP BY a`
	want := base.MustQuery(held).String()
	for _, cfg := range configs {
		db := cfg.db.WithOptions(func() perm.Options { o := cfg.db.Opts(); o.MemoryLimit = 1 << 20; return o }())
		t.Run(strings.Replace(cfg.name, "48KiB", "1MiB", 1)+"/keyed/held", func(t *testing.T) {
			leakCheck(t)
			if got := db.MustQuery(held).String(); got != want {
				t.Fatalf("budgeted output differs from the unbudgeted run")
			}
			report, err := db.ExplainAnalyzeSQL(held)
			if err != nil || !fault.Enabled() && (!strings.Contains(report, "materialized=65536") || !strings.Contains(report, "groups_spilled=")) {
				t.Errorf("want the store held and the group table spilled (%v):\n%s", err, report)
			}
			idle(t, db)
		})
	}

	for _, cfg := range []struct {
		name string
		db   *perm.Database
	}{{"serial", base}, {"48KiB", with(tiny)}} {
		t.Run("cancel/"+cfg.name, func(t *testing.T) {
			leakCheck(t)
			p, err := cfg.db.Prepare(attach)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := p.Start()
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			if rows, err := cur.Fetch(10); err != nil || len(rows) != 10 {
				t.Fatalf("Fetch(10) = %d rows, %v", len(rows), err)
			}
			id := cursorQueryID(t, observer, attach)
			if err := observer.Cancel(id); err != nil {
				t.Fatalf("Cancel(%s): %v", id, err)
			}
			var qe *obs.QueryError
			if _, err := cur.Fetch(0); !errors.As(err, &qe) || qe.Code != obs.CodeCancelled {
				t.Fatalf("Fetch after CANCEL: %v, want the structured cancelled error", err)
			}
			cur.Close()
			idle(t, cfg.db)
		})
		t.Run("timeout/"+cfg.name, func(t *testing.T) {
			leakCheck(t)
			db := cfg.db.WithOptions(func() perm.Options {
				o := cfg.db.Opts()
				o.StatementTimeout = 300 * time.Millisecond
				return o
			}())
			p, err := db.Prepare(attach)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := p.Start()
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			if rows, err := cur.Fetch(10); err != nil || len(rows) != 10 {
				t.Fatalf("Fetch(10) = %d rows, %v", len(rows), err)
			}
			time.Sleep(400 * time.Millisecond)
			var qe *obs.QueryError
			if _, err := cur.Fetch(0); !errors.As(err, &qe) || qe.Code != obs.CodeTimeout {
				t.Fatalf("Fetch past the statement timeout: %v, want the structured timeout error", err)
			}
			cur.Close()
			idle(t, db)
		})
	}
	if obs.JoinBackShared.Load() == 0 {
		t.Error("the robustness corpus never planned the join-back operator")
	}
}

// TestJoinBackSnapshot: a join-back that keeps its rows as snapshot row
// ids reads them from the statement's snapshot to the end, although an
// INSERT and a DELETE on the table land while its cursor is mid-stream.
func TestJoinBackSnapshot(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{Parallelism: -1, MemoryLimit: -1})
	bigTable(db)
	db.MustExec(`CREATE TABLE w (a int, b int, s text); INSERT INTO w SELECT a, b, s FROM big WHERE a < 5000`)
	const q = `SELECT PROVENANCE b, count(*), sum(a) FROM w GROUP BY b ORDER BY b`
	want := db.MustQuery(q)
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	got, err := cur.Fetch(10)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO w SELECT a, b + 1, 'new' FROM big WHERE a < 3000`)
	db.MustExec(`DELETE FROM w WHERE a % 3 = 0`)
	rest, err := cur.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, rest...)
	if len(got) != len(want.Rows) {
		t.Fatalf("cursor returned %d rows, the statement's snapshot has %d", len(got), len(want.Rows))
	}
	for i, row := range got {
		if fingerprint(row, len(row)) != fingerprint(want.Rows[i], len(row)) {
			t.Fatalf("row %d = %v, want %v", i, row, want.Rows[i])
		}
	}
	if db.MustQuery(q).String() == want.String() {
		t.Error("the writes did not change the table")
	}
}

// joinBackDeferredQueries are the statements TestJoinBackDeferred runs:
// Fig. 10's Q1 and Q6 q+ (by group and in input order), the R5 shapes, a
// q+ whose groups outnumber a table chunk, and q+ read by a filter or a
// sort on a witness column, which take gathered columns (gathered true).
func joinBackDeferredQueries() (stmts []string, gathered map[string]bool) {
	rng := tpch.NewRand(7)
	stmts = append(stmts, tpch.MustQGen(1, rng).Provenance().Text)
	rng = tpch.NewRand(7)
	stmts = append(stmts, tpch.MustQGen(6, rng).Provenance().Text)
	for _, s := range joinBackShapes {
		stmts = append(stmts, injectProv(s.q))
	}
	stmts = append(stmts, `SELECT PROVENANCE l_orderkey, l_linenumber, sum(l_quantity) AS s FROM lineitem
		GROUP BY l_orderkey, l_linenumber ORDER BY l_orderkey DESC, l_linenumber`)
	gathered = make(map[string]bool)
	for _, q := range []string{
		`SELECT * FROM (SELECT PROVENANCE l_returnflag, count(*) AS c FROM lineitem GROUP BY l_returnflag) x
			WHERE prov_lineitem_l_quantity > 10`,
		`SELECT * FROM (SELECT PROVENANCE l_returnflag, count(*) AS c FROM lineitem GROUP BY l_returnflag) x
			ORDER BY prov_lineitem_l_orderkey DESC, prov_lineitem_l_linenumber`,
	} {
		stmts, gathered[q] = append(stmts, q), true
	}
	return stmts, gathered
}

// TestJoinBackDeferred: a join-back that hands its witness and group
// columns to the result root as row ids yields results identical, value
// for value and in order, to the row engine's, serial and with 2 and 4
// workers, unbudgeted, at 4 MiB and at 48 KiB (its store denied, or its
// group table spilled), drained by Query, by EXPLAIN ANALYZE and by a
// Cursor fetching 7 rows at a time. EXPLAIN ANALYZE shows deferred=N on
// the Fig. 10 Q1 q+ when its sort passes its rows through, and on no
// join-back read by a filter or a sort on a witness column.
func TestJoinBackDeferred(t *testing.T) {
	setup := func(db *perm.Database) *perm.Database {
		db.MustExec(joinBackFixture + `
			CREATE TABLE r (a int, b text);
			INSERT INTO r VALUES (1, 'x'), (2, 'y'), (2, 'y'), (3, NULL);`)
		tpch.MustLoad(db, 0.001, 42)
		return db
	}
	ref := setup(perm.NewDatabaseWithOptions(perm.Options{DisableVectorized: true, Parallelism: -1, MemoryLimit: -1}))
	base := setup(perm.NewDatabaseWithOptions(perm.Options{Parallelism: -1, MemoryLimit: -1, SpillDir: t.TempDir()}))
	stmts, gathered := joinBackDeferredQueries()
	want := make(map[string]*perm.Result, len(stmts))
	for _, q := range stmts {
		want[q] = ref.MustQuery(q)
	}
	q1, q6 := stmts[0], stmts[1]
	deferred := 0
	for _, limit := range []int64{-1, 4 << 20, 48 << 10} {
		for _, workers := range []int{-1, 2, 4} {
			o := base.Opts()
			o.MemoryLimit, o.Parallelism = limit, workers
			db := base.WithOptions(o)
			cfg := fmt.Sprintf("limit=%d workers=%d", limit, workers)
			for _, q := range stmts {
				assertRowsIdentical(t, cfg+" Query", q, db.MustQuery(q), want[q])
				res, report, err := db.QueryAnalyzed(q)
				if err != nil {
					t.Fatal(err)
				}
				assertRowsIdentical(t, cfg+" EXPLAIN ANALYZE", q, res, want[q])
				if strings.Contains(report, "deferred=") {
					deferred++
				}
				if gathered[q] && (!strings.Contains(report, "VecAggAttach") || strings.Contains(report, "deferred=")) {
					t.Errorf("%s: a witness column is read above the join-back, which must gather:\n%s", cfg, report)
				}
				// Q1's input is not empty: materialized=0 is a denied store. A
				// held one whose sort does not pass its rows through (at 48
				// KiB the ordering's room is denied) gathers for the sort.
				byGroup := !strings.Contains(report, "materialized=0") && strings.Contains(report, "by_group")
				if q == q1 && !fault.Enabled() && strings.Contains(report, "deferred=28") != byGroup {
					t.Errorf("%s: Q1 q+, rows passed through the sort = %v, defers its 28 columns only then:\n%s", cfg, byGroup, report)
				}
				if q == q1 || q == q6 || gathered[q] {
					assertRowsIdentical(t, cfg+" Cursor", q, cursorRows(t, db, q, 7), want[q])
				}
			}
		}
	}
	if deferred == 0 && !fault.Enabled() {
		t.Error("no join-back deferred a column")
	}
}

// assertRowsIdentical checks that got has want's rows, in order, value for
// value (types.Identical: kind, payload bits, string bytes), a NULL
// matching any NULL: the row engine leaves NULL % 2 untyped where the
// batch engine types it.
func assertRowsIdentical(t *testing.T, how, q string, got, want *perm.Result) {
	t.Helper()
	g, w := got.RawRows(), want.RawRows()
	if len(g) != len(w) {
		t.Errorf("%s: %s\nreturned %d rows, want %d", how, q, len(g), len(w))
		return
	}
	for i := range g {
		if len(g[i]) != len(w[i]) {
			t.Errorf("%s: %s\nrow %d has %d values, want %d", how, q, i, len(g[i]), len(w[i]))
			return
		}
		for j := range g[i] {
			if !types.Identical(g[i][j], w[i][j]) && !(g[i][j].Null && w[i][j].Null) {
				t.Errorf("%s: %s\nrow %d = %v, want %v", how, q, i, got.Rows[i], want.Rows[i])
				return
			}
		}
	}
}

// cursorRows fetches q through a Cursor, n rows at a time.
func cursorRows(t *testing.T, db *perm.Database, q string, n int) *perm.Result {
	t.Helper()
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	res := &perm.Result{}
	for {
		rows, err := cur.Fetch(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			return res
		}
		if len(rows) > n {
			t.Fatalf("Fetch(%d) returned %d rows", n, len(rows))
		}
		res.Rows = append(res.Rows, rows...)
	}
}
