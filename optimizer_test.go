package perm_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"perm"
	"perm/internal/synth"
	"perm/internal/tpch"
)

// optPair builds two databases over the same DDL/DML script, one with the
// logical optimizer enabled (the default) and one without.
func optPair(t testing.TB, script string) (on, off *perm.Database) {
	t.Helper()
	on = perm.NewDatabase()
	off = perm.NewDatabaseWithOptions(perm.Options{DisableOptimizer: true})
	on.MustExec(script)
	off.MustExec(script)
	return on, off
}

// sortedRows renders a result as order-insensitive row strings.
func sortedRows(res *perm.Result) []string {
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		rows[i] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	return rows
}

// assertSameResult runs one query against both databases and requires
// identical columns, provenance flags and (sorted) rows.
func assertSameResult(t *testing.T, on, off *perm.Database, query string) {
	t.Helper()
	resOn, errOn := on.Query(query)
	resOff, errOff := off.Query(query)
	if (errOn == nil) != (errOff == nil) {
		t.Fatalf("error divergence for %q: on=%v off=%v", query, errOn, errOff)
	}
	if errOn != nil {
		return // both fail the same way; nothing to compare
	}
	if fmt.Sprint(resOn.Columns) != fmt.Sprint(resOff.Columns) {
		t.Fatalf("columns diverge for %q:\n on=%v\noff=%v", query, resOn.Columns, resOff.Columns)
	}
	if fmt.Sprint(resOn.ProvColumns) != fmt.Sprint(resOff.ProvColumns) {
		t.Fatalf("provenance flags diverge for %q:\n on=%v\noff=%v",
			query, resOn.ProvColumns, resOff.ProvColumns)
	}
	rowsOn, rowsOff := sortedRows(resOn), sortedRows(resOff)
	if len(rowsOn) != len(rowsOff) {
		t.Fatalf("row count diverges for %q: on=%d off=%d", query, len(rowsOn), len(rowsOff))
	}
	for i := range rowsOn {
		if rowsOn[i] != rowsOff[i] {
			t.Fatalf("row %d diverges for %q:\n on=%q\noff=%q", i, query, rowsOn[i], rowsOff[i])
		}
	}
}

const transparencyFixture = `
	CREATE TABLE nums (n int, label text);
	INSERT INTO nums VALUES (1, 'one'), (2, 'two'), (3, 'three'), (4, NULL), (NULL, 'nil');
	CREATE TABLE pairs (a int, b int);
	INSERT INTO pairs VALUES (1, 10), (2, 20), (2, 21), (5, 50);
	CREATE TABLE r (a int, b text);
	INSERT INTO r VALUES (1, 'x'), (2, 'y'), (2, 'y'), (3, NULL);
	CREATE TABLE s (a int, c int);
	INSERT INTO s VALUES (1, 100), (2, 200), (4, 400);
	CREATE TABLE empty_t (x int, y text);
	CREATE VIEW ryview AS SELECT a, b FROM r WHERE b LIKE 'y%';
	CREATE VIEW aggview AS SELECT b, count(*) AS cnt FROM r GROUP BY b;
`

// transparencyCorpus covers every query shape the optimizer rules touch,
// with and without provenance: nested SPJ, views, outer joins, set
// operations, aggregation, DISTINCT, sublinks, LIMIT.
var transparencyCorpus = []string{
	// Plain SPJ and nesting.
	`SELECT n, label FROM nums WHERE n < 3`,
	`SELECT t.n FROM (SELECT n, label FROM nums WHERE n > 1) AS t WHERE t.n < 4`,
	`SELECT x.n, y.b FROM (SELECT n FROM nums) AS x, (SELECT a, b FROM pairs) AS y WHERE x.n = y.a`,
	`SELECT z.n FROM (SELECT t.n FROM (SELECT n FROM nums WHERE n > 0) AS t) AS z`,
	`SELECT v.a, v.b FROM ryview AS v`,
	`SELECT * FROM aggview`,
	`SELECT cnt FROM aggview WHERE b = 'y'`,
	// Outer joins with subqueries on both sides.
	`SELECT nums.n, t.b FROM nums LEFT JOIN (SELECT a, b FROM pairs WHERE b > 15) AS t ON nums.n = t.a`,
	`SELECT t.b, nums.n FROM (SELECT a, b FROM pairs WHERE b > 15) AS t RIGHT JOIN nums ON nums.n = t.a`,
	`SELECT nums.n, t.c FROM nums LEFT JOIN (SELECT a, 1 AS c FROM pairs) AS t ON nums.n = t.a`,
	`SELECT a.n, b.n FROM (SELECT n FROM nums) AS a FULL JOIN (SELECT n FROM nums WHERE n > 2) AS b ON a.n = b.n`,
	// Set operations.
	`SELECT a FROM r UNION SELECT a FROM s`,
	`SELECT a FROM r UNION ALL SELECT a FROM s`,
	`SELECT u.a FROM (SELECT a FROM r UNION ALL SELECT a FROM s) AS u WHERE u.a > 1`,
	`SELECT u.a FROM (SELECT a FROM r INTERSECT SELECT a FROM s) AS u WHERE u.a < 3`,
	`SELECT u.a FROM (SELECT a FROM r EXCEPT SELECT a FROM s) AS u WHERE u.a > 0`,
	// Aggregation, DISTINCT, ordering, limits.
	`SELECT b, count(*) FROM r GROUP BY b`,
	`SELECT DISTINCT b, count(*) FROM r GROUP BY b`,
	`SELECT DISTINCT d.b FROM (SELECT DISTINCT a, b FROM r) AS d`,
	`SELECT g.n FROM (SELECT b, count(*) AS n, min(a) AS m FROM r GROUP BY b) AS g`,
	`SELECT n FROM nums ORDER BY n DESC LIMIT 2`,
	`SELECT t.n FROM (SELECT n FROM nums ORDER BY n LIMIT 3) AS t WHERE t.n > 1`,
	// Sublinks.
	`SELECT n FROM nums WHERE n IN (SELECT a FROM pairs)`,
	`SELECT n FROM nums WHERE n = (SELECT max(a) FROM pairs)`,
	`SELECT n FROM nums WHERE EXISTS (SELECT a FROM pairs WHERE b > 15)`,
	`SELECT label FROM nums WHERE n NOT IN (SELECT a FROM pairs)`,
	// Provenance variants of every shape (the rewriter's output is what
	// the optimizer was built for).
	`SELECT PROVENANCE n, label FROM nums WHERE n < 3`,
	`SELECT PROVENANCE t.n FROM (SELECT n, label FROM nums WHERE n > 1) AS t WHERE t.n < 4`,
	`SELECT PROVENANCE x.n, y.b FROM (SELECT n FROM nums) AS x, (SELECT a, b FROM pairs) AS y WHERE x.n = y.a`,
	`SELECT PROVENANCE v.a FROM ryview AS v`,
	`SELECT PROVENANCE b, count(*) AS c FROM r GROUP BY b`,
	`SELECT PROVENANCE a, sum(b) FROM pairs GROUP BY a HAVING sum(b) > 15`,
	`SELECT PROVENANCE DISTINCT b FROM r`,
	`SELECT PROVENANCE a FROM r UNION SELECT a FROM s`,
	`SELECT PROVENANCE a FROM r INTERSECT SELECT a FROM s`,
	`SELECT PROVENANCE a FROM r EXCEPT SELECT a FROM s`,
	`SELECT PROVENANCE n FROM nums WHERE n IN (SELECT a FROM pairs)`,
	`SELECT PROVENANCE n FROM nums WHERE n = (SELECT max(a) FROM pairs)`,
	`SELECT PROVENANCE n FROM nums ORDER BY n LIMIT 2`,
	`SELECT PROVENANCE cnt FROM aggview WHERE b = 'y'`,
	`SELECT PROVENANCE x FROM empty_t`,
	`SELECT PROVENANCE sub.c FROM (SELECT count(*) AS c FROM r BASERELATION) AS sub`,
}

// TestOptimizerTransparency runs the corpus with the optimizer on vs off
// and requires identical results — the optimizer must be invisible except
// for speed.
func TestOptimizerTransparency(t *testing.T) {
	on, off := optPair(t, transparencyFixture)
	for _, q := range transparencyCorpus {
		q := q
		t.Run(q[:minInt(40, len(q))], func(t *testing.T) {
			assertSameResult(t, on, off, q)
		})
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestOptimizerTransparencyTPCH is the property test over generated
// workloads: random SPJ trees, set-operation trees and aggregation chains
// (the paper's §V-B generators) plus the supported TPC-H queries, each
// run normal and with provenance against optimizer-on and -off databases.
func TestOptimizerTransparencyTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H property test skipped with -short")
	}
	const sf = 0.001
	on := perm.NewDatabase()
	off := perm.NewDatabaseWithOptions(perm.Options{DisableOptimizer: true})
	tpch.MustLoad(on, sf, 42)
	tpch.MustLoad(off, sf, 42)
	maxKey, err := on.TableRowCount("part")
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
		assertSameResult(t, on, off, q)
		assertSameResult(t, on, off, injectProv(q))
	}

	rng := tpch.NewRand(7)
	for _, n := range tpch.SupportedQueries() {
		q := tpch.MustQGen(n, rng)
		for _, db := range []*perm.Database{on, off} {
			for _, s := range q.Setup {
				if _, err := db.Exec(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		assertSameResult(t, on, off, q.Text)
		assertSameResult(t, on, off, q.Provenance().Text)
		for _, db := range []*perm.Database{on, off} {
			for _, s := range q.Teardown {
				if _, err := db.Exec(s); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestOptimizerGoldenExplain pins the flattened plans for rewritten
// queries: the optimizer must remove the per-subquery projection shells
// so rewritten SPJ provenance queries plan as a single join over base
// scans.
func TestOptimizerGoldenExplain(t *testing.T) {
	// Pin the memory budget off: these tests golden-match plan shapes,
	// and a PERM_MEMORY_LIMIT environment override would add spill=on
	// annotations (covered by the dedicated spill tests).
	on := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1})
	off := perm.NewDatabaseWithOptions(perm.Options{DisableOptimizer: true, MemoryLimit: -1})
	on.MustExec(transparencyFixture)
	off.MustExec(transparencyFixture)

	cases := []struct {
		name  string
		query string
		want  string
		// sameOff: the optimizer-off plan is the same (a join-back pair
		// the planner evaluates as one either way).
		sameOff bool
	}{
		{
			name:  "flattened-spj-provenance",
			query: `SELECT PROVENANCE x.n, y.b FROM (SELECT n FROM nums) AS x, (SELECT a, b FROM pairs) AS y WHERE x.n = y.a`,
			want: strings.Join([]string{
				"BatchToRow",
				"  VecProject (6 cols)",
				"    VecHashJoin (inner, 1 keys, RuntimeFilter)",
				"      VecScan (5 rows, RuntimeFilter)",
				"      VecScan (4 rows)",
				"",
			}, "\n"),
		},
		{
			// One VecAggAttach evaluates the aggregation and its rewritten
			// duplicate, which read one block, for both sides of the
			// join-back.
			name:  "flattened-aggregation-provenance",
			query: `SELECT PROVENANCE b, count(*) AS c FROM r GROUP BY b`,
			want: strings.Join([]string{
				"BatchToRow",
				"  VecProject (4 cols)",
				"    VecAggAttach (1 keys, 1 aggs)",
				"      VecScan (4 rows)",
				"",
			}, "\n"),
			sameOff: true,
		},
		{
			// Under a LIMIT the join-back stays two-sided: it puts the
			// (smaller) aggregate on the build side and publishes a runtime
			// filter onto the probe scan — the provenance shape PR 4's
			// runtime filters target.
			name:  "two-sided-aggregation-provenance",
			query: `SELECT PROVENANCE b, count(*) AS c FROM r GROUP BY b ORDER BY b LIMIT 2`,
			want: strings.Join([]string{
				"BatchToRow",
				"  VecProject (4 cols)",
				"    VecHashJoin (left, 2 keys)",
				"      VecTopN (1 keys, keep 2)",
				"        VecProject (2 cols)",
				"          VecHashAggregate (1 keys, 1 aggs)",
				"            VecScan (4 rows)",
				"      VecHashJoin (inner, 1 keys, RuntimeFilter)",
				"        VecScan (4 rows, RuntimeFilter)",
				"        VecProject (2 cols)",
				"          VecHashAggregate (1 keys, 1 aggs)",
				"            VecScan (4 rows)",
				"",
			}, "\n"),
		},
		{
			name:  "view-unfolding-flattened",
			query: `SELECT v.a FROM ryview AS v WHERE v.a > 1`,
			want: strings.Join([]string{
				"BatchToRow",
				"  VecProject (1 cols)",
				"    VecFilter",
				"      VecScan (4 rows)",
				"",
			}, "\n"),
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got, err := on.ExplainSQL(c.query)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("optimized plan mismatch for %q:\ngot:\n%swant:\n%s", c.query, got, c.want)
			}
			// The same query without the optimizer must keep the nested
			// shells — guards against the baseline silently changing.
			raw, err := off.ExplainSQL(c.query)
			if err != nil {
				t.Fatal(err)
			}
			if (raw == got) != c.sameOff {
				t.Errorf("optimizer-off plan identical = %v for %q:\n%s", raw == got, c.query, raw)
			}
		})
	}
}

// TestOptimizedRewriteSQLRoundTrips: the deparsed form of an optimized
// tree must itself parse, run, and produce the provenance result.
func TestOptimizedRewriteSQLRoundTrips(t *testing.T) {
	on, _ := optPair(t, transparencyFixture)
	queries := []string{
		`SELECT PROVENANCE t.n FROM (SELECT n, label FROM nums WHERE n > 1) AS t WHERE t.n < 4`,
		`SELECT PROVENANCE x.n, y.b FROM (SELECT n FROM nums) AS x, (SELECT a, b FROM pairs) AS y WHERE x.n = y.a`,
		`SELECT PROVENANCE b, count(*) AS c FROM r GROUP BY b`,
		`SELECT PROVENANCE a FROM r UNION SELECT a FROM s`,
		`SELECT PROVENANCE v.a FROM ryview AS v`,
	}
	for _, q := range queries {
		rewritten, err := on.RewriteSQL(q)
		if err != nil {
			t.Fatalf("rewrite %q: %v", q, err)
		}
		direct := on.MustQuery(q)
		via, err := on.Query(rewritten)
		if err != nil {
			t.Fatalf("optimized q+ does not execute: %v\n%s", err, rewritten)
		}
		dr, vr := sortedRows(direct), sortedRows(via)
		if len(dr) != len(vr) {
			t.Fatalf("row count: direct %d vs deparsed %d for %q\n%s", len(dr), len(vr), q, rewritten)
		}
		for i := range dr {
			if dr[i] != vr[i] {
				t.Fatalf("row %d: %q vs %q for %q", i, dr[i], vr[i], q)
			}
		}
	}
}
