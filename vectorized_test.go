package perm_test

import (
	"strings"
	"testing"

	"perm"
	"perm/internal/synth"
	"perm/internal/tpch"
)

// vecPair builds two databases over the same DDL/DML script, one with
// the vectorized engine enabled (the default) and one without.
func vecPair(t testing.TB, script string) (on, off *perm.Database) {
	t.Helper()
	on = perm.NewDatabase()
	off = perm.NewDatabaseWithOptions(perm.Options{DisableVectorized: true})
	on.MustExec(script)
	off.MustExec(script)
	return on, off
}

// vecFixture extends the optimizer-transparency fixture with the
// date-typed table the SQL-logic corpus uses.
const vecFixture = transparencyFixture + `
	CREATE TABLE events (id int, d date);
	INSERT INTO events VALUES (1, '1995-01-15'), (2, '1995-06-17'), (3, '1996-03-01');
	CREATE VIEW big_pairs AS SELECT a, b FROM pairs WHERE b >= 20;
`

// logicCorpus mirrors the SQL-logic test corpus (sql_logic_test.go):
// every query shape the row engine is pinned on, re-run here with
// vectorization on vs off. Shapes the vectorized engine cannot lower
// (casts, functions, quantified sublinks, right/full outer joins...)
// exercise the per-subtree fallback path.
var logicCorpus = []string{
	// Selection, projection, scalar expressions.
	`SELECT n FROM nums WHERE n < 3`,
	`SELECT * FROM pairs WHERE a = 1`,
	`SELECT n * 10 + 1 FROM nums WHERE n = 2`,
	`SELECT n AS num FROM nums WHERE n IS NULL`,
	`SELECT 1 + 2, 'x'`,
	`SELECT n FROM nums WHERE n > 0`,
	`SELECT DISTINCT a FROM pairs`,
	`SELECT label FROM nums WHERE n IS NULL`,
	`SELECT n FROM nums WHERE label IS NOT NULL AND n IS NOT NULL`,
	`SELECT count(*) FROM nums WHERE n IS DISTINCT FROM 1`,
	`SELECT n FROM nums WHERE n IN (1, 3, 99)`,
	`SELECT n FROM nums WHERE n NOT IN (1, 3)`,
	`SELECT n FROM nums WHERE n BETWEEN 2 AND 3`,
	`SELECT label FROM nums WHERE label LIKE 't%'`,
	`SELECT label FROM nums WHERE label LIKE '_n_'`,
	`SELECT CASE WHEN n < 3 THEN 'lo' ELSE 'hi' END FROM nums WHERE n IS NOT NULL`,
	`SELECT CASE WHEN n < 3 THEN 'lo' WHEN n >= 3 THEN 'hi' ELSE 'unknown' END FROM nums`,
	`SELECT CASE WHEN n < 3 THEN CASE WHEN n = 1 THEN 'one' ELSE 'two' END ELSE label END FROM nums`,
	`SELECT CASE WHEN n > 2 THEN n * 0.5 ELSE 0 END FROM nums WHERE n IS NOT NULL`,
	`SELECT CASE WHEN n - 2 <> 0 THEN 10 / (n - 2) ELSE -1 END FROM nums WHERE n IS NOT NULL`,
	`SELECT n FROM nums WHERE CASE WHEN label IS NULL THEN n > 3 ELSE n < 2 END`,
	`SELECT CASE WHEN n IS NULL THEN NULL ELSE n END, CASE n WHEN 1 THEN 'a' WHEN 2 THEN 'b' END FROM nums`,
	`SELECT sum(CASE WHEN b > 15 THEN 1 ELSE 0 END), sum(CASE WHEN a = 2 THEN b * 1.5 ELSE 0 END), count(CASE WHEN a = 2 THEN b END) FROM pairs`,
	`SELECT CASE WHEN a < 2 THEN 'small' ELSE 'big' END, count(*), min(CASE WHEN b > 20 THEN b END) FROM pairs GROUP BY CASE WHEN a < 2 THEN 'small' ELSE 'big' END`,
	`SELECT PROVENANCE sum(CASE WHEN a > 1 THEN a * 2.5 ELSE 0 END) FROM r`,
	`SELECT PROVENANCE b, max(CASE WHEN a > 1 THEN a END) FROM r GROUP BY b`,
	`SELECT CAST(n AS text) FROM nums WHERE n = 1`,
	`SELECT coalesce(n, 0) FROM nums`,
	`SELECT upper(label), length(label), substring(label, 1, 2) FROM nums WHERE n = 3`,
	`SELECT label || '!' FROM nums WHERE n = 1`,
	// Joins of every flavour.
	`SELECT n, b FROM nums, pairs WHERE n = a`,
	`SELECT n, b FROM nums JOIN pairs ON n = a`,
	`SELECT n, b FROM nums LEFT JOIN pairs ON n = a WHERE n IS NOT NULL`,
	`SELECT n, b FROM nums RIGHT JOIN pairs ON n = a`,
	`SELECT n, b FROM nums FULL JOIN pairs ON n = a`,
	`SELECT count(*) FROM nums CROSS JOIN pairs`,
	`SELECT n, a FROM nums JOIN pairs ON n < a WHERE n = 4`,
	`SELECT p1.a, p2.b FROM pairs AS p1, pairs AS p2 WHERE p1.b = p2.b AND p1.a = 5`,
	`SELECT count(*) FROM nums, pairs, empty_t`,
	// Aggregation.
	`SELECT count(*), count(n), sum(n), min(n), max(n) FROM nums`,
	`SELECT avg(b) FROM pairs`,
	`SELECT a, count(*), sum(b) FROM pairs GROUP BY a`,
	`SELECT n % 2, count(*) FROM nums WHERE n IS NOT NULL GROUP BY n % 2`,
	`SELECT a FROM pairs GROUP BY a HAVING count(*) > 1`,
	`SELECT sum(b) FROM pairs HAVING count(*) > 100`,
	`SELECT count(*), sum(x), min(x) FROM empty_t`,
	`SELECT x, count(*) FROM empty_t GROUP BY x`,
	`SELECT n, count(*) FROM nums GROUP BY n`,
	`SELECT count(DISTINCT a) FROM pairs`,
	`SELECT sum(DISTINCT a) FROM pairs`,
	`SELECT sum(b) / count(*) FROM pairs`,
	`SELECT n, count(b) FROM nums JOIN pairs ON n = a GROUP BY n`,
	`SELECT min(label), max(label) FROM nums`,
	// Set operations.
	`SELECT a FROM pairs UNION SELECT n FROM nums WHERE n <= 2`,
	`SELECT a FROM pairs UNION ALL SELECT n FROM nums WHERE n <= 2`,
	`SELECT a FROM pairs INTERSECT SELECT n FROM nums`,
	`SELECT a FROM pairs EXCEPT SELECT n FROM nums`,
	// Sublinks.
	`SELECT n FROM nums WHERE n = (SELECT min(a) FROM pairs)`,
	`SELECT n FROM nums WHERE n IN (SELECT a FROM pairs)`,
	`SELECT a FROM pairs WHERE a NOT IN (SELECT n FROM nums)`,
	`SELECT n FROM nums WHERE n > ANY (SELECT a FROM pairs WHERE a < 3)`,
	`SELECT n FROM nums WHERE n <= ALL (SELECT a FROM pairs)`,
	// Ordering and limits.
	`SELECT n FROM nums ORDER BY n`,
	`SELECT n * -1 AS neg FROM nums WHERE n IS NOT NULL ORDER BY neg`,
	`SELECT n FROM nums WHERE n IS NOT NULL ORDER BY n LIMIT 2`,
	`SELECT a, sum(b) AS s FROM pairs GROUP BY a ORDER BY s DESC`,
	// Subqueries and views.
	`SELECT s.n FROM (SELECT n FROM nums WHERE n < 3) AS s`,
	`SELECT total FROM (SELECT a, sum(b) AS total FROM pairs GROUP BY a) AS t WHERE total > 20`,
	`SELECT s1.n, s2.total FROM (SELECT n FROM nums) AS s1 JOIN (SELECT a, sum(b) AS total FROM pairs GROUP BY a) AS s2 ON s1.n = s2.a`,
	`SELECT a FROM big_pairs`,
	`SELECT v.a, n FROM big_pairs AS v JOIN nums ON v.a = n`,
	// Dates (date columns vectorize; interval arithmetic falls back).
	`SELECT id FROM events WHERE d < date '1995-12-31'`,
	`SELECT id FROM events WHERE d >= date '1995-01-01' + interval '1' year`,
	`SELECT extract(year FROM d), count(*) FROM events GROUP BY extract(year FROM d)`,
	`SELECT d - date '1995-01-15' FROM events WHERE id = 2`,
	`SELECT min(d), max(d) FROM events`,
	// Rewrite-rule corpus (rewrite_rules_test.go shapes), with provenance.
	`SELECT PROVENANCE a, b FROM r`,
	`SELECT PROVENANCE b FROM r WHERE a = 1`,
	`SELECT PROVENANCE DISTINCT b FROM r`,
	`SELECT PROVENANCE a FROM r WHERE b LIKE 'y%'`,
	`SELECT PROVENANCE r.a, c FROM r, s WHERE r.a = s.a`,
	`SELECT PROVENANCE b, count(*) FROM r GROUP BY b`,
	`SELECT PROVENANCE sum(a) FROM r`,
	`SELECT PROVENANCE a FROM r UNION SELECT a FROM s`,
	`SELECT PROVENANCE a FROM r INTERSECT SELECT a FROM s`,
	`SELECT PROVENANCE a FROM r EXCEPT SELECT a FROM s`,
	`SELECT PROVENANCE a FROM r EXCEPT ALL SELECT a FROM s`,
	`SELECT PROVENANCE r1.a FROM r AS r1, r AS r2 WHERE r1.a = r2.a`,
	`SELECT PROVENANCE a FROM r WHERE a NOT IN (SELECT a FROM s WHERE c > 150)`,
	`SELECT PROVENANCE a FROM r WHERE a >= (SELECT min(a) FROM s)`,
	`SELECT PROVENANCE a FROM s ORDER BY a LIMIT 2`,
	// ORDER BY / LIMIT / OFFSET shapes exercising VecSort/VecTopN/VecLimit
	// (ties, DESC with NULLs, hidden sort columns, offsets past the end).
	`SELECT a, b FROM pairs ORDER BY a, b DESC`,
	`SELECT n FROM nums ORDER BY n DESC`,
	`SELECT label FROM nums ORDER BY n LIMIT 3`,
	`SELECT a FROM pairs ORDER BY b % 7, a LIMIT 3`,
	`SELECT n FROM nums ORDER BY n LIMIT 2 OFFSET 2`,
	`SELECT n FROM nums ORDER BY n LIMIT 0`,
	`SELECT n FROM nums ORDER BY n OFFSET 99`,
	`SELECT n FROM nums LIMIT 3`,
	`SELECT a FROM pairs ORDER BY a LIMIT 10 OFFSET 1`,
	// DISTINCT shapes exercising VecDistinct.
	`SELECT DISTINCT b FROM pairs ORDER BY b DESC LIMIT 2`,
	`SELECT DISTINCT n, label FROM nums`,
	`SELECT DISTINCT a + 1 FROM pairs`,
	// Set operations exercising VecSetOp (with sorts/limits above).
	`SELECT a FROM pairs INTERSECT ALL SELECT n FROM nums`,
	`SELECT a FROM pairs EXCEPT ALL SELECT n FROM nums`,
	`SELECT a FROM pairs UNION ALL SELECT a FROM pairs ORDER BY 1 LIMIT 5`,
	`SELECT a FROM pairs UNION SELECT n FROM nums ORDER BY 1 DESC`,
	`SELECT n FROM nums UNION ALL SELECT n FROM nums UNION SELECT a FROM pairs`,
	// The same blocking shapes under provenance rewrite: these are the
	// pipelines PR 4 keeps columnar end to end.
	`SELECT PROVENANCE a, b FROM pairs ORDER BY b DESC LIMIT 2`,
	`SELECT PROVENANCE DISTINCT a FROM pairs ORDER BY a`,
	`SELECT PROVENANCE n FROM nums ORDER BY n LIMIT 2 OFFSET 1`,
	`SELECT PROVENANCE a FROM r UNION ALL SELECT a FROM s ORDER BY 1 LIMIT 4`,
	`SELECT PROVENANCE a FROM r INTERSECT ALL SELECT a FROM s`,
	`SELECT PROVENANCE b FROM r EXCEPT ALL SELECT b FROM r WHERE a = 2`,
	`SELECT PROVENANCE x.a FROM (SELECT a FROM r ORDER BY a LIMIT 3) AS x WHERE x.a > 0`,
	`SELECT PROVENANCE b, count(*) FROM r GROUP BY b ORDER BY count(*) DESC, b LIMIT 1`,
}

// TestVectorizedTransparency runs the optimizer-transparency corpus and
// the SQL-logic/rewrite-rule corpus with the vectorized engine on vs off
// and requires identical results — vectorization must be invisible
// except for speed.
func TestVectorizedTransparency(t *testing.T) {
	on, off := vecPair(t, vecFixture)
	corpus := append(append([]string{}, transparencyCorpus...), logicCorpus...)
	for _, q := range corpus {
		q := q
		t.Run(q[:minInt(40, len(q))], func(t *testing.T) {
			assertSameResult(t, on, off, q)
		})
	}
}

// TestVectorizedNullSafeIncomparableJoin: a null-safe join key over
// incomparable kinds must still match NULL with NULL (regression: the
// vectorized join's never-match shortcut may only apply to
// non-null-safe keys).
func TestVectorizedNullSafeIncomparableJoin(t *testing.T) {
	on, off := vecPair(t, `
		CREATE TABLE ti (i int);
		INSERT INTO ti VALUES (1), (NULL);
		CREATE TABLE ts (s text);
		INSERT INTO ts VALUES ('x'), (NULL);
	`)
	q := `SELECT count(*) FROM ti JOIN ts ON ti.i IS NOT DISTINCT FROM ts.s`
	assertSameResult(t, on, off, q)
	if got := on.MustQuery(q).Rows[0][0].Int(); got != 1 {
		t.Fatalf("NULL IS NOT DISTINCT FROM NULL must match once, got %d", got)
	}
}

// TestVectorizedTransparencyTPCH runs the generated workloads (random
// SPJ trees, set-operation trees, aggregation chains) and the supported
// TPC-H queries — normal and with provenance — against vectorized-on and
// -off databases (the §V-B generators, mirroring the optimizer's
// property test).
func TestVectorizedTransparencyTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H property test skipped with -short")
	}
	const sf = 0.001
	on := perm.NewDatabase()
	off := perm.NewDatabaseWithOptions(perm.Options{DisableVectorized: true})
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

// TestFig10ColumnarEndToEnd asserts the PR 4 acceptance shape on the
// Fig. 10 benchmark queries: Q1/Q3/Q10, normal and with provenance, plan
// with zero BatchToRow demotions except the top-level result sink, and
// at least one provenance join publishes a runtime filter.
func TestFig10ColumnarEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H plan test skipped with -short")
	}
	db := perm.NewDatabase()
	tpch.MustLoad(db, 0.001, 42)
	rng := tpch.NewRand(7)
	sawRuntimeFilter := false
	for _, n := range []int{1, 3, 10} {
		q := tpch.MustQGen(n, rng)
		for _, s := range q.Setup {
			db.MustExec(s)
		}
		for _, v := range []struct{ name, text string }{
			{"norm", q.Text},
			{"prov", q.Provenance().Text},
		} {
			out, err := db.ExplainSQL(v.text)
			if err != nil {
				t.Fatalf("Q%d/%s: %v", n, v.name, err)
			}
			if got := strings.Count(out, "BatchToRow"); got != 1 {
				t.Errorf("Q%d/%s: %d BatchToRow nodes, want exactly the top-level sink:\n%s", n, v.name, got, out)
			}
			if !strings.HasPrefix(out, "BatchToRow") {
				t.Errorf("Q%d/%s: BatchToRow is not the plan root:\n%s", n, v.name, out)
			}
			if v.name == "prov" && strings.Contains(out, "RuntimeFilter") {
				sawRuntimeFilter = true
			}
		}
		for _, s := range q.Teardown {
			db.MustExec(s)
		}
	}
	if !sawRuntimeFilter {
		t.Error("no provenance plan published a runtime filter")
	}
}

// TestVectorizedGoldenExplain pins the EXPLAIN labelling of the
// vectorized engine: a fully vectorized plan, a mixed plan whose
// row-only top (sort) consumes a vectorized subtree through the
// batch→row adapter, and the -no-vectorized output.
func TestVectorizedGoldenExplain(t *testing.T) {
	// Pin the memory budget off: these tests golden-match plan shapes,
	// and a PERM_MEMORY_LIMIT environment override would add spill=on
	// annotations (covered by the dedicated spill tests).
	on := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1})
	off := perm.NewDatabaseWithOptions(perm.Options{DisableVectorized: true, MemoryLimit: -1})
	on.MustExec(vecFixture)
	off.MustExec(vecFixture)

	cases := []struct {
		name  string
		db    *perm.Database
		query string
		want  string
	}{
		{
			name:  "fully-vectorized",
			db:    on,
			query: `SELECT n, b FROM nums, pairs WHERE n = a AND b > 15`,
			want: strings.Join([]string{
				"BatchToRow",
				"  VecProject (2 cols)",
				"    VecHashJoin (inner, 1 keys, RuntimeFilter)",
				"      VecScan (5 rows, RuntimeFilter)",
				"      VecFilter",
				"        VecScan (4 rows)",
				"",
			}, "\n"),
		},
		{
			name: "vectorized-sort",
			db:   on,
			// ORDER BY lowers to the columnar sort; the only BatchToRow
			// left is the top-level result sink.
			query: `SELECT n FROM nums WHERE n > 1 ORDER BY n`,
			want: strings.Join([]string{
				"BatchToRow",
				"  VecSort (1 keys)",
				"    VecProject (1 cols)",
				"      VecFilter",
				"        VecScan (5 rows)",
				"",
			}, "\n"),
		},
		{
			name: "mixed-unsupported-expression",
			db:   on,
			// The cast projection is not vectorizable: a row Project
			// consumes the vectorized filter through the adapter.
			query: `SELECT CAST(n AS text) FROM nums WHERE n > 0`,
			want: strings.Join([]string{
				"Project (1 cols)",
				"  BatchToRow",
				"    VecFilter",
				"      VecScan (5 rows)",
				"",
			}, "\n"),
		},
		{
			name: "case-stays-vectorized",
			db:   on,
			// CASE has a batch kernel: the projection and the aggregate
			// over it stay on the vectorized engine.
			query: `SELECT sum(CASE WHEN n < 3 THEN n ELSE 0 END) FROM nums WHERE n > 0`,
			want: strings.Join([]string{
				"BatchToRow",
				"  VecProject (1 cols)",
				"    VecHashAggregate (0 keys, 1 aggs)",
				"      VecFilter",
				"        VecScan (5 rows)",
				"",
			}, "\n"),
		},
		{
			name:  "no-vectorized",
			db:    off,
			query: `SELECT n, b FROM nums, pairs WHERE n = a AND b > 15`,
			want: strings.Join([]string{
				"Project (2 cols)",
				"  HashJoin (inner, 1 keys)",
				"    Scan (5 rows)",
				"    Filter",
				"      Scan (4 rows)",
				"",
			}, "\n"),
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got, err := c.db.ExplainSQL(c.query)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("plan mismatch for %q:\ngot:\n%swant:\n%s", c.query, got, c.want)
			}
		})
	}
}
