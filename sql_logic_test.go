package perm_test

import (
	"strings"
	"testing"

	"perm"
)

// logicDB builds a small database used by the SQL logic tests.
func logicDB(t testing.TB) *perm.Database {
	t.Helper()
	db := perm.NewDatabase()
	db.MustExec(`
		CREATE TABLE nums (n int, label text);
		INSERT INTO nums VALUES (1, 'one'), (2, 'two'), (3, 'three'), (4, NULL), (NULL, 'nil');
		CREATE TABLE pairs (a int, b int);
		INSERT INTO pairs VALUES (1, 10), (2, 20), (2, 21), (5, 50);
		CREATE TABLE empty_t (x int, y text);
	`)
	return db
}

// queryCase is one table-driven logic test.
type queryCase struct {
	name   string
	query  string
	want   []string // order-insensitive unless sorted is true
	sorted bool
}

func runCases(t *testing.T, db *perm.Database, cases []queryCase) {
	t.Helper()
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res, err := db.Query(c.query)
			if err != nil {
				t.Fatalf("%s: %v", c.query, err)
			}
			if c.sorted {
				got := make([]string, len(res.Rows))
				for i, row := range res.Rows {
					parts := make([]string, len(row))
					for j, v := range row {
						parts[j] = v.String()
					}
					got[i] = strings.Join(parts, "|")
				}
				if len(got) != len(c.want) {
					t.Fatalf("got %d rows %v, want %d %v", len(got), got, len(c.want), c.want)
				}
				for i := range got {
					if got[i] != c.want[i] {
						t.Fatalf("row %d: got %q want %q\nall: %v", i, got[i], c.want[i], got)
					}
				}
				return
			}
			expectRows(t, res, c.want)
		})
	}
}

func TestSelectBasics(t *testing.T) {
	db := logicDB(t)
	runCases(t, db, []queryCase{
		{name: "project", query: "SELECT n FROM nums WHERE n < 3",
			want: []string{"1", "2"}},
		{name: "star", query: "SELECT * FROM pairs WHERE a = 1",
			want: []string{"1|10"}},
		{name: "computed", query: "SELECT n * 10 + 1 FROM nums WHERE n = 2",
			want: []string{"21"}},
		{name: "alias", query: "SELECT n AS num FROM nums WHERE n IS NULL",
			want: []string{"NULL"}},
		{name: "no-from", query: "SELECT 1 + 2, 'x'",
			want: []string{"3|x"}},
		{name: "where-null-dropped", query: "SELECT n FROM nums WHERE n > 0",
			want: []string{"1", "2", "3", "4"}}, // NULL > 0 is unknown → dropped
		{name: "distinct", query: "SELECT DISTINCT a FROM pairs",
			want: []string{"1", "2", "5"}},
		{name: "is-null", query: "SELECT label FROM nums WHERE n IS NULL",
			want: []string{"nil"}},
		{name: "is-not-null", query: "SELECT n FROM nums WHERE label IS NOT NULL AND n IS NOT NULL",
			want: []string{"1", "2", "3"}},
		{name: "not-distinct", query: "SELECT count(*) FROM nums WHERE n IS DISTINCT FROM 1",
			want: []string{"4"}},
		{name: "in-list", query: "SELECT n FROM nums WHERE n IN (1, 3, 99)",
			want: []string{"1", "3"}},
		{name: "not-in-list", query: "SELECT n FROM nums WHERE n NOT IN (1, 3)",
			want: []string{"2", "4"}},
		{name: "between", query: "SELECT n FROM nums WHERE n BETWEEN 2 AND 3",
			want: []string{"2", "3"}},
		{name: "like", query: "SELECT label FROM nums WHERE label LIKE 't%'",
			want: []string{"two", "three"}},
		{name: "like-underscore", query: "SELECT label FROM nums WHERE label LIKE '_n_'",
			want: []string{"one"}},
		{name: "case", query: "SELECT CASE WHEN n < 3 THEN 'lo' ELSE 'hi' END FROM nums WHERE n IS NOT NULL",
			want: []string{"lo", "lo", "hi", "hi"}},
		{name: "case-operand", query: "SELECT CASE n WHEN 1 THEN 'a' WHEN 2 THEN 'b' END FROM nums WHERE n <= 3",
			want: []string{"a", "b", "NULL"}},
		{name: "case-null-condition", query: "SELECT CASE WHEN n < 3 THEN 'lo' WHEN n >= 3 THEN 'hi' ELSE 'unknown' END FROM nums",
			want: []string{"lo", "lo", "hi", "hi", "unknown"}},
		{name: "case-nested", query: "SELECT CASE WHEN n < 3 THEN CASE WHEN n = 1 THEN 'one' ELSE 'two' END ELSE label END FROM nums",
			want: []string{"one", "two", "three", "NULL", "nil"}},
		{name: "case-mixed-kinds", query: "SELECT CASE WHEN n > 2 THEN n * 0.5 ELSE 0 END FROM nums WHERE n IS NOT NULL",
			want: []string{"0", "0", "1.5", "2"}},
		{name: "case-guards-division", query: "SELECT CASE WHEN n - 2 <> 0 THEN 10 / (n - 2) ELSE -1 END FROM nums WHERE n IS NOT NULL",
			want: []string{"-10", "-1", "10", "5"}},
		{name: "case-in-filter", query: "SELECT n FROM nums WHERE CASE WHEN label IS NULL THEN n > 3 ELSE n < 2 END",
			want: []string{"1", "4"}},
		{name: "case-in-aggregate", query: "SELECT sum(CASE WHEN b > 15 THEN 1 ELSE 0 END), sum(CASE WHEN a = 2 THEN b * 1.5 ELSE 0 END), count(CASE WHEN a = 2 THEN b END) FROM pairs",
			want: []string{"3|61.5|2"}},
		{name: "case-in-group-by", query: "SELECT CASE WHEN a < 2 THEN 'small' ELSE 'big' END, count(*), min(CASE WHEN b > 20 THEN b END) FROM pairs GROUP BY CASE WHEN a < 2 THEN 'small' ELSE 'big' END",
			want: []string{"small|1|NULL", "big|3|21"}},
		{name: "cast", query: "SELECT CAST(n AS text) FROM nums WHERE n = 1",
			want: []string{"1"}},
		{name: "coalesce", query: "SELECT coalesce(n, 0) FROM nums",
			want: []string{"1", "2", "3", "4", "0"}},
		{name: "string-funcs", query: "SELECT upper(label), length(label), substring(label, 1, 2) FROM nums WHERE n = 3",
			want: []string{"THREE|5|th"}},
		{name: "concat-op", query: "SELECT label || '!' FROM nums WHERE n = 1",
			want: []string{"one!"}},
	})
}

func TestJoins(t *testing.T) {
	db := logicDB(t)
	runCases(t, db, []queryCase{
		{name: "inner-implicit", query: "SELECT n, b FROM nums, pairs WHERE n = a",
			want: []string{"1|10", "2|20", "2|21"}},
		{name: "inner-explicit", query: "SELECT n, b FROM nums JOIN pairs ON n = a",
			want: []string{"1|10", "2|20", "2|21"}},
		{name: "left", query: "SELECT n, b FROM nums LEFT JOIN pairs ON n = a WHERE n IS NOT NULL",
			want: []string{"1|10", "2|20", "2|21", "3|NULL", "4|NULL"}},
		{name: "right", query: "SELECT n, b FROM nums RIGHT JOIN pairs ON n = a",
			want: []string{"1|10", "2|20", "2|21", "NULL|50"}},
		{name: "full", query: "SELECT n, b FROM nums FULL JOIN pairs ON n = a",
			want: []string{"1|10", "2|20", "2|21", "3|NULL", "4|NULL", "NULL|NULL", "NULL|50"}},
		{name: "cross", query: "SELECT count(*) FROM nums CROSS JOIN pairs",
			want: []string{"20"}},
		{name: "non-equi", query: "SELECT n, a FROM nums JOIN pairs ON n < a WHERE n = 4",
			want: []string{"4|5"}},
		{name: "self-join", query: "SELECT p1.a, p2.b FROM pairs AS p1, pairs AS p2 WHERE p1.b = p2.b AND p1.a = 5",
			want: []string{"5|50"}},
		{name: "three-way", query: "SELECT count(*) FROM nums, pairs, empty_t",
			want: []string{"0"}},
		{name: "using", query: "SELECT count(*) FROM pairs AS p1 JOIN (SELECT a FROM pairs) AS p2 USING (a)",
			want: []string{"6"}}, // a=2 matches 2x2
	})
}

func TestAggregation(t *testing.T) {
	db := logicDB(t)
	runCases(t, db, []queryCase{
		{name: "global", query: "SELECT count(*), count(n), sum(n), min(n), max(n) FROM nums",
			want: []string{"5|4|10|1|4"}},
		{name: "avg", query: "SELECT avg(b) FROM pairs",
			want: []string{"25.25"}},
		{name: "group", query: "SELECT a, count(*), sum(b) FROM pairs GROUP BY a",
			want: []string{"1|1|10", "2|2|41", "5|1|50"}},
		{name: "group-expr", query: "SELECT n % 2, count(*) FROM nums WHERE n IS NOT NULL GROUP BY n % 2",
			want: []string{"0|2", "1|2"}},
		{name: "having", query: "SELECT a FROM pairs GROUP BY a HAVING count(*) > 1",
			want: []string{"2"}},
		{name: "having-no-group", query: "SELECT sum(b) FROM pairs HAVING count(*) > 100",
			want: []string{}},
		{name: "empty-global", query: "SELECT count(*), sum(x), min(x) FROM empty_t",
			want: []string{"0|NULL|NULL"}},
		{name: "empty-grouped", query: "SELECT x, count(*) FROM empty_t GROUP BY x",
			want: []string{}},
		{name: "empty-global-provenance", query: "SELECT PROVENANCE count(*), sum(x) FROM empty_t",
			want: []string{"0|NULL|NULL|NULL"}}, // q's one row, NULL provenance (R5's outer join)
		{name: "empty-global-provenance-filtered", query: "SELECT PROVENANCE count(*) FROM nums WHERE n > 100",
			want: []string{"0|NULL|NULL"}},
		{name: "empty-grouped-provenance", query: "SELECT PROVENANCE x, count(*) FROM empty_t GROUP BY x",
			want: []string{}},
		{name: "null-group", query: "SELECT n, count(*) FROM nums GROUP BY n",
			want: []string{"1|1", "2|1", "3|1", "4|1", "NULL|1"}},
		{name: "count-distinct", query: "SELECT count(DISTINCT a) FROM pairs",
			want: []string{"3"}},
		{name: "sum-distinct", query: "SELECT sum(DISTINCT a) FROM pairs",
			want: []string{"8"}},
		{name: "agg-in-expr", query: "SELECT sum(b) / count(*) FROM pairs",
			want: []string{"25"}},
		{name: "agg-over-join", query: "SELECT n, count(b) FROM nums JOIN pairs ON n = a GROUP BY n",
			want: []string{"1|1", "2|2"}},
	})
}

func TestSetOperations(t *testing.T) {
	db := logicDB(t)
	runCases(t, db, []queryCase{
		{name: "union", query: "SELECT a FROM pairs UNION SELECT n FROM nums WHERE n <= 2",
			want: []string{"1", "2", "5"}},
		{name: "union-all", query: "SELECT a FROM pairs UNION ALL SELECT n FROM nums WHERE n <= 2",
			want: []string{"1", "2", "2", "5", "1", "2"}},
		{name: "intersect", query: "SELECT a FROM pairs INTERSECT SELECT n FROM nums",
			want: []string{"1", "2"}},
		{name: "intersect-all", query: "SELECT a FROM pairs INTERSECT ALL SELECT a FROM pairs",
			want: []string{"1", "2", "2", "5"}},
		{name: "except", query: "SELECT a FROM pairs EXCEPT SELECT n FROM nums",
			want: []string{"5"}},
		{name: "except-all", query: "SELECT a FROM pairs EXCEPT ALL SELECT n FROM nums WHERE n = 2",
			want: []string{"1", "2", "5"}},
		{name: "union-nulls", query: "SELECT n FROM nums UNION SELECT n FROM nums",
			want: []string{"1", "2", "3", "4", "NULL"}},
		{name: "mixed-tree", query: "SELECT n FROM nums WHERE n = 1 UNION (SELECT n FROM nums WHERE n <= 2 EXCEPT SELECT n FROM nums WHERE n = 1)",
			want: []string{"1", "2"}},
		{name: "union-numeric-coercion", query: "SELECT n FROM nums WHERE n = 1 UNION SELECT avg(b) FROM pairs",
			want: []string{"1", "25.25"}},
	})
}

func TestSublinks(t *testing.T) {
	db := logicDB(t)
	runCases(t, db, []queryCase{
		{name: "scalar", query: "SELECT n FROM nums WHERE n = (SELECT min(a) FROM pairs)",
			want: []string{"1"}},
		{name: "scalar-empty", query: "SELECT n FROM nums WHERE n = (SELECT x FROM empty_t)",
			want: []string{}},
		{name: "in", query: "SELECT n FROM nums WHERE n IN (SELECT a FROM pairs)",
			want: []string{"1", "2"}},
		{name: "not-in", query: "SELECT n FROM nums WHERE n NOT IN (SELECT a FROM pairs)",
			want: []string{"3", "4"}},
		{name: "not-in-with-null", query: "SELECT a FROM pairs WHERE a NOT IN (SELECT n FROM nums)",
			want: []string{}}, // NULL in subquery → nothing passes NOT IN
		{name: "exists", query: "SELECT n FROM nums WHERE EXISTS (SELECT 1 FROM pairs WHERE a = 5) AND n = 1",
			want: []string{"1"}},
		{name: "not-exists-empty", query: "SELECT count(*) FROM nums WHERE NOT EXISTS (SELECT 1 FROM empty_t)",
			want: []string{"5"}},
		{name: "any", query: "SELECT n FROM nums WHERE n > ANY (SELECT a FROM pairs WHERE a < 3)",
			want: []string{"2", "3", "4"}},
		{name: "all", query: "SELECT n FROM nums WHERE n <= ALL (SELECT a FROM pairs)",
			want: []string{"1"}},
		{name: "all-empty", query: "SELECT count(*) FROM nums WHERE n > ALL (SELECT x FROM empty_t)",
			want: []string{"5"}},
		{name: "scalar-in-select", query: "SELECT n, (SELECT max(a) FROM pairs) FROM nums WHERE n = 1",
			want: []string{"1|5"}},
		{name: "in-having", query: "SELECT a FROM pairs GROUP BY a HAVING sum(b) > (SELECT min(b) FROM pairs)",
			want: []string{"2", "5"}},
	})
}

func TestOrderLimit(t *testing.T) {
	db := logicDB(t)
	runCases(t, db, []queryCase{
		{name: "order-asc", query: "SELECT n FROM nums ORDER BY n",
			want: []string{"1", "2", "3", "4", "NULL"}, sorted: true},
		{name: "order-desc", query: "SELECT n FROM nums ORDER BY n DESC",
			want: []string{"NULL", "4", "3", "2", "1"}, sorted: true},
		{name: "order-alias", query: "SELECT n * -1 AS neg FROM nums WHERE n IS NOT NULL ORDER BY neg",
			want: []string{"-4", "-3", "-2", "-1"}, sorted: true},
		{name: "order-ordinal", query: "SELECT label, n FROM nums WHERE n <= 2 ORDER BY 2 DESC",
			want: []string{"two|2", "one|1"}, sorted: true},
		{name: "order-expr", query: "SELECT n FROM nums WHERE n IS NOT NULL ORDER BY n % 2, n",
			want: []string{"2", "4", "1", "3"}, sorted: true},
		{name: "limit", query: "SELECT n FROM nums WHERE n IS NOT NULL ORDER BY n LIMIT 2",
			want: []string{"1", "2"}, sorted: true},
		{name: "limit-offset", query: "SELECT n FROM nums WHERE n IS NOT NULL ORDER BY n LIMIT 2 OFFSET 1",
			want: []string{"2", "3"}, sorted: true},
		{name: "order-agg", query: "SELECT a, sum(b) AS s FROM pairs GROUP BY a ORDER BY s DESC",
			want: []string{"5|50", "2|41", "1|10"}, sorted: true},
		{name: "order-setop", query: "SELECT a FROM pairs UNION SELECT n FROM nums WHERE n = 3 ORDER BY a DESC",
			want: []string{"5", "3", "2", "1"}, sorted: true},
	})
}

func TestSubqueriesInFrom(t *testing.T) {
	db := logicDB(t)
	runCases(t, db, []queryCase{
		{name: "basic", query: "SELECT s.n FROM (SELECT n FROM nums WHERE n < 3) AS s",
			want: []string{"1", "2"}},
		{name: "agg-inside", query: "SELECT total FROM (SELECT a, sum(b) AS total FROM pairs GROUP BY a) AS t WHERE total > 20",
			want: []string{"41", "50"}},
		{name: "nested", query: "SELECT x FROM (SELECT n AS x FROM (SELECT n FROM nums) AS inner1) AS outer1 WHERE x = 1",
			want: []string{"1"}},
		{name: "join-subqueries", query: "SELECT s1.n, s2.total FROM (SELECT n FROM nums) AS s1 JOIN (SELECT a, sum(b) AS total FROM pairs GROUP BY a) AS s2 ON s1.n = s2.a",
			want: []string{"1|10", "2|41"}},
	})
}

func TestViewsAndDML(t *testing.T) {
	db := logicDB(t)
	db.MustExec("CREATE VIEW big_pairs AS SELECT a, b FROM pairs WHERE b >= 20")
	runCases(t, db, []queryCase{
		{name: "view", query: "SELECT a FROM big_pairs",
			want: []string{"2", "2", "5"}},
		{name: "view-join", query: "SELECT v.a, n FROM big_pairs AS v JOIN nums ON v.a = n",
			want: []string{"2|2", "2|2"}},
	})

	// INSERT ... SELECT
	db.MustExec("CREATE TABLE copied (n int, label text)")
	if n, err := db.Exec("INSERT INTO copied SELECT n, label FROM nums WHERE n IS NOT NULL"); err != nil || n != 4 {
		t.Fatalf("insert-select = %d, %v", n, err)
	}
	// DELETE
	if n, err := db.Exec("DELETE FROM copied WHERE n > 2"); err != nil || n != 2 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	res := db.MustQuery("SELECT count(*) FROM copied")
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("after delete count = %s", res.Rows[0][0])
	}
	// DELETE all
	if n, err := db.Exec("DELETE FROM copied"); err != nil || n != 2 {
		t.Fatalf("delete-all = %d, %v", n, err)
	}
	// SELECT INTO
	db.MustExec("SELECT a, sum(b) AS total INTO summary FROM pairs GROUP BY a")
	res = db.MustQuery("SELECT count(*) FROM summary")
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("SELECT INTO row count = %s", res.Rows[0][0])
	}
	// DROP
	db.MustExec("DROP TABLE summary; DROP VIEW big_pairs")
	if _, err := db.Query("SELECT * FROM summary"); err == nil {
		t.Error("dropped table still queryable")
	}
}

func TestAnalysisErrors(t *testing.T) {
	db := logicDB(t)
	cases := []struct {
		name, query, wantSubstr string
	}{
		{"unknown-table", "SELECT * FROM nope", "does not exist"},
		{"unknown-column", "SELECT zzz FROM nums", "does not exist"},
		{"ambiguous", "SELECT a FROM pairs AS p1, pairs AS p2", "ambiguous"},
		{"dup-alias", "SELECT 1 FROM pairs, pairs", "more than once"},
		{"agg-in-where", "SELECT n FROM nums WHERE sum(n) > 1", "not allowed in WHERE"},
		{"ungrouped", "SELECT n, label, count(*) FROM nums GROUP BY n", "GROUP BY"},
		{"nested-agg", "SELECT sum(count(*)) FROM nums", "nested"},
		{"correlated", "SELECT n FROM nums WHERE n IN (SELECT a FROM pairs WHERE b = n)", "correlated"},
		{"correlated-scalar", "SELECT n FROM nums WHERE n = (SELECT max(a) FROM pairs WHERE a = n)", "correlated"},
		{"type-mismatch", "SELECT n + label FROM nums", "not defined"},
		{"compare-mismatch", "SELECT * FROM nums WHERE n = label", "cannot compare"},
		{"union-width", "SELECT n FROM nums UNION SELECT a, b FROM pairs", "same number of columns"},
		{"union-types", "SELECT n FROM nums UNION SELECT label FROM nums", "incompatible"},
		{"scalar-multi-col", "SELECT * FROM nums WHERE n = (SELECT a, b FROM pairs)", "one column"},
		{"bad-order-ordinal", "SELECT n FROM nums ORDER BY 9", "out of range"},
		{"unknown-func", "SELECT frobnicate(n) FROM nums", "unknown function"},
		{"where-not-bool", "SELECT n FROM nums WHERE n + 1", "must be boolean"},
		{"empty-select", "SELECT FROM nums", "expected expression"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			_, err := db.Query(c.query)
			if err == nil {
				t.Fatalf("query %q should fail", c.query)
			}
			if !strings.Contains(err.Error(), c.wantSubstr) {
				t.Errorf("error %q does not contain %q", err.Error(), c.wantSubstr)
			}
		})
	}
}

func TestRuntimeErrors(t *testing.T) {
	db := logicDB(t)
	if _, err := db.Query("SELECT n / 0 FROM nums WHERE n = 1"); err == nil {
		t.Error("division by zero should error")
	}
	if _, err := db.Query("SELECT n FROM nums WHERE n = (SELECT a FROM pairs)"); err == nil {
		t.Error("scalar subquery with >1 row should error")
	}
}

func TestDates(t *testing.T) {
	db := perm.NewDatabase()
	db.MustExec(`
		CREATE TABLE events (id int, d date);
		INSERT INTO events VALUES (1, '1995-01-15'), (2, '1995-06-17'), (3, '1996-03-01');
	`)
	runCases(t, db, []queryCase{
		{name: "compare", query: "SELECT id FROM events WHERE d < date '1995-12-31'",
			want: []string{"1", "2"}},
		{name: "interval-add", query: "SELECT id FROM events WHERE d >= date '1995-01-01' + interval '1' year",
			want: []string{"3"}},
		{name: "extract", query: "SELECT extract(year FROM d), extract(month FROM d), extract(day FROM d) FROM events WHERE id = 2",
			want: []string{"1995|6|17"}},
		{name: "group-by-year", query: "SELECT extract(year FROM d), count(*) FROM events GROUP BY extract(year FROM d)",
			want: []string{"1995|2", "1996|1"}},
		{name: "date-diff", query: "SELECT d - date '1995-01-15' FROM events WHERE id = 2",
			want: []string{"153"}},
	})
}

func TestExplain(t *testing.T) {
	db := logicDB(t)
	out, err := db.ExplainSQL("SELECT n, sum(b) FROM nums JOIN pairs ON n = a GROUP BY n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "HashJoin") {
		t.Errorf("equi-join should plan as HashJoin:\n%s", out)
	}
	if !strings.Contains(out, "HashAggregate") {
		t.Errorf("aggregation should plan as HashAggregate:\n%s", out)
	}
	res, err := db.Query("EXPLAIN SELECT n FROM nums")
	if err != nil || len(res.Rows) == 0 {
		t.Errorf("EXPLAIN statement failed: %v", err)
	}
	res, err = db.Query("EXPLAIN REWRITE SELECT PROVENANCE n FROM nums")
	if err != nil {
		t.Fatal(err)
	}
	joined := ""
	for _, row := range res.Rows {
		joined += row[0].String() + "\n"
	}
	if !strings.Contains(joined, "prov_nums_n") {
		t.Errorf("EXPLAIN REWRITE missing provenance attribute:\n%s", joined)
	}
}
