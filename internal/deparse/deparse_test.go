package deparse_test

import (
	"strings"
	"testing"

	"perm/internal/analyze"
	"perm/internal/catalog"
	"perm/internal/deparse"
	"perm/internal/optimize"
	"perm/internal/provrewrite"
	"perm/internal/sql"
	"perm/internal/types"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	if _, err := cat.CreateTable("t", []catalog.Column{
		{Name: "a", Type: types.KindInt},
		{Name: "b", Type: types.KindString},
		{Name: "d", Type: types.KindDate},
	}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("s", []catalog.Column{
		{Name: "a", Type: types.KindInt},
		{Name: "c", Type: types.KindInt},
	}, false); err != nil {
		t.Fatal(err)
	}
	return cat
}

func deparsed(t *testing.T, cat *catalog.Catalog, src string, rewrite bool) string {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := analyze.New(cat).AnalyzeSelect(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if rewrite {
		q, err = provrewrite.Rewrite(q)
		if err != nil {
			t.Fatal(err)
		}
	}
	return deparse.Query(q)
}

func TestDeparseContains(t *testing.T) {
	cat := testCatalog(t)
	cases := []struct {
		src  string
		want []string
	}{
		{"SELECT a, b AS bee FROM t WHERE a > 1",
			[]string{"SELECT t.a, t.b AS bee", "FROM t", "WHERE (t.a > 1)"}},
		{"SELECT t.a FROM t LEFT JOIN s ON t.a = s.a",
			[]string{"LEFT OUTER JOIN", "ON (t.a = s.a)"}},
		{"SELECT b, sum(a) FROM t GROUP BY b HAVING sum(a) > 2 ORDER BY b DESC",
			[]string{"GROUP BY t.b", "HAVING (sum(t.a) > 2)", "ORDER BY", "DESC", "sum(t.a)"}},
		{"SELECT a FROM t UNION ALL SELECT a FROM s",
			[]string{"UNION ALL"}},
		{"SELECT a FROM t WHERE a IN (SELECT a FROM s)",
			[]string{" IN "}},
		{"SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t",
			[]string{"CASE WHEN", "THEN", "ELSE", "END"}},
		{"SELECT extract(year FROM d) FROM t",
			[]string{"EXTRACT(YEAR FROM t.d)"}},
		{"SELECT count(DISTINCT a) FROM t",
			[]string{"count(DISTINCT t.a)"}},
		{"SELECT a FROM t WHERE d = date '1995-06-17'",
			[]string{"date '1995-06-17'"}},
		{"SELECT a FROM t LIMIT 3 OFFSET 1",
			[]string{"LIMIT 3", "OFFSET 1"}},
	}
	for _, c := range cases {
		out := deparsed(t, cat, c.src, false)
		for _, w := range c.want {
			if !strings.Contains(out, w) {
				t.Errorf("deparse of %q missing %q:\n%s", c.src, w, out)
			}
		}
	}
}

func TestDeparseRewritten(t *testing.T) {
	cat := testCatalog(t)
	out := deparsed(t, cat, "SELECT PROVENANCE b, sum(a) FROM t GROUP BY b", true)
	for _, w := range []string{"prov_t_a", "prov_t_b", "IS NOT DISTINCT FROM", "INNER JOIN"} {
		if !strings.Contains(out, w) {
			t.Errorf("rewritten deparse missing %q:\n%s", w, out)
		}
	}
}

// TestDeparseRoundTrip re-parses the deparsed text and checks it analyzes
// to an equivalent schema (a pragmatic round-trip property).
func TestDeparseRoundTrip(t *testing.T) {
	cat := testCatalog(t)
	queries := []string{
		"SELECT a, b FROM t WHERE a > 1 AND b LIKE 'x%'",
		"SELECT t.a, s.c FROM t, s WHERE t.a = s.a",
		"SELECT b, count(*) AS cnt FROM t GROUP BY b HAVING count(*) > 1",
		"SELECT a FROM t UNION SELECT a FROM s",
		"SELECT a FROM t WHERE a IN (SELECT a FROM s) ORDER BY a LIMIT 2",
		"SELECT PROVENANCE a FROM t",
		"SELECT PROVENANCE b, sum(a) FROM t GROUP BY b",
		"SELECT PROVENANCE a FROM t INTERSECT SELECT a FROM s",
	}
	for _, src := range queries {
		out := deparsed(t, cat, src, true)
		stmt, err := sql.Parse(out)
		if err != nil {
			t.Errorf("deparsed text does not re-parse: %v\nsource: %s\ndeparsed:\n%s", err, src, out)
			continue
		}
		q2, err := analyze.New(cat).AnalyzeSelect(stmt.(*sql.SelectStmt))
		if err != nil {
			t.Errorf("deparsed text does not re-analyze: %v\nsource: %s\ndeparsed:\n%s", err, src, out)
			continue
		}
		// Schema width must be preserved.
		orig, err := sql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		q1, err := analyze.New(cat).AnalyzeSelect(orig.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		q1, err = provrewrite.Rewrite(q1)
		if err != nil {
			t.Fatal(err)
		}
		if len(q1.Schema()) != len(q2.Schema()) {
			t.Errorf("round trip changed width %d → %d for %q",
				len(q1.Schema()), len(q2.Schema()), src)
		}
	}
}

// TestDeparseOptimizedRoundTrip: deparsing an optimized tree must produce
// SQL that re-parses and re-analyzes cleanly (unique aliases, resolvable
// column references) and deparses to the same text again — the contract
// behind RewriteSQL showing the flattened q+. A rule-R5 pair the optimizer
// keeps for one evaluation of T+ prints as two derived tables, which the
// re-analysis no longer tags: the optimizer merges the copy of T+ like any
// derived table, and from that text on the round trip is stable.
func TestDeparseOptimizedRoundTrip(t *testing.T) {
	cat := testCatalog(t)
	queries := []string{
		"SELECT PROVENANCE x.a FROM (SELECT a, b FROM t WHERE a > 0) AS x, (SELECT a, c FROM s) AS y WHERE x.a = y.a",
		"SELECT PROVENANCE b, count(*) AS n FROM t GROUP BY b",
		"SELECT PROVENANCE a FROM t UNION SELECT a FROM s",
		"SELECT u.a FROM (SELECT a FROM t) AS u LEFT JOIN (SELECT a, c FROM s WHERE c > 1) AS v ON u.a = v.a",
	}
	reoptimize := func(text string) string {
		stmt, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("optimized deparse does not re-parse: %v\n%s", err, text)
		}
		q, err := analyze.New(cat).AnalyzeSelect(stmt.(*sql.SelectStmt))
		if err != nil {
			t.Fatalf("optimized deparse does not re-analyze: %v\n%s", err, text)
		}
		return deparse.Query(optimize.Query(q))
	}
	for _, src := range queries {
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		q, err := analyze.New(cat).AnalyzeSelect(stmt.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		q, err = provrewrite.Rewrite(q)
		if err != nil {
			t.Fatal(err)
		}
		opt := optimize.Query(q)
		out := deparse.Query(opt)
		out2 := reoptimize(out)
		if opt.JoinBack.Shared() {
			out, out2 = out2, reoptimize(out2)
		}
		if out != out2 {
			t.Errorf("deparse not stable for %q:\nfirst:\n%s\nsecond:\n%s", src, out, out2)
		}
	}
}
