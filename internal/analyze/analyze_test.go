package analyze

import (
	"errors"
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/sql"
	"perm/internal/types"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	mustCreate := func(name string, cols ...catalog.Column) {
		if _, err := cat.CreateTable(name, cols, false); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate("t",
		catalog.Column{Name: "a", Type: types.KindInt},
		catalog.Column{Name: "b", Type: types.KindString},
		catalog.Column{Name: "d", Type: types.KindDate})
	mustCreate("s",
		catalog.Column{Name: "a", Type: types.KindInt},
		catalog.Column{Name: "c", Type: types.KindFloat})
	return cat
}

func analyzeQuery(t *testing.T, cat *catalog.Catalog, src string) (*algebra.Query, error) {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return New(cat).AnalyzeSelect(stmt.(*sql.SelectStmt))
}

func mustAnalyze(t *testing.T, cat *catalog.Catalog, src string) *algebra.Query {
	t.Helper()
	q, err := analyzeQuery(t, cat, src)
	if err != nil {
		t.Fatalf("analyze(%q): %v", src, err)
	}
	return q
}

func TestResolveAndTypes(t *testing.T) {
	cat := testCatalog(t)
	q := mustAnalyze(t, cat, "SELECT a, b, a + 1, a * 2.0 FROM t")
	if len(q.TargetList) != 4 {
		t.Fatalf("targets = %d", len(q.TargetList))
	}
	kinds := []types.Kind{types.KindInt, types.KindString, types.KindInt, types.KindFloat}
	for i, k := range kinds {
		if got := algebra.TypeOf(q.TargetList[i].Expr); got != k {
			t.Errorf("target %d type = %s, want %s", i, got, k)
		}
	}
	v := q.TargetList[0].Expr.(*algebra.Var)
	if v.RT != 0 || v.Col != 0 {
		t.Errorf("var = %+v", v)
	}
}

func TestQualifiedResolution(t *testing.T) {
	cat := testCatalog(t)
	q := mustAnalyze(t, cat, "SELECT t.a, s.a FROM t, s WHERE t.a = s.a")
	v0 := q.TargetList[0].Expr.(*algebra.Var)
	v1 := q.TargetList[1].Expr.(*algebra.Var)
	if v0.RT == v1.RT {
		t.Errorf("qualified refs resolve to same RTE: %+v %+v", v0, v1)
	}
	// Unqualified ambiguous ref must fail.
	if _, err := analyzeQuery(t, cat, "SELECT a FROM t, s"); err == nil {
		t.Error("ambiguous reference should fail")
	}
}

func TestAliasScoping(t *testing.T) {
	cat := testCatalog(t)
	q := mustAnalyze(t, cat, "SELECT x.a FROM t AS x")
	if q.RangeTable[0].Alias != "x" {
		t.Errorf("alias = %q", q.RangeTable[0].Alias)
	}
	// Original name must not be visible once aliased.
	if _, err := analyzeQuery(t, cat, "SELECT t.a FROM t AS x"); err == nil {
		t.Error("original name visible despite alias")
	}
}

func TestStarExpansion(t *testing.T) {
	cat := testCatalog(t)
	q := mustAnalyze(t, cat, "SELECT * FROM t, s")
	if len(q.TargetList) != 5 {
		t.Fatalf("star expanded to %d targets, want 5", len(q.TargetList))
	}
	q = mustAnalyze(t, cat, "SELECT s.* FROM t, s")
	if len(q.TargetList) != 2 {
		t.Fatalf("qualified star = %d targets, want 2", len(q.TargetList))
	}
}

func TestAggValidation(t *testing.T) {
	cat := testCatalog(t)
	q := mustAnalyze(t, cat, "SELECT b, sum(a) FROM t GROUP BY b")
	if !q.HasAggs || len(q.GroupBy) != 1 {
		t.Errorf("HasAggs=%v groupby=%d", q.HasAggs, len(q.GroupBy))
	}
	// Expression matching the GROUP BY expr is fine.
	mustAnalyze(t, cat, "SELECT a + 1, count(*) FROM t GROUP BY a + 1")
	// Non-grouped reference fails.
	if _, err := analyzeQuery(t, cat, "SELECT b, sum(a) FROM t GROUP BY a"); err == nil {
		t.Error("ungrouped column should fail")
	}
	// HAVING without GROUP BY implies a single group.
	q = mustAnalyze(t, cat, "SELECT sum(a) FROM t HAVING count(*) > 1")
	if !q.HasAggs {
		t.Error("HAVING query must aggregate")
	}
}

func TestViewUnfolding(t *testing.T) {
	cat := testCatalog(t)
	stmt, err := sql.Parse("SELECT a AS va, b AS vb FROM t WHERE a > 1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateView("v", stmt.(*sql.SelectStmt), false); err != nil {
		t.Fatal(err)
	}
	q := mustAnalyze(t, cat, "SELECT va FROM v")
	rte := q.RangeTable[0]
	if rte.Kind != algebra.RTESubquery || rte.Subquery == nil {
		t.Fatalf("view not unfolded: %+v", rte)
	}
	if rte.Cols[0].Name != "va" || rte.Cols[1].Name != "vb" {
		t.Errorf("view schema = %v", rte.Cols)
	}
}

func TestCorrelationDetection(t *testing.T) {
	cat := testCatalog(t)
	_, err := analyzeQuery(t, cat,
		"SELECT a FROM t WHERE a IN (SELECT s.a FROM s WHERE c > t.a)")
	if err == nil {
		t.Fatal("correlated sublink should fail")
	}
	if !errors.Is(err, ErrCorrelated) {
		t.Errorf("error should wrap ErrCorrelated: %v", err)
	}
	// Unqualified outer reference.
	_, err = analyzeQuery(t, cat,
		"SELECT b FROM t WHERE EXISTS (SELECT 1 FROM s WHERE c > b)")
	if !errors.Is(err, ErrCorrelated) {
		t.Errorf("unqualified correlation not detected: %v", err)
	}
	// Same-named column in inner scope is NOT correlation.
	mustAnalyze(t, cat, "SELECT t.a FROM t WHERE t.a IN (SELECT a FROM s)")
}

func TestSetOpAnalysis(t *testing.T) {
	cat := testCatalog(t)
	q := mustAnalyze(t, cat, "SELECT a FROM t UNION ALL SELECT a FROM s INTERSECT SELECT a FROM s")
	if !q.IsSetOp() {
		t.Fatal("not a set-op query")
	}
	if q.SetOp.Op != algebra.SetUnion || !q.SetOp.All {
		t.Errorf("top op = %v all=%v", q.SetOp.Op, q.SetOp.All)
	}
	if _, ok := q.SetOp.Right.(*algebra.SetOpNode); !ok {
		t.Error("INTERSECT must nest under UNION's right branch")
	}
	if len(q.RangeTable) != 3 {
		t.Errorf("range table = %d entries", len(q.RangeTable))
	}
	// Int/float union is compatible.
	mustAnalyze(t, cat, "SELECT a FROM t UNION SELECT c FROM s")
	// String/int is not.
	if _, err := analyzeQuery(t, cat, "SELECT b FROM t UNION SELECT a FROM s"); err == nil {
		t.Error("incompatible union should fail")
	}
}

func TestOrderByResolution(t *testing.T) {
	cat := testCatalog(t)
	q := mustAnalyze(t, cat, "SELECT a AS x FROM t ORDER BY x DESC")
	if len(q.OrderBy) != 1 || !q.OrderBy[0].Desc {
		t.Fatalf("orderby = %+v", q.OrderBy)
	}
	v, ok := q.OrderBy[0].Expr.(*algebra.Var)
	if !ok || v.RT != OutputRT || v.Col != 0 {
		t.Errorf("alias order item = %#v", q.OrderBy[0].Expr)
	}
	q = mustAnalyze(t, cat, "SELECT a, b FROM t ORDER BY 2")
	v = q.OrderBy[0].Expr.(*algebra.Var)
	if v.Col != 1 {
		t.Errorf("ordinal order item col = %d", v.Col)
	}
	// Expression matching a target becomes an output reference.
	q = mustAnalyze(t, cat, "SELECT a + 1 FROM t ORDER BY a + 1")
	v = q.OrderBy[0].Expr.(*algebra.Var)
	if v.RT != OutputRT {
		t.Errorf("matching expression should sort on output: %#v", q.OrderBy[0].Expr)
	}
}

func TestSugarLowering(t *testing.T) {
	cat := testCatalog(t)
	q := mustAnalyze(t, cat, "SELECT a FROM t WHERE a BETWEEN 1 AND 3")
	if _, ok := q.Where.(*algebra.BinOp); !ok {
		t.Errorf("BETWEEN not lowered to AND: %#v", q.Where)
	}
	q = mustAnalyze(t, cat, "SELECT a FROM t WHERE a IN (1, 2)")
	b, ok := q.Where.(*algebra.BinOp)
	if !ok || b.Op != "OR" {
		t.Errorf("IN-list not lowered to OR: %#v", q.Where)
	}
	// String literal coerces to date in comparisons with date columns.
	q = mustAnalyze(t, cat, "SELECT a FROM t WHERE d < '1998-01-01'")
	cmp := q.Where.(*algebra.BinOp)
	if _, ok := cmp.Right.(*algebra.Cast); !ok {
		t.Errorf("date coercion missing: %#v", cmp.Right)
	}
}

func TestProvenanceFlagPropagation(t *testing.T) {
	cat := testCatalog(t)
	q := mustAnalyze(t, cat, "SELECT PROVENANCE a FROM t")
	if !q.ProvenanceRequested {
		t.Error("ProvenanceRequested not set")
	}
	// Nested PROVENANCE subqueries are rewritten during analysis, so the
	// outer query sees their provenance schema.
	q = mustAnalyze(t, cat, "SELECT prov_t_a FROM (SELECT PROVENANCE b FROM t) AS p")
	if strings.Join(q.RangeTable[0].Cols.Names(), ",") != "b,prov_t_a,prov_t_b,prov_t_d" {
		t.Errorf("nested provenance schema = %v", q.RangeTable[0].Cols.Names())
	}
	if len(q.RangeTable[0].ProvCols) != 3 {
		t.Errorf("ProvCols = %v", q.RangeTable[0].ProvCols)
	}
}

func TestExternalProvenanceAnnotation(t *testing.T) {
	cat := testCatalog(t)
	q := mustAnalyze(t, cat, "SELECT a FROM t PROVENANCE (b)")
	rte := q.RangeTable[0]
	if !rte.HasExternalProv || len(rte.ProvCols) != 1 || rte.ProvCols[0].Col != 1 {
		t.Errorf("annotation = %+v", rte)
	}
	if _, err := analyzeQuery(t, cat, "SELECT a FROM t PROVENANCE (zzz)"); err == nil {
		t.Error("unknown annotated attribute should fail")
	}
}

func TestJoinAnalysis(t *testing.T) {
	cat := testCatalog(t)
	q := mustAnalyze(t, cat, "SELECT t.a FROM t LEFT JOIN s ON t.a = s.a")
	j, ok := q.From[0].(*algebra.FromJoin)
	if !ok || j.Kind != algebra.JoinLeft || j.Cond == nil {
		t.Fatalf("join = %#v", q.From[0])
	}
	q = mustAnalyze(t, cat, "SELECT t.a FROM t JOIN s USING (a)")
	j = q.From[0].(*algebra.FromJoin)
	b, ok := j.Cond.(*algebra.BinOp)
	if !ok || b.Op != "=" {
		t.Errorf("USING lowering = %#v", j.Cond)
	}
	if _, err := analyzeQuery(t, cat, "SELECT t.a FROM t JOIN s ON b"); err == nil {
		t.Error("non-boolean ON should fail")
	}
}

func TestLimitValidation(t *testing.T) {
	cat := testCatalog(t)
	if _, err := analyzeQuery(t, cat, "SELECT a FROM t LIMIT -1"); err == nil {
		t.Error("negative LIMIT should fail at parse or analysis")
	}
	q := mustAnalyze(t, cat, "SELECT a FROM t LIMIT 5 OFFSET 2")
	if q.Limit == nil || q.Offset == nil {
		t.Error("limit/offset missing")
	}
}
