package provrewrite_test

import (
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/analyze"
	"perm/internal/catalog"
	"perm/internal/optimize"
	. "perm/internal/provrewrite"
	"perm/internal/sql"
	"perm/internal/types"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	if _, err := cat.CreateTable("r", []catalog.Column{
		{Name: "a", Type: types.KindInt},
		{Name: "b", Type: types.KindString},
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

func rewriteSQL(t *testing.T, cat *catalog.Catalog, src string) *algebra.Query {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := analyze.New(cat).AnalyzeSelect(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Rewrite(q)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func provNames(q *algebra.Query) []string {
	var names []string
	for _, pc := range q.ProvCols {
		names = append(names, pc.Name)
	}
	return names
}

func TestSPJRewriteShape(t *testing.T) {
	cat := testCatalog(t)
	q := rewriteSQL(t, cat, "SELECT PROVENANCE b FROM r WHERE a > 1")
	// The SPJ node is rewritten in place: one RTE, extended target list.
	if q.IsSetOp() || q.HasAggs {
		t.Fatal("SPJ rewrite changed the node shape")
	}
	if len(q.RangeTable) != 1 {
		t.Fatalf("range table = %d entries", len(q.RangeTable))
	}
	got := strings.Join(provNames(q), ",")
	if got != "prov_r_a,prov_r_b" {
		t.Errorf("P-list = %s", got)
	}
	// Original target preserved at position 0.
	if q.TargetList[0].Name != "b" {
		t.Errorf("original target renamed: %v", q.TargetList[0].Name)
	}
	if q.ProvenanceRequested {
		t.Error("flag must be cleared after rewriting")
	}
}

func TestASPJRewriteShape(t *testing.T) {
	cat := testCatalog(t)
	q := rewriteSQL(t, cat, "SELECT PROVENANCE b, sum(a) FROM r GROUP BY b")
	// Rule R5 produces a new top node joining Qagg with the rewritten
	// duplicate.
	if q.HasAggs {
		t.Fatal("top node must not aggregate")
	}
	if len(q.RangeTable) != 2 {
		t.Fatalf("top range table = %d entries, want 2", len(q.RangeTable))
	}
	agg := q.RangeTable[0].Subquery
	dup := q.RangeTable[1].Subquery
	if agg == nil || !agg.HasAggs {
		t.Error("RTE 0 must hold the original aggregation")
	}
	if dup == nil || dup.HasAggs {
		t.Error("RTE 1 must hold the aggregation-stripped duplicate")
	}
	join, ok := q.From[0].(*algebra.FromJoin)
	if !ok || join.Kind != algebra.JoinInner {
		t.Fatalf("top join = %#v", q.From[0])
	}
	df, ok := join.Cond.(*algebra.DistinctFrom)
	if !ok || !df.Not {
		t.Errorf("group join condition must be null-safe equality, got %#v", join.Cond)
	}
	if got := strings.Join(provNames(q), ","); got != "prov_r_a,prov_r_b" {
		t.Errorf("P-list = %s", got)
	}
}

// TestASPJRewriteWithoutGroupBy: the one row of an ungrouped aggregation
// exists over an empty input too, so R5's join must be the outer join.
func TestASPJRewriteWithoutGroupBy(t *testing.T) {
	q := rewriteSQL(t, testCatalog(t), "SELECT PROVENANCE count(*) FROM r")
	join, ok := q.From[0].(*algebra.FromJoin)
	if !ok || join.Kind != algebra.JoinLeft {
		t.Fatalf("top join = %#v, want a left outer join", q.From[0])
	}
}

func TestSetOpRewriteShape(t *testing.T) {
	cat := testCatalog(t)
	q := rewriteSQL(t, cat, "SELECT PROVENANCE a FROM r UNION SELECT a FROM s")
	if q.IsSetOp() {
		t.Fatal("rewritten set operation must be wrapped in a join node")
	}
	if len(q.RangeTable) != 3 {
		t.Fatalf("range table = %d, want 3 (original + two rewritten branches)", len(q.RangeTable))
	}
	if q.RangeTable[0].Subquery == nil || !q.RangeTable[0].Subquery.IsSetOp() {
		t.Error("RTE 0 must hold the original set operation, unrewritten")
	}
	// UNION uses left outer joins on both branches.
	outer, ok := q.From[0].(*algebra.FromJoin)
	if !ok || outer.Kind != algebra.JoinLeft {
		t.Fatalf("outer join = %#v", q.From[0])
	}
	inner, ok := outer.Left.(*algebra.FromJoin)
	if !ok || inner.Kind != algebra.JoinLeft {
		t.Fatalf("inner join = %#v", outer.Left)
	}
	if got := strings.Join(provNames(q), ","); got != "prov_r_a,prov_r_b,prov_s_a,prov_s_c" {
		t.Errorf("P-list = %s", got)
	}
}

func TestIntersectUsesInnerJoins(t *testing.T) {
	cat := testCatalog(t)
	q := rewriteSQL(t, cat, "SELECT PROVENANCE a FROM r INTERSECT SELECT a FROM s")
	outer := q.From[0].(*algebra.FromJoin)
	inner := outer.Left.(*algebra.FromJoin)
	if outer.Kind != algebra.JoinInner || inner.Kind != algebra.JoinInner {
		t.Errorf("intersect joins = %v / %v, want inner/inner", inner.Kind, outer.Kind)
	}
}

func TestExceptJoinConditions(t *testing.T) {
	cat := testCatalog(t)
	// Set difference: right side joined on TRUE.
	q := rewriteSQL(t, cat, "SELECT PROVENANCE a FROM r EXCEPT SELECT a FROM s")
	outer := q.From[0].(*algebra.FromJoin)
	if c, ok := outer.Cond.(*algebra.Const); !ok || !c.Val.B {
		t.Errorf("set-difference right join condition = %#v, want TRUE", outer.Cond)
	}
	// Bag difference: right side joined on NOT(row equality).
	q = rewriteSQL(t, cat, "SELECT PROVENANCE a FROM r EXCEPT ALL SELECT a FROM s")
	outer = q.From[0].(*algebra.FromJoin)
	if u, ok := outer.Cond.(*algebra.UnOp); !ok || u.Op != "NOT" {
		t.Errorf("bag-difference right join condition = %#v, want NOT(...)", outer.Cond)
	}
}

func TestSublinkAttachment(t *testing.T) {
	cat := testCatalog(t)
	q := rewriteSQL(t, cat, "SELECT PROVENANCE b FROM r WHERE a IN (SELECT a FROM s)")
	if len(q.RangeTable) != 2 {
		t.Fatalf("range table = %d entries, want 2 (r + sublink)", len(q.RangeTable))
	}
	join, ok := q.From[0].(*algebra.FromJoin)
	if !ok || join.Kind != algebra.JoinLeft {
		t.Fatalf("sublink join = %#v", q.From[0])
	}
	// Positive conjunctive IN: join condition is test = subquery column.
	if b, ok := join.Cond.(*algebra.BinOp); !ok || b.Op != "=" {
		t.Errorf("join condition = %#v, want equality", join.Cond)
	}
	// The WHERE still contains the sublink for normal filtering.
	if !algebra.ContainsSubLink(q.Where) {
		t.Error("original WHERE sublink must be preserved")
	}
	if got := strings.Join(provNames(q), ","); got != "prov_r_a,prov_r_b,prov_s_a,prov_s_c" {
		t.Errorf("P-list = %s", got)
	}
}

func TestSublinkContexts(t *testing.T) {
	cat := testCatalog(t)
	// Disjunctive: TRUE condition.
	q := rewriteSQL(t, cat, "SELECT PROVENANCE b FROM r WHERE a > 5 OR a IN (SELECT a FROM s)")
	join := q.From[0].(*algebra.FromJoin)
	if c, ok := join.Cond.(*algebra.Const); !ok || !c.Val.B {
		t.Errorf("disjunctive sublink condition = %#v, want TRUE", join.Cond)
	}
	// Negated: NOT(test = col).
	q = rewriteSQL(t, cat, "SELECT PROVENANCE b FROM r WHERE a NOT IN (SELECT a FROM s)")
	join = q.From[0].(*algebra.FromJoin)
	if u, ok := join.Cond.(*algebra.UnOp); !ok || u.Op != "NOT" {
		t.Errorf("negated sublink condition = %#v, want NOT(...)", join.Cond)
	}
	// EXISTS: whole input contributes.
	q = rewriteSQL(t, cat, "SELECT PROVENANCE b FROM r WHERE EXISTS (SELECT 1 FROM s)")
	join = q.From[0].(*algebra.FromJoin)
	if c, ok := join.Cond.(*algebra.Const); !ok || !c.Val.B {
		t.Errorf("EXISTS sublink condition = %#v, want TRUE", join.Cond)
	}
}

func TestRewriteIdempotentOnUnmarked(t *testing.T) {
	cat := testCatalog(t)
	stmt, err := sql.Parse("SELECT a FROM r")
	if err != nil {
		t.Fatal(err)
	}
	q, err := analyze.New(cat).AnalyzeSelect(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Rewrite(q)
	if err != nil {
		t.Fatal(err)
	}
	if out != q || len(out.ProvCols) != 0 || len(out.TargetList) != 1 {
		t.Error("unmarked query must pass through unchanged")
	}
}

func TestExternalProvPassThrough(t *testing.T) {
	cat := testCatalog(t)
	// An RTE annotated with external provenance is not rewritten; its
	// marked columns form the P-list.
	q := rewriteSQL(t, cat, "SELECT PROVENANCE a FROM r PROVENANCE (b)")
	if got := strings.Join(provNames(q), ","); got != "b" {
		t.Errorf("P-list = %q, want b", got)
	}
}

func TestBaseRelationRTE(t *testing.T) {
	cat := testCatalog(t)
	q := rewriteSQL(t, cat,
		"SELECT PROVENANCE total FROM (SELECT sum(a) AS total FROM r) BASERELATION AS sub")
	if got := strings.Join(provNames(q), ","); got != "prov_sub_total" {
		t.Errorf("P-list = %q", got)
	}
	// The inner aggregation must NOT have been rewritten.
	if q.RangeTable[0].Subquery == nil || !q.RangeTable[0].Subquery.HasAggs {
		t.Error("BASERELATION subquery must stay unrewritten")
	}
}

// TestRewrittenShapesAreOptimizable asserts the structural contract the
// logical optimizer (package optimize) depends on: the rewriter's nested
// shells are plain SPJ blocks wherever the rules permit, so the optimizer
// can flatten them away — exactly the normalization the paper (§VI)
// delegates to the PostgreSQL optimizer.
func TestRewrittenShapesAreOptimizable(t *testing.T) {
	cat := testCatalog(t)

	// SPJ rewrite happens in place: no wrapper node, no new nesting.
	q := rewriteSQL(t, cat, "SELECT PROVENANCE r.a FROM r, s WHERE r.a = s.a")
	for _, rte := range q.RangeTable {
		if rte.Kind == algebra.RTESubquery {
			t.Errorf("SPJ rewrite introduced a subquery shell %q", rte.Alias)
		}
	}

	// ASPJ rewrite: the rewritten duplicate (perm_agg_prov) must be a
	// plain SPJ block — mergeable into the join-back top node — while the
	// original aggregation keeps its boundary.
	q = rewriteSQL(t, cat, "SELECT PROVENANCE b, count(*) FROM r GROUP BY b")
	var dup *algebra.Query
	for _, rte := range q.RangeTable {
		if rte.Alias == "perm_agg_prov" {
			dup = rte.Subquery
		}
	}
	if dup == nil {
		t.Fatal("rewritten aggregation lacks the perm_agg_prov duplicate")
	}
	if dup.HasAggs || dup.Distinct || len(dup.GroupBy) > 0 || dup.IsSetOp() ||
		dup.Limit != nil || len(dup.OrderBy) > 0 {
		t.Errorf("perm_agg_prov duplicate is not a plain SPJ block: %v", dup)
	}

	// The optimizer keeps the tagged pair intact, for one evaluation of
	// T+ to serve both sides ...
	opt := optimize.Query(algebra.CopyQuery(q))
	if jb := opt.JoinBack; jb == nil || jb.Reason != "" || opt.RangeTable[jb.Prov].Alias != "perm_agg_prov" {
		t.Errorf("optimized join-back should keep its shared pair, got %+v", jb)
	}
	// ... and where it cannot (a right join, which only the row engine
	// runs), the duplicate disappears entirely: the top node joins the
	// aggregation against the base relations directly.
	q = rewriteSQL(t, cat, "SELECT PROVENANCE r.b, count(*) FROM r RIGHT JOIN s ON r.a = s.a GROUP BY r.b")
	opt = optimize.Query(q)
	aliases := make([]string, 0, len(opt.RangeTable))
	baseRels := 0
	for _, rte := range opt.RangeTable {
		aliases = append(aliases, rte.Alias)
		if rte.Kind == algebra.RTERelation {
			baseRels++
		}
	}
	if jb := opt.JoinBack; jb == nil || jb.Reason != "row_engine" || baseRels != 2 {
		t.Errorf("optimized join-back should scan the base relations directly, got %v (%+v)", aliases, jb)
	}

	// Set-operation rewrite: every branch duplicate bottoms out in SPJ
	// leaves the optimizer can flatten; provenance columns survive.
	q = rewriteSQL(t, cat, "SELECT PROVENANCE a FROM r UNION SELECT a FROM s")
	before := provNames(q)
	opt = optimize.Query(q)
	after := provNames(opt)
	if strings.Join(before, ",") != strings.Join(after, ",") {
		t.Errorf("optimization changed the P-list: %v vs %v", before, after)
	}
}
