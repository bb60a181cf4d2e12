package optimize_test

import (
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/analyze"
	"perm/internal/catalog"
	"perm/internal/deparse"
	"perm/internal/optimize"
	"perm/internal/provrewrite"
	"perm/internal/sql"
	"perm/internal/synth"
	"perm/internal/tpch"
	"perm/internal/types"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	mk := func(name string, cols ...catalog.Column) {
		t.Helper()
		if _, err := cat.CreateTable(name, cols, false); err != nil {
			t.Fatal(err)
		}
	}
	mk("r",
		catalog.Column{Name: "a", Type: types.KindInt},
		catalog.Column{Name: "b", Type: types.KindString})
	mk("s",
		catalog.Column{Name: "a", Type: types.KindInt},
		catalog.Column{Name: "c", Type: types.KindInt})
	// What the synth generators read of TPC-H's part.
	mk("part",
		catalog.Column{Name: "p_partkey", Type: types.KindInt},
		catalog.Column{Name: "p_name", Type: types.KindString},
		catalog.Column{Name: "p_brand", Type: types.KindString},
		catalog.Column{Name: "p_retailprice", Type: types.KindFloat})
	return cat
}

// compile analyzes (and, when the query asks for it, provenance-rewrites)
// a SELECT, then optimizes it.
func compile(t *testing.T, cat *catalog.Catalog, src string) *algebra.Query {
	t.Helper()
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
	return optimize.Query(q)
}

// subqueryCount counts RTESubquery entries in the whole tree.
func subqueryCount(q *algebra.Query) int {
	n := 0
	for _, rte := range q.RangeTable {
		if rte.Kind == algebra.RTESubquery {
			n++
			n += subqueryCount(rte.Subquery)
		}
	}
	return n
}

func TestUnnestNestedSPJ(t *testing.T) {
	cat := testCatalog(t)
	q := compile(t, cat,
		`SELECT t1.a FROM (SELECT a, b FROM r WHERE a > 0) AS t1,
		        (SELECT a, c FROM s) AS t2 WHERE t1.a = t2.a`)
	if got := subqueryCount(q); got != 0 {
		t.Fatalf("optimized tree still holds %d subqueries:\n%v", got, q)
	}
	if len(q.RangeTable) != 2 {
		t.Fatalf("range table = %d entries, want 2 base relations", len(q.RangeTable))
	}
	for _, rte := range q.RangeTable {
		if rte.Kind != algebra.RTERelation {
			t.Fatalf("entry %q is not a base relation", rte.Alias)
		}
	}
	// The subquery's filter must have moved into the parent WHERE clause.
	found := false
	for _, c := range algebra.Conjuncts(q.Where) {
		if b, ok := c.(*algebra.BinOp); ok && b.Op == ">" {
			found = true
		}
	}
	if !found {
		t.Errorf("child WHERE filter not merged into parent: %v", q.Where)
	}
}

func TestUnnestDeepChain(t *testing.T) {
	cat := testCatalog(t)
	q := compile(t, cat,
		`SELECT x.a FROM (SELECT a FROM (SELECT a, b FROM (SELECT * FROM r) AS l1 WHERE a > 1) AS l2) AS x`)
	if got := subqueryCount(q); got != 0 {
		t.Fatalf("chain not fully flattened: %d subqueries remain", got)
	}
}

func TestUnnestKeepsAggregateBoundary(t *testing.T) {
	cat := testCatalog(t)
	q := compile(t, cat,
		`SELECT g.b FROM (SELECT b, count(*) AS n FROM r GROUP BY b) AS g WHERE g.n > 1`)
	// The aggregated subquery must survive; the filter on the aggregate
	// result must NOT be pushed below the aggregation.
	if len(q.RangeTable) != 1 || q.RangeTable[0].Kind != algebra.RTESubquery {
		t.Fatalf("aggregated subquery was merged away: %v", q)
	}
	sub := q.RangeTable[0].Subquery
	if !sub.HasAggs {
		t.Fatalf("subquery lost its aggregation")
	}
	if sub.Where != nil {
		t.Errorf("aggregate-result filter wrongly pushed into subquery WHERE: %v", sub.Where)
	}
}

func TestPushdownIntoAggregateOnGroupKey(t *testing.T) {
	cat := testCatalog(t)
	// The group-key predicate pushes below the aggregation; the then
	// pass-through wrapper collapses, leaving the aggregation as the root.
	q := compile(t, cat,
		`SELECT g.b FROM (SELECT b, count(*) AS n FROM r GROUP BY b) AS g WHERE g.b = 'x'`)
	if !q.HasAggs {
		t.Fatalf("expected collapsed aggregation root, got %v", q)
	}
	if q.Where == nil {
		t.Fatalf("group-key predicate was not pushed below the aggregation")
	}
	if q.RangeTable[0].Kind != algebra.RTERelation {
		t.Errorf("aggregation input should be the base relation: %v", q.RangeTable[0])
	}
}

func TestPushdownIntoSetOpBranches(t *testing.T) {
	cat := testCatalog(t)
	// The predicate distributes into every branch; the wrapper collapses,
	// leaving the set operation as the root.
	q := compile(t, cat,
		`SELECT u.a FROM (SELECT a FROM r UNION ALL SELECT a FROM s) AS u WHERE u.a > 2`)
	if !q.IsSetOp() {
		t.Fatalf("expected collapsed set-op root, got %v", q)
	}
	for _, rte := range q.RangeTable {
		if rte.Subquery.Where == nil {
			t.Errorf("branch %q did not receive the pushed predicate", rte.Alias)
		}
	}
}

func TestPruneUnusedColumns(t *testing.T) {
	cat := testCatalog(t)
	// The unused aggregate m is pruned; afterwards the wrapper is an
	// identity projection and collapses into the aggregation.
	q := compile(t, cat,
		`SELECT g.n FROM (SELECT b, count(*) AS n, min(a) AS m FROM r GROUP BY b) AS g`)
	if !q.HasAggs {
		t.Fatalf("expected collapsed aggregation root, got %v", q)
	}
	if len(q.TargetList) != 1 || q.TargetList[0].Name != "n" {
		t.Fatalf("target list = %v, want just n", q.TargetList)
	}
	if len(q.GroupBy) != 1 {
		t.Errorf("grouping must survive pruning: %v", q.GroupBy)
	}
}

func TestNoPruneUnderDistinct(t *testing.T) {
	cat := testCatalog(t)
	q := compile(t, cat,
		`SELECT d.a FROM (SELECT DISTINCT a, b FROM r) AS d`)
	// Dropping b would merge rows that differ only in b and change the
	// multiplicity of a values.
	sub := q.RangeTable[0].Subquery
	if len(sub.TargetList) != 2 {
		t.Fatalf("DISTINCT subquery was pruned: %v", sub.TargetList)
	}
}

func TestRedundantDistinctOverGroupBy(t *testing.T) {
	cat := testCatalog(t)
	q := compile(t, cat, `SELECT DISTINCT b, count(*) FROM r GROUP BY b`)
	if q.Distinct {
		t.Errorf("DISTINCT over grouped output with all keys projected should be dropped")
	}
	q = compile(t, cat, `SELECT DISTINCT count(*) FROM r GROUP BY b`)
	if !q.Distinct {
		t.Errorf("DISTINCT must survive when group keys are not projected")
	}
}

func TestIdentityWrapperCollapse(t *testing.T) {
	cat := testCatalog(t)
	q := compile(t, cat,
		`SELECT * FROM (SELECT b, count(*) AS n FROM r GROUP BY b) AS w`)
	if !q.HasAggs {
		t.Fatalf("identity wrapper over aggregation was not collapsed: %v", q)
	}
}

func TestOuterJoinNullableSideKeepsSemantics(t *testing.T) {
	cat := testCatalog(t)
	// The nullable-side subquery projects only Vars, so it may merge; its
	// WHERE must land in the join condition, not the parent WHERE.
	q := compile(t, cat,
		`SELECT r.a, t.c FROM r LEFT JOIN (SELECT a, c FROM s WHERE c > 100) AS t ON r.a = t.a`)
	if got := subqueryCount(q); got != 0 {
		t.Fatalf("nullable-side SPJ subquery not merged: %d remain", got)
	}
	if q.Where != nil {
		t.Fatalf("nullable-side filter leaked into parent WHERE: %v", q.Where)
	}
	join, ok := q.From[0].(*algebra.FromJoin)
	if !ok || join.Kind != algebra.JoinLeft {
		t.Fatalf("outer join structure lost: %T", q.From[0])
	}
	conds := algebra.Conjuncts(join.Cond)
	if len(conds) != 2 {
		t.Fatalf("join condition should carry the merged filter: %v", join.Cond)
	}
}

func TestProvenanceRewriteFlattens(t *testing.T) {
	cat := testCatalog(t)
	q := compile(t, cat,
		`SELECT PROVENANCE t1.a FROM (SELECT a, b FROM r WHERE a > 0) AS t1,
		        (SELECT a, c FROM s) AS t2 WHERE t1.a = t2.a`)
	if got := subqueryCount(q); got != 0 {
		t.Fatalf("rewritten provenance query not flattened: %d subqueries", got)
	}
	// All four provenance attributes must survive flattening.
	if len(q.ProvCols) != 4 {
		t.Fatalf("ProvCols = %v, want 4 entries", q.ProvCols)
	}
	for _, pc := range q.ProvCols {
		if !strings.HasPrefix(pc.Name, "prov_") {
			t.Errorf("provenance column %q lost its naming", pc.Name)
		}
	}
}

func TestAliasesStayUniqueAfterMerge(t *testing.T) {
	cat := testCatalog(t)
	q := compile(t, cat,
		`SELECT t1.a, t2.a FROM (SELECT a FROM r) AS t1, (SELECT a FROM r) AS t2`)
	seen := make(map[string]bool)
	for _, rte := range q.RangeTable {
		if seen[rte.Alias] {
			t.Fatalf("duplicate alias %q after merge", rte.Alias)
		}
		seen[rte.Alias] = true
	}
}

// TestOptimizeIsIdempotent: the rules run to a fixpoint, however deep the
// tree nests — optimizing an optimized tree changes nothing. The Fig.
// 12-14 shapes at 40 and 60 levels are the ones a bounded number of
// whole-tree passes stops short on.
func TestOptimizeIsIdempotent(t *testing.T) {
	cat := testCatalog(t)
	sources := []string{
		`SELECT t1.a FROM (SELECT a, b FROM r WHERE a > 0) AS t1`,
		`SELECT PROVENANCE b, count(*) FROM r GROUP BY b`,
		`SELECT a FROM r UNION SELECT a FROM s`,
	}
	for _, shape := range []string{
		synth.AggChainQuery(40, 200),
		synth.AggChainQuery(60, 200),
		synth.SetOpQuery(tpch.NewRand(1), 40, 200),
		synth.SPJQuery(tpch.NewRand(2), 40, 200),
	} {
		sources = append(sources, shape, strings.Replace(shape, "SELECT", "SELECT PROVENANCE", 1))
	}
	for _, src := range sources {
		q := compile(t, cat, src)
		before, sql := subqueryCount(q), deparse.Query(q)
		q2 := optimize.Query(q)
		if got := subqueryCount(q2); got != before {
			t.Errorf("%.60s: second optimize changed the tree (%d -> %d subqueries)",
				src, before, got)
		}
		if again := deparse.Query(q2); again != sql {
			t.Errorf("%.60s: second optimize changed the tree (%d -> %d bytes of SQL)",
				src, len(sql), len(again))
		}
	}
}

// TestPruneRemapsSharedProvCols: the rewriter hands a subquery's
// provenance list to the entry that holds it (one slice, two owners), so
// pruning must remap each into a slice of its own. Compacting in place
// remaps the entry's list a second time through the already remapped
// backing array and loses prov_c here.
func TestPruneRemapsSharedProvCols(t *testing.T) {
	col := func(rt, i int, name string) *algebra.Var {
		return &algebra.Var{RT: rt, Col: i, Name: name, Typ: types.KindInt}
	}
	provCols := []algebra.ProvCol{{Col: 0, Name: "prov_a"}, {Col: 2, Name: "prov_c"}}
	base := &algebra.RTE{Kind: algebra.RTERelation, Alias: "t", RelName: "t", Cols: algebra.Schema{
		{Name: "a", Type: types.KindInt}, {Name: "b", Type: types.KindInt}, {Name: "c", Type: types.KindInt}}}
	child := &algebra.Query{
		TargetList: []algebra.TargetEntry{
			{Expr: col(0, 0, "a"), Name: "a"}, {Expr: col(0, 1, "b"), Name: "b"}, {Expr: col(0, 2, "c"), Name: "c"}},
		RangeTable: []*algebra.RTE{base},
		From:       []algebra.FromItem{&algebra.FromRef{RT: 0}},
		Limit:      &algebra.Const{Val: types.NewInt(5)}, // keeps the block from being merged away
		ProvCols:   provCols,
	}
	entry := &algebra.RTE{Kind: algebra.RTESubquery, Alias: "x", Subquery: child, Cols: child.Schema(), ProvCols: provCols}
	parent := &algebra.Query{
		TargetList: []algebra.TargetEntry{
			{Expr: col(0, 0, "a"), Name: "a"}, {Expr: col(0, 2, "c"), Name: "c"}, {Expr: &algebra.Const{Val: types.NewInt(1)}, Name: "one"}},
		RangeTable: []*algebra.RTE{entry},
		From:       []algebra.FromItem{&algebra.FromRef{RT: 0}},
	}
	optimize.Query(parent)

	want := []algebra.ProvCol{{Col: 0, Name: "prov_a"}, {Col: 1, Name: "prov_c"}}
	if len(child.TargetList) != 2 {
		t.Fatalf("child kept %d columns, want 2", len(child.TargetList))
	}
	for name, got := range map[string][]algebra.ProvCol{"subquery": child.ProvCols, "entry": entry.ProvCols} {
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("%s ProvCols = %v, want %v", name, got, want)
		}
	}
	if provCols[0] != (algebra.ProvCol{Col: 0, Name: "prov_a"}) || provCols[1] != (algebra.ProvCol{Col: 2, Name: "prov_c"}) {
		t.Errorf("the list handed in was rewritten in place: %v", provCols)
	}
}
