package plan_test

import (
	"strings"
	"testing"

	"perm/internal/analyze"
	"perm/internal/catalog"
	"perm/internal/exec"
	"perm/internal/plan"
	"perm/internal/provrewrite"
	"perm/internal/sql"
	"perm/internal/types"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	create := func(name string, n int, cols ...catalog.Column) {
		t.Helper()
		tab, err := cat.CreateTable(name, cols, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			row := make(types.Row, len(cols))
			for j := range cols {
				row[j] = types.NewInt(int64(i + j))
			}
			if err := tab.Heap.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	create("big", 1000,
		catalog.Column{Name: "a", Type: types.KindInt},
		catalog.Column{Name: "b", Type: types.KindInt})
	create("small", 10,
		catalog.Column{Name: "a", Type: types.KindInt},
		catalog.Column{Name: "c", Type: types.KindInt})
	create("tiny", 2,
		catalog.Column{Name: "a", Type: types.KindInt})
	return cat
}

func planFor(t *testing.T, cat *catalog.Catalog, src string) exec.Node {
	t.Helper()
	return planWith(t, cat, src, true)
}

func planWith(t *testing.T, cat *catalog.Catalog, src string, vectorized bool) exec.Node {
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
	node, err := plan.New(cat).SetVectorized(vectorized).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	return node
}

func TestEquiJoinPlansHashJoin(t *testing.T) {
	cat := testCatalog(t)
	node := planFor(t, cat, "SELECT big.b FROM big, small WHERE big.a = small.a")
	out := plan.Explain(node)
	if !strings.Contains(out, "HashJoin") {
		t.Errorf("equi join should use HashJoin:\n%s", out)
	}
	if strings.Contains(out, "NestedLoopJoin") {
		t.Errorf("no nested loop expected:\n%s", out)
	}
}

func TestNonEquiJoinFallsBackToNestedLoop(t *testing.T) {
	cat := testCatalog(t)
	node := planFor(t, cat, "SELECT big.b FROM big, tiny WHERE big.a < tiny.a")
	out := plan.Explain(node)
	if !strings.Contains(out, "NestedLoopJoin") {
		t.Errorf("non-equi join should use NestedLoopJoin:\n%s", out)
	}
}

func TestRewrittenAggregationUsesHashJoin(t *testing.T) {
	cat := testCatalog(t)
	// The provenance join-back for aggregation uses IS NOT DISTINCT FROM;
	// kept two-sided by the row engine, the planner must still recognize
	// it as a hash-joinable key. In the batch engine one AggAttach
	// evaluates both sides.
	const src = "SELECT PROVENANCE a, count(*) FROM small GROUP BY a"
	out := plan.Explain(planWith(t, cat, src, false))
	if !strings.Contains(out, "HashJoin") {
		t.Errorf("null-safe join-back should be a HashJoin:\n%s", out)
	}
	if out := plan.Explain(planFor(t, cat, src)); !strings.Contains(out, "VecAggAttach") {
		t.Errorf("join-back over one evaluation of its input should be a VecAggAttach:\n%s", out)
	}
}

func TestFilterPushdown(t *testing.T) {
	cat := testCatalog(t)
	// The single-table predicate must be applied below the join (the
	// Filter appears beneath the HashJoin in the explain tree).
	node := planFor(t, cat,
		"SELECT big.b FROM big, small WHERE big.a = small.a AND small.c < 5")
	out := plan.Explain(node)
	joinIdx := strings.Index(out, "HashJoin")
	filterIdx := strings.Index(out, "Filter")
	if joinIdx < 0 || filterIdx < 0 {
		t.Fatalf("missing nodes:\n%s", out)
	}
	if filterIdx < joinIdx {
		t.Errorf("filter should be pushed below the join:\n%s", out)
	}
}

func TestGreedyOrderingAvoidsCrossProducts(t *testing.T) {
	cat := testCatalog(t)
	// big ⋈ small ⋈ tiny chained by predicates: no cross product should
	// appear even though the FROM order interleaves them.
	node := planFor(t, cat,
		"SELECT count(*) FROM big, tiny, small WHERE big.a = small.a AND small.a = tiny.a")
	out := plan.Explain(node)
	if strings.Count(out, "HashJoin") != 2 {
		t.Errorf("want two hash joins:\n%s", out)
	}
	rows, err := exec.Collect(node)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I != 2 {
		t.Errorf("result = %v, want count 2", rows)
	}
}

func TestSubLinkPlanCaching(t *testing.T) {
	cat := testCatalog(t)
	// The uncorrelated sublink is evaluated once, not per row: with a
	// 1000-row outer table this finishes instantly only when cached.
	node := planFor(t, cat,
		"SELECT a FROM big WHERE a > (SELECT max(a) FROM small) AND a IN (SELECT a FROM small)")
	rows, err := exec.Collect(node)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("rows = %d (a > max(small.a) AND a IN small is unsatisfiable)", len(rows))
	}
}

func TestPlanExecutesRepeatedly(t *testing.T) {
	cat := testCatalog(t)
	node := planFor(t, cat, "SELECT a FROM tiny ORDER BY a")
	for i := 0; i < 3; i++ {
		rows, err := exec.Collect(node)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("pass %d: %d rows", i, len(rows))
		}
	}
}

func TestValuesRTE(t *testing.T) {
	// Direct check of the FROM-less constant query path.
	cat := catalog.New()
	node := planFor(t, cat, "SELECT 1 + 1")
	rows, err := exec.Collect(node)
	if err != nil || len(rows) != 1 || rows[0][0].I != 2 {
		t.Fatalf("constant query = %v, %v", rows, err)
	}
}

func TestOrConjunctHoisting(t *testing.T) {
	cat := testCatalog(t)
	// The equi-join predicate appears in every OR branch (the TPC-H Q19
	// shape); the planner must hoist it and use a hash join.
	node := planFor(t, cat, `
		SELECT count(*) FROM big, small
		WHERE (big.a = small.a AND small.c < 3)
		   OR (big.a = small.a AND small.c > 8)`)
	out := plan.Explain(node)
	if !strings.Contains(out, "HashJoin") {
		t.Errorf("common OR conjunct not hoisted:\n%s", out)
	}
	rows, err := exec.Collect(node)
	if err != nil {
		t.Fatal(err)
	}
	// small rows: a=i, c=i+1 for i in 0..9; c<3 → i∈{0,1}; c>8 → i∈{8,9};
	// all four join big.
	if rows[0][0].I != 4 {
		t.Errorf("count = %s, want 4", rows[0][0])
	}
}

func TestOrHoistingPreservesSemantics(t *testing.T) {
	cat := testCatalog(t)
	// A branch that is exactly the common conjunct collapses the residual
	// OR to true: (A) OR (A AND x) ≡ A.
	node := planFor(t, cat, `
		SELECT count(*) FROM big, small
		WHERE (big.a = small.a) OR (big.a = small.a AND small.c < 3)`)
	rows, err := exec.Collect(node)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I != 10 {
		t.Errorf("count = %s, want 10", rows[0][0])
	}
}

// TestJoinTreeConjunctRouting: WHERE conjuncts and inner ON conjuncts
// must sink through explicit join trees down to the scans (the shapes the
// logical optimizer emits put base relations under explicit joins).
func TestJoinTreeConjunctRouting(t *testing.T) {
	cat := testCatalog(t)
	node := planFor(t, cat,
		"SELECT big.b FROM (big JOIN small ON big.a = small.a) WHERE small.c < 5 AND big.b > 1")
	out := plan.Explain(node)
	if !strings.Contains(out, "HashJoin") {
		t.Fatalf("inner ON equality should hash-join:\n%s", out)
	}
	// Both single-table predicates must appear below the join
	// ("Filter\n" matches the filter nodes but not RuntimeFilter labels).
	joinIdx := strings.Index(out, "HashJoin")
	if strings.Count(out[joinIdx:], "Filter\n") != 2 {
		t.Errorf("want both filters pushed below the join:\n%s", out)
	}
}

// TestOuterJoinNullableSideFilter: an ON conjunct referencing only the
// nullable side filters that input before the join; a conjunct on the
// preserved side alone must stay in the join condition (filtering the
// preserved input would change which rows are null-extended).
func TestOuterJoinNullableSideFilter(t *testing.T) {
	cat := testCatalog(t)
	node := planFor(t, cat,
		"SELECT big.b FROM big LEFT JOIN small ON big.a = small.a AND small.c < 5")
	out := plan.Explain(node)
	if !strings.Contains(out, "HashJoin (left") {
		t.Fatalf("expected left hash join:\n%s", out)
	}
	joinIdx := strings.Index(out, "HashJoin")
	if strings.Index(out[joinIdx:], "Filter") < 0 {
		t.Errorf("nullable-side ON conjunct should filter the scan:\n%s", out)
	}
	rows, err := exec.Collect(node)
	if err != nil {
		t.Fatal(err)
	}
	// All 1000 big rows survive the left join regardless of the filter.
	if len(rows) != 1000 {
		t.Errorf("left join lost preserved rows: %d", len(rows))
	}

	// Preserved-side-only conjunct: stays in the condition, so unmatched
	// preserved rows are still emitted (null-extended), not filtered.
	node = planFor(t, cat,
		"SELECT big.b, small.c FROM big LEFT JOIN small ON big.a = small.a AND big.a < 3")
	rows, err = exec.Collect(node)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1000 {
		t.Errorf("preserved-side ON conjunct must not filter input rows: %d", len(rows))
	}
	matched := 0
	for _, r := range rows {
		if !r[1].Null {
			matched++
		}
	}
	if matched != 3 {
		t.Errorf("matched rows = %d, want 3 (a in 0..2)", matched)
	}
}

// TestConstantInnerJoinCondUnderFullJoin: a variable-free ON condition of
// an inner join nested under a FULL JOIN must not be dropped (regression:
// conjunct-pool leftovers under FULL JOIN's isolated pools were
// discarded, turning `JOIN ... ON 1=0` into a cross join).
func TestConstantInnerJoinCondUnderFullJoin(t *testing.T) {
	cat := testCatalog(t)
	node := planFor(t, cat,
		"SELECT tiny.a, small.a, big.a FROM tiny FULL JOIN (small JOIN big ON 1 = 0) ON tiny.a = small.a")
	rows, err := exec.Collect(node)
	if err != nil {
		t.Fatal(err)
	}
	// The inner join is empty, so every tiny row null-extends and nothing
	// comes from the right side.
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 null-extended tiny rows", len(rows))
	}
	for _, r := range rows {
		if !r[1].Null || !r[2].Null {
			t.Errorf("right side must be null-extended: %v", r)
		}
	}
}
