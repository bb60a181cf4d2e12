package perm_test

import (
	"maps"
	"strings"
	"testing"

	"perm"
)

// ruleDB builds a tiny two-table database for the per-rule tests.
func ruleDB(t testing.TB) *perm.Database {
	t.Helper()
	db := perm.NewDatabase()
	db.MustExec(`
		CREATE TABLE r (a int, b text);
		INSERT INTO r VALUES (1, 'x'), (2, 'y'), (2, 'y'), (3, NULL);
		CREATE TABLE s (a int, c int);
		INSERT INTO s VALUES (1, 100), (2, 200), (4, 400);
	`)
	return db
}

// TestRuleR1BaseRelation: rule R1 duplicates the attributes of a base
// relation under provenance names.
func TestRuleR1BaseRelation(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery("SELECT PROVENANCE a, b FROM r")
	wantCols := []string{"a", "b", "prov_r_a", "prov_r_b"}
	for i, c := range wantCols {
		if res.Columns[i] != c {
			t.Fatalf("columns = %v, want %v", res.Columns, wantCols)
		}
	}
	// Every tuple's provenance is itself.
	for _, row := range res.Rows {
		if row[0].String() != row[2].String() || row[1].String() != row[3].String() {
			t.Errorf("row %v: provenance must duplicate the tuple", row)
		}
	}
	if len(res.Rows) != 4 {
		t.Errorf("got %d rows, want 4 (bag semantics preserved)", len(res.Rows))
	}
}

// TestRuleR2Projection: projection passes provenance through (and keeps
// attributes projected away in the provenance columns).
func TestRuleR2Projection(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery("SELECT PROVENANCE b FROM r WHERE a = 1")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	// b, prov_r_a, prov_r_b — the projected-away a survives as provenance.
	if row[0].String() != "x" || row[1].Int() != 1 || row[2].String() != "x" {
		t.Errorf("row = %v", row)
	}
	// DISTINCT projection (set semantics Π^S): provenance may change
	// multiplicities of the original part but the distinct set of original
	// values must match.
	res = db.MustQuery("SELECT PROVENANCE DISTINCT b FROM r")
	seen := map[string]bool{}
	for _, r := range res.Rows {
		seen[r[0].String()] = true
	}
	if len(seen) != 3 { // x, y, NULL
		t.Errorf("distinct original values = %v", seen)
	}
}

// TestRuleR3Selection: selection applies unchanged to the rewritten input.
func TestRuleR3Selection(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery("SELECT PROVENANCE a FROM r WHERE b LIKE 'y%'")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[0].Int() != 2 || row[1].Int() != 2 || row[2].String() != "y" {
			t.Errorf("row = %v", row)
		}
	}
}

// TestRuleR4Join: a join's provenance concatenates both sides' P-lists in
// range-table order.
func TestRuleR4Join(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery("SELECT PROVENANCE r.a, c FROM r, s WHERE r.a = s.a")
	wantCols := []string{"a", "c", "prov_r_a", "prov_r_b", "prov_s_a", "prov_s_c"}
	if strings.Join(res.Columns, ",") != strings.Join(wantCols, ",") {
		t.Fatalf("columns = %v, want %v", res.Columns, wantCols)
	}
	// a=2 matches twice in r → two provenance rows with identical s part.
	expectRows(t, res, []string{
		"1|100|1|x|1|100",
		"2|200|2|y|2|200",
		"2|200|2|y|2|200",
	})
}

// TestRuleR5Aggregation: aggregation joins back on grouping attributes;
// every input tuple of a group is provenance of its aggregate row.
func TestRuleR5Aggregation(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery("SELECT PROVENANCE b, count(*) FROM r GROUP BY b")
	expectRows(t, res, []string{
		"x|1|1|x",
		"y|2|2|y",
		"y|2|2|y",
		"NULL|1|3|NULL", // NULL group keeps its provenance (null-safe join)
	})
}

// TestRuleR5GlobalAggregation: without GROUP BY every input tuple
// contributes to the single result row.
func TestRuleR5GlobalAggregation(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery("SELECT PROVENANCE sum(a) FROM r")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (one per input tuple)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[0].Int() != 8 {
			t.Errorf("sum = %s, want 8", row[0])
		}
	}
}

// TestRuleR5EmptyAggregation: R5 joins the aggregation to its rewritten
// input with a left outer join, so the one row an aggregation without
// GROUP BY yields over an empty input survives in q+ with NULL provenance
// (Π_T(q+) = Π_T(q)). A HAVING that rejects that row rejects it in q+ too.
func TestRuleR5EmptyAggregation(t *testing.T) {
	db := ruleDB(t)
	db.MustExec("CREATE TABLE e (x int)")
	norm := db.MustQuery("SELECT sum(x) FROM e")
	if len(norm.Rows) != 1 || !norm.Rows[0][0].IsNull() {
		t.Fatalf("normal empty aggregation = %v", norm.Rows)
	}
	expectRows(t, db.MustQuery("SELECT PROVENANCE sum(x) FROM e"), []string{"NULL|NULL"})
	expectRows(t, db.MustQuery("SELECT PROVENANCE count(*) FROM e"), []string{"0|NULL"})
	expectRows(t, db.MustQuery("SELECT PROVENANCE count(*) FROM e HAVING count(*) > 0"), nil)
	// With a GROUP BY an empty input has no groups, in q and in q+.
	expectRows(t, db.MustQuery("SELECT PROVENANCE x, count(*) FROM e GROUP BY x"), nil)
}

// TestRuleR6Union: each result tuple carries provenance from the side(s)
// it stems from; the other side's attributes are NULL.
func TestRuleR6Union(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery("SELECT PROVENANCE a FROM r UNION SELECT a FROM s")
	byVal := map[string][][]string{}
	for _, row := range res.Rows {
		var parts []string
		for _, v := range row {
			parts = append(parts, v.String())
		}
		byVal[parts[0]] = append(byVal[parts[0]], parts)
	}
	// a=4 only in s: left provenance NULL.
	rows4 := byVal["4"]
	if len(rows4) != 1 {
		t.Fatalf("a=4 rows = %v", rows4)
	}
	if rows4[0][1] != "NULL" || rows4[0][3] != "4" {
		t.Errorf("a=4 provenance = %v (want left NULL, right 4)", rows4[0])
	}
	// a=3 only in r: right provenance NULL.
	rows3 := byVal["3"]
	if len(rows3) != 1 || rows3[0][1] != "3" || rows3[0][3] != "NULL" {
		t.Errorf("a=3 provenance = %v", rows3)
	}
	// a=2: twice in r, once in s → union result tuple 2 has provenance
	// rows for both r duplicates and the s tuple.
	rows2 := byVal["2"]
	if len(rows2) < 2 {
		t.Errorf("a=2 provenance rows = %v", rows2)
	}
}

// TestRuleR7Intersection: both sides contribute to each result tuple.
func TestRuleR7Intersection(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery("SELECT PROVENANCE a FROM r INTERSECT SELECT a FROM s")
	vals := map[string]bool{}
	for _, row := range res.Rows {
		vals[row[0].String()] = true
		// intersection tuples must have non-NULL provenance on both sides
		if row[1].IsNull() || row[3].IsNull() {
			t.Errorf("intersection row %v lacks two-sided provenance", row)
		}
	}
	if !vals["1"] || !vals["2"] || len(vals) != 2 {
		t.Errorf("intersection originals = %v, want {1,2}", vals)
	}
}

// TestRuleR8SetDifference: for set semantics, ALL tuples of T2 are
// provenance of every result tuple (the condition is omitted).
func TestRuleR8SetDifference(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery("SELECT PROVENANCE a FROM r EXCEPT SELECT a FROM s")
	// result: {3}; provenance from s: all 3 tuples of s.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one per s tuple)", len(res.Rows))
	}
	sVals := map[string]bool{}
	for _, row := range res.Rows {
		if row[0].Int() != 3 {
			t.Errorf("original = %s, want 3", row[0])
		}
		sVals[row[3].String()] = true
	}
	if len(sVals) != 3 {
		t.Errorf("s-side provenance keys = %v, want all of {1,2,4}", sVals)
	}
}

// TestRuleR9BagDifference: for bag semantics only T2 tuples different
// from the result tuple are attached.
func TestRuleR9BagDifference(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery("SELECT PROVENANCE a FROM r EXCEPT ALL SELECT a FROM s")
	// r bag: {1,2,2,3}; s bag: {1,2,4} → result {2,3}.
	byVal := map[string]map[string]bool{}
	for _, row := range res.Rows {
		v := row[0].String()
		if byVal[v] == nil {
			byVal[v] = map[string]bool{}
		}
		byVal[v][row[3].String()] = true
	}
	if len(byVal) != 2 || byVal["2"] == nil || byVal["3"] == nil {
		t.Fatalf("result values = %v, want {2,3}", byVal)
	}
	// For tuple 2: s tuples different from 2 are 1 and 4.
	if byVal["2"]["2"] {
		t.Errorf("tuple 2 must not have equal s-tuple 2 as provenance: %v", byVal["2"])
	}
	if !byVal["2"]["1"] || !byVal["2"]["4"] {
		t.Errorf("tuple 2 provenance must include s tuples 1 and 4: %v", byVal["2"])
	}
}

// TestRepeatedRelationNumbering: multiple references to a relation get
// numbered provenance attribute names (§IV-A1).
func TestRepeatedRelationNumbering(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery("SELECT PROVENANCE r1.a FROM r AS r1, r AS r2 WHERE r1.a = r2.a")
	joined := strings.Join(res.Columns, ",")
	if !strings.Contains(joined, "prov_r_a") || !strings.Contains(joined, "prov_r_2_a") {
		t.Errorf("repeated reference not numbered: %v", res.Columns)
	}
}

// TestNegatedSublinkProvenance: a NOT IN sublink attaches the tuples NOT
// fulfilling the condition (TPC-H Q16 behaviour).
func TestNegatedSublinkProvenance(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery(`SELECT PROVENANCE a FROM r WHERE a NOT IN (SELECT a FROM s WHERE c > 150)`)
	// s sub-result: {2, 4}; r tuples passing NOT IN: 1, 3.
	// Provenance per result tuple: sub tuples ≠ the test value.
	byVal := map[string][]string{}
	subCol := -1
	for i, c := range res.Columns {
		if strings.HasPrefix(c, "prov_s_a") {
			subCol = i
		}
	}
	if subCol < 0 {
		t.Fatalf("no sublink provenance column in %v", res.Columns)
	}
	for _, row := range res.Rows {
		byVal[row[0].String()] = append(byVal[row[0].String()], row[subCol].String())
	}
	if len(byVal["1"]) != 2 || len(byVal["3"]) != 2 {
		t.Errorf("each passing tuple should carry both sub tuples: %v", byVal)
	}
}

// TestScalarSublinkProvenance: a scalar sublink contributes its whole
// input.
func TestScalarSublinkProvenance(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery("SELECT PROVENANCE a FROM r WHERE a >= (SELECT min(a) FROM s)")
	// All 4 r tuples pass; each carries all 3 s tuples → 12 rows.
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(res.Rows))
	}
}

// TestSetOpWitnessesMixedTree pins the witness multiset of a UNION over an
// INTERSECT under every optimizer × engine configuration. A witness of a
// leaf under the INTERSECT must be one the intersection kept: s's 1 is not
// (t has no 1), so the result row 1 has no s or t witness. A rewrite that
// joins the result with every leaf directly, as Fig. 6(3a) does, gives it
// prov_s_a = 1.
func TestSetOpWitnessesMixedTree(t *testing.T) {
	const q = "SELECT PROVENANCE a FROM r UNION (SELECT a FROM s INTERSECT SELECT a FROM t)"
	want := map[string]int{
		"1|1|NULL|NULL|": 1,
		"2|2|NULL|NULL|": 2, // r holds 2 twice: two witnesses
		"3|NULL|3|3|":    2, // s holds 3 twice
	}
	for _, opts := range []perm.Options{
		{}, {DisableOptimizer: true}, {DisableVectorized: true},
		{DisableOptimizer: true, DisableVectorized: true},
	} {
		db := perm.NewDatabaseWithOptions(opts)
		db.MustExec(`
			CREATE TABLE r (a int); INSERT INTO r VALUES (1), (2), (2);
			CREATE TABLE s (a int); INSERT INTO s VALUES (1), (3), (3);
			CREATE TABLE t (a int); INSERT INTO t VALUES (3);
		`)
		res := db.MustQuery(q)
		if got := strings.Join(res.Columns, ","); got != "a,prov_r_a,prov_s_a,prov_t_a" {
			t.Fatalf("%+v: columns %s", opts, got)
		}
		got := map[string]int{}
		for _, row := range res.Rows {
			got[fingerprint(row, len(row))]++
		}
		if !maps.Equal(got, want) {
			t.Errorf("%+v: witnesses %v, want %v", opts, got, want)
		}
	}
}

// TestLimitProvenance: LIMIT queries attach provenance only to surviving
// rows.
func TestLimitProvenance(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery("SELECT PROVENANCE a FROM s ORDER BY a LIMIT 2")
	vals := map[string]bool{}
	for _, row := range res.Rows {
		vals[row[0].String()] = true
		if row[1].IsNull() {
			t.Errorf("limited row %v lacks provenance", row)
		}
	}
	if vals["4"] {
		t.Error("row cut by LIMIT must not appear")
	}
	if !vals["1"] || !vals["2"] {
		t.Errorf("surviving rows = %v, want {1,2}", vals)
	}
}

// TestNestedProvenanceSubquery: a PROVENANCE subquery's attributes are
// visible to (and pass through) the enclosing query.
func TestNestedProvenanceSubquery(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery(`
		SELECT prov_r_b FROM (SELECT PROVENANCE a FROM r) AS p WHERE prov_r_b IS NOT NULL`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

// TestProvenanceOfProvenance: rewriting a query over an already rewritten
// subquery treats the subquery's P-list as its provenance (incremental
// computation).
func TestProvenanceOfProvenance(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery(`
		SELECT PROVENANCE b FROM (SELECT PROVENANCE a, b FROM r) AS p WHERE a = 1`)
	// The outer rewrite must reuse prov_r_a/prov_r_b from the inner one,
	// not duplicate columns of p.
	joined := strings.Join(res.Columns, ",")
	if strings.Count(joined, "prov_r_a") != 1 {
		t.Errorf("columns = %v (provenance attributes duplicated?)", res.Columns)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "x" {
		t.Errorf("rows = %v", res.Rows)
	}
}

// TestExceptAllBlowup documents the §VI-acknowledged behaviour: chained
// set differences multiply provenance from the right operands.
func TestExceptAllBlowup(t *testing.T) {
	db := ruleDB(t)
	res := db.MustQuery(
		"SELECT PROVENANCE a FROM r EXCEPT ALL (SELECT a FROM s EXCEPT ALL SELECT a FROM s)")
	// The inner difference is empty, so the outer result is all of r's bag,
	// but every result row still carries the cross product of the inner
	// operands' provenance.
	if len(res.Rows) <= 4 {
		t.Errorf("rows = %d; expected provenance blow-up beyond the 4 originals", len(res.Rows))
	}
}
