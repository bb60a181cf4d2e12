package perm_test

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"perm/internal/synth"
	"perm/internal/tpch"
	"perm/internal/trio"
)

// TestTrioDeriveAndTrace checks that the Trio baseline's eager lineage
// matches Perm's lazy provenance on a simple selection.
func TestTrioDeriveAndTrace(t *testing.T) {
	db := tpchDB(t, 0.001)
	sys := trio.New(db)

	query := "SELECT s_suppkey, s_name FROM supplier WHERE s_suppkey >= 2 AND s_suppkey <= 5"
	if err := sys.Derive("d1", query); err != nil {
		t.Fatal(err)
	}
	n, err := sys.DerivedRowCount("d1")
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("derived %d tuples, want 4", n)
	}

	// Trace one tuple and cross-check against Perm's provenance result.
	traced, err := sys.Trace("d1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced["supplier"]) != 1 {
		t.Fatalf("tuple 0 traced to %d supplier tuples, want 1", len(traced["supplier"]))
	}

	total, err := sys.TraceAll("d1")
	if err != nil {
		t.Fatal(err)
	}
	if total != 4 {
		t.Fatalf("TraceAll fetched %d source tuples, want 4", total)
	}
	if err := sys.Drop("d1"); err != nil {
		t.Fatal(err)
	}
}

// TestTrioEquivalentToPerm checks lineage equivalence between the Trio
// baseline and Perm's rewriting on the SPJ fragment Trio supports.
func TestTrioEquivalentToPerm(t *testing.T) {
	db := tpchDB(t, 0.001)
	sys := trio.New(db)

	query := "SELECT s_suppkey, n_name FROM supplier, nation WHERE s_nationkey = n_nationkey AND s_suppkey <= 3"
	if err := sys.Derive("d2", query); err != nil {
		t.Fatal(err)
	}

	// Perm lazy provenance: collect (s_suppkey → supplier key, nation key).
	provRes, err := db.Query("SELECT PROVENANCE s_suppkey, n_name FROM supplier, nation WHERE s_nationkey = n_nationkey AND s_suppkey <= 3")
	if err != nil {
		t.Fatal(err)
	}
	permPairs := map[string]bool{}
	suppCol, natCol := -1, -1
	for i, c := range provRes.Columns {
		if c == "prov_supplier_s_suppkey" {
			suppCol = i
		}
		if c == "prov_nation_n_nationkey" {
			natCol = i
		}
	}
	if suppCol < 0 || natCol < 0 {
		t.Fatalf("provenance key columns not found in %v", provRes.Columns)
	}
	for _, row := range provRes.Rows {
		permPairs[row[0].String()+"→supplier:"+row[suppCol].String()] = true
		permPairs[row[0].String()+"→nation:"+row[natCol].String()] = true
	}

	// Trio tracing: same pairs via lineage.
	n, err := sys.DerivedRowCount("d2")
	if err != nil {
		t.Fatal(err)
	}
	trioPairs := map[string]bool{}
	for tid := int64(0); tid < int64(n); tid++ {
		m, err := sys.Trace("d2", tid)
		if err != nil {
			t.Fatal(err)
		}
		// The derived table stores s_suppkey as its second column.
		row, err := db.Query("SELECT s_suppkey FROM d2 WHERE tid = " + strconv.FormatInt(tid, 10))
		if err != nil {
			t.Fatal(err)
		}
		key := row.Rows[0][0].String()
		for _, src := range m["supplier"] {
			trioPairs[key+"→supplier:"+src[0].String()] = true
		}
		for _, src := range m["nation"] {
			trioPairs[key+"→nation:"+src[0].String()] = true
		}
	}
	if len(permPairs) != len(trioPairs) {
		t.Fatalf("lineage mismatch: perm %d pairs, trio %d pairs\nperm: %v\ntrio: %v",
			len(permPairs), len(trioPairs), keys(permPairs), keys(trioPairs))
	}
	for p := range permPairs {
		if !trioPairs[p] {
			t.Errorf("pair %q missing from trio lineage", p)
		}
	}
}

// TestTrioRejectsUnsupported checks the documented Trio limitations.
func TestTrioRejectsUnsupported(t *testing.T) {
	db := tpchDB(t, 0.001)
	sys := trio.New(db)
	cases := []string{
		"SELECT count(*) FROM supplier",
		"SELECT s_suppkey, sum(s_acctbal) FROM supplier GROUP BY s_suppkey",
		"SELECT s_suppkey FROM supplier UNION SELECT s_suppkey FROM supplier UNION SELECT s_suppkey FROM supplier",
		"SELECT s_suppkey FROM supplier WHERE s_nationkey IN (SELECT n_nationkey FROM nation)",
		"SELECT max (s_acctbal) FROM supplier",
	}
	for _, q := range cases {
		if err := sys.Derive(sys.FreshName(), q); err == nil {
			t.Errorf("Derive(%q) should have been rejected", q)
		}
	}
}

// TestTrioReadsTokens: the Trio baseline decides on keyword tokens, so a
// column or a literal that spells SELECT is no subquery, and PROVENANCE
// goes after SELECT keywords only, never into a literal.
func TestTrioReadsTokens(t *testing.T) {
	db := tpchDB(t, 0.001)
	sys := trio.New(db)
	for name, query := range map[string]string{
		"d_col": "SELECT s_suppkey, s_name AS selected FROM supplier WHERE s_suppkey <= 2",
		"d_lit": "SELECT s_suppkey, 'select' AS tag FROM supplier WHERE s_suppkey <= 2 AND s_name <> 'select'",
	} {
		if err := sys.Derive(name, query); err != nil {
			t.Fatalf("Derive(%q): %v", query, err)
		}
		if n, err := sys.DerivedRowCount(name); err != nil || n != 2 {
			t.Fatalf("Derive(%q) stored %d tuples (%v), want 2", query, n, err)
		}
	}
	res, err := db.Query("SELECT DISTINCT tag FROM d_lit")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "select" {
		t.Fatalf("literal rewritten: tags %v", res.Rows)
	}
}

// TestSynthGenerators sanity-checks the §V-B workload generators.
func TestSynthGenerators(t *testing.T) {
	db := tpchDB(t, 0.001)
	maxKey, err := db.TableRowCount("part")
	if err != nil {
		t.Fatal(err)
	}
	rng := tpch.NewRand(3)

	for numSetOp := 1; numSetOp <= 4; numSetOp++ {
		q := synth.SetOpQuery(rng, numSetOp, maxKey)
		if _, err := db.Query(q); err != nil {
			t.Fatalf("set-op query (n=%d) failed: %v\n%s", numSetOp, err, q)
		}
		if _, err := db.Query(injectProv(q)); err != nil {
			t.Fatalf("set-op provenance query (n=%d) failed: %v\n%s", numSetOp, err, injectProv(q))
		}
	}
	for numSub := 1; numSub <= 4; numSub++ {
		q := synth.SPJQuery(rng, numSub, maxKey)
		if _, err := db.Query(q); err != nil {
			t.Fatalf("SPJ query (n=%d) failed: %v\n%s", numSub, err, q)
		}
		if _, err := db.Query(injectProv(q)); err != nil {
			t.Fatalf("SPJ provenance query (n=%d) failed: %v", numSub, err)
		}
	}
	for agg := 1; agg <= 4; agg++ {
		q := synth.AggChainQuery(agg, maxKey)
		if _, err := db.Query(q); err != nil {
			t.Fatalf("agg chain (depth=%d) failed: %v\n%s", agg, err, q)
		}
		if _, err := db.Query(injectProv(q)); err != nil {
			t.Fatalf("agg chain provenance (depth=%d) failed: %v", agg, err)
		}
	}
	// EXCEPT trees must run too (blow-up ablation).
	q := synth.SetOpDifferenceQuery(rng, 2, maxKey)
	if _, err := db.Query(injectProv(q)); err != nil {
		t.Fatalf("difference tree provenance failed: %v\n%s", err, q)
	}
}

func injectProv(q string) string {
	idx := strings.Index(strings.ToUpper(q), "SELECT")
	return q[:idx+6] + " PROVENANCE" + q[idx+6:]
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
