package perm_test

import (
	"fmt"
	"testing"

	"perm"
	"perm/internal/tpch"
)

// tpchDB loads a tiny TPC-H instance (shared across tests in this file).
func tpchDB(tb testing.TB, sf float64) *perm.Database {
	tb.Helper()
	db := perm.NewDatabase()
	tpch.MustLoad(db, sf, 42)
	return db
}

// runQuery executes a benchmark query instance with its setup/teardown.
func runQuery(tb testing.TB, db *perm.Database, q tpch.Query) *perm.Result {
	tb.Helper()
	for _, s := range q.Setup {
		if _, err := db.Exec(s); err != nil {
			tb.Fatalf("Q%d setup: %v", q.Number, err)
		}
	}
	res, err := db.Query(q.Text)
	if err != nil {
		tb.Fatalf("Q%d: %v\nquery:\n%s", q.Number, err, q.Text)
	}
	for _, s := range q.Teardown {
		if _, err := db.Exec(s); err != nil {
			tb.Fatalf("Q%d teardown: %v", q.Number, err)
		}
	}
	return res
}

// TestTPCHQueriesNormal runs every supported benchmark query without
// provenance on a tiny dataset.
func TestTPCHQueriesNormal(t *testing.T) {
	db := tpchDB(t, 0.001)
	rng := tpch.NewRand(7)
	for _, n := range tpch.SupportedQueries() {
		n := n
		t.Run(fmt.Sprintf("Q%d", n), func(t *testing.T) {
			q := tpch.MustQGen(n, rng)
			res := runQuery(t, db, q)
			if res.NumProvColumns() != 0 {
				t.Errorf("normal query reports %d provenance columns", res.NumProvColumns())
			}
		})
	}
}

// TestTPCHQueriesProvenance runs every supported benchmark query WITH
// provenance computation and checks structural invariants: provenance
// columns present, and the set of original-column projections of the
// provenance result equals the normal result (the §III-E theorem).
func TestTPCHQueriesProvenance(t *testing.T) {
	db := tpchDB(t, 0.001)
	rng := tpch.NewRand(7)
	for _, n := range tpch.SupportedQueries() {
		n := n
		t.Run(fmt.Sprintf("Q%d", n), func(t *testing.T) {
			if testing.Short() && (n == 9 || n == 11 || n == 16) {
				t.Skip("provenance blow-up query; skipped with -short")
			}
			q := tpch.MustQGen(n, rng)
			normRes := runQuery(t, db, q)
			provRes := runQuery(t, db, q.Provenance())
			if provRes.NumProvColumns() == 0 {
				t.Fatalf("provenance query has no provenance columns")
			}
			origWidth := len(normRes.Columns)
			if len(provRes.Columns) <= origWidth {
				t.Fatalf("provenance schema not extended: %d vs %d columns",
					len(provRes.Columns), origWidth)
			}
			// Theorem §III-E: Π_T(q+) = Π_T(q) as sets.
			normSet := map[string]bool{}
			for _, row := range normRes.Rows {
				normSet[fingerprint(row, origWidth)] = true
			}
			provSet := map[string]bool{}
			for _, row := range provRes.Rows {
				provSet[fingerprint(row, origWidth)] = true
			}
			for fp := range normSet {
				if !provSet[fp] {
					t.Errorf("original tuple %q missing from provenance result", fp)
				}
			}
			for fp := range provSet {
				if !normSet[fp] {
					t.Errorf("spurious tuple %q in provenance result", fp)
				}
			}
		})
	}
}

func fingerprint(row []perm.Value, width int) string {
	s := ""
	for i := 0; i < width && i < len(row); i++ {
		s += row[i].String() + "|"
	}
	return s
}

// TestTPCHGeneratorDeterminism checks that the generator is reproducible
// and scales row counts.
func TestTPCHGeneratorDeterminism(t *testing.T) {
	d1 := tpch.Generate(0.001, 42)
	d2 := tpch.Generate(0.001, 42)
	for _, name := range tpch.TableNames() {
		if len(d1.Tables[name]) != len(d2.Tables[name]) {
			t.Fatalf("table %s: %d vs %d rows for same seed", name,
				len(d1.Tables[name]), len(d2.Tables[name]))
		}
	}
	for _, name := range []string{"supplier", "orders", "lineitem"} {
		for i := range d1.Tables[name] {
			a, b := d1.Tables[name][i], d2.Tables[name][i]
			if len(a) != len(b) {
				t.Fatalf("%s row %d: width mismatch", name, i)
			}
			for j := range a {
				if a[j].String() != b[j].String() {
					t.Fatalf("%s row %d col %d: %s vs %s", name, i, j, a[j], b[j])
				}
			}
		}
	}
	// Scaling.
	big := tpch.Generate(0.002, 42)
	if len(big.Tables["orders"]) <= len(d1.Tables["orders"]) {
		t.Errorf("orders did not scale: %d vs %d",
			len(big.Tables["orders"]), len(d1.Tables["orders"]))
	}
	if len(d1.Tables["region"]) != 5 || len(d1.Tables["nation"]) != 25 {
		t.Errorf("region/nation must be fixed size, got %d/%d",
			len(d1.Tables["region"]), len(d1.Tables["nation"]))
	}
}

// TestTPCHQGenVariation checks that qgen produces varying parameters.
func TestTPCHQGenVariation(t *testing.T) {
	rng := tpch.NewRand(1)
	texts := map[string]bool{}
	for i := 0; i < 10; i++ {
		q := tpch.MustQGen(6, rng)
		texts[q.Text] = true
	}
	if len(texts) < 2 {
		t.Errorf("qgen produced %d distinct Q6 instances out of 10", len(texts))
	}
	if _, err := tpch.QGen(2, rng); err == nil {
		t.Errorf("QGen(2) should fail: query 2 has a correlated sublink")
	}
}
