package tpch

import (
	"strings"
	"testing"

	"perm/internal/sql"
	"perm/internal/types"
)

func TestRandDeterminismAndRange(t *testing.T) {
	a, b := NewRand(1), NewRand(1)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must produce same sequence")
		}
	}
	r := NewRand(2)
	for i := 0; i < 1000; i++ {
		if v := r.Range(3, 7); v < 3 || v > 7 {
			t.Fatalf("Range out of bounds: %d", v)
		}
		if f := r.Float(); f < 0 || f >= 1 {
			t.Fatalf("Float out of bounds: %g", f)
		}
	}
}

func TestAllQueriesParse(t *testing.T) {
	r := NewRand(5)
	for _, n := range SupportedQueries() {
		for v := 0; v < 3; v++ {
			q := MustQGen(n, r)
			if _, err := sql.Parse(q.Text); err != nil {
				t.Errorf("Q%d version %d does not parse: %v\n%s", n, v, err, q.Text)
			}
			pq := q.Provenance()
			if !strings.Contains(strings.ToUpper(pq.Text), "SELECT PROVENANCE") {
				t.Errorf("Q%d: PROVENANCE not injected", n)
			}
			if _, err := sql.Parse(pq.Text); err != nil {
				t.Errorf("Q%d provenance form does not parse: %v", n, err)
			}
			for _, s := range q.Setup {
				if _, err := sql.Parse(s); err != nil {
					t.Errorf("Q%d setup does not parse: %v", n, err)
				}
			}
			for _, s := range q.Teardown {
				if _, err := sql.Parse(s); err != nil {
					t.Errorf("Q%d teardown does not parse: %v", n, err)
				}
			}
		}
	}
}

func TestUnsupportedQueriesRejected(t *testing.T) {
	r := NewRand(1)
	for _, n := range []int{2, 4, 17, 18, 20, 21, 22, 0, 23} {
		if _, err := QGen(n, r); err == nil {
			t.Errorf("QGen(%d) should fail", n)
		}
	}
}

func TestGenerateInvariants(t *testing.T) {
	d := Generate(0.001, 7)
	// Referential sanity: every lineitem references a valid order, part
	// and supplier; every order a valid customer.
	nOrders := len(d.Tables["orders"])
	nPart := len(d.Tables["part"])
	nSupp := len(d.Tables["supplier"])
	nCust := len(d.Tables["customer"])
	for _, li := range d.Tables["lineitem"] {
		if k := li[0].I; k < 1 || k > int64(nOrders) {
			t.Fatalf("lineitem orderkey %d out of range", k)
		}
		if k := li[1].I; k < 1 || k > int64(nPart) {
			t.Fatalf("lineitem partkey %d out of range", k)
		}
		if k := li[2].I; k < 1 || k > int64(nSupp) {
			t.Fatalf("lineitem suppkey %d out of range", k)
		}
		// shipdate <= receiptdate
		if li[10].I > li[12].I {
			t.Fatalf("shipdate after receiptdate: %v", li)
		}
	}
	for _, o := range d.Tables["orders"] {
		if k := o[1].I; k < 1 || k > int64(nCust) {
			t.Fatalf("order custkey %d out of range", k)
		}
		if o[4].K != types.KindDate {
			t.Fatalf("orderdate kind = %v", o[4].K)
		}
	}
	// partsupp: exactly 4 entries per part.
	if len(d.Tables["partsupp"]) != 4*nPart {
		t.Errorf("partsupp = %d rows, want %d", len(d.Tables["partsupp"]), 4*nPart)
	}
	// nation/region fixed.
	if len(d.Tables["nation"]) != 25 || len(d.Tables["region"]) != 5 {
		t.Error("nation/region sizes wrong")
	}
	// Q13/Q16 filter markers must occur somewhere at reasonable SF.
	big := Generate(0.01, 7)
	foundSpecial, foundComplaint := false, false
	for _, o := range big.Tables["orders"] {
		if strings.Contains(o[8].Str(), "special requests") {
			foundSpecial = true
			break
		}
	}
	for _, s := range big.Tables["supplier"] {
		if strings.Contains(s[6].Str(), "Customer Complaints") {
			foundComplaint = true
			break
		}
	}
	if !foundSpecial {
		t.Error("no 'special requests' marker in order comments (Q13 filter)")
	}
	if !foundComplaint {
		t.Error("no 'Customer Complaints' marker in supplier comments (Q16 filter)")
	}
}

func TestSchemaSQLParses(t *testing.T) {
	stmts, err := sql.ParseAll(SchemaSQL())
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != len(TableNames()) {
		t.Errorf("schema has %d statements, want %d", len(stmts), len(TableNames()))
	}
}
