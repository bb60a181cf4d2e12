package catalog

import (
	"fmt"
	"sync"
	"testing"

	"perm/internal/sql"
	"perm/internal/types"
)

func intCol(name string) Column { return Column{Name: name, Type: types.KindInt} }

func TestCreateAndLookup(t *testing.T) {
	c := New()
	tab, err := c.CreateTable("t", []Column{intCol("a"), intCol("b")}, false)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ColIndex("b") != 1 || tab.ColIndex("zzz") != -1 {
		t.Error("ColIndex wrong")
	}
	got, ok := c.Table("t")
	if !ok || got != tab {
		t.Error("lookup failed")
	}
	if _, ok := c.Table("nope"); ok {
		t.Error("phantom table")
	}
}

func TestCreateTableErrors(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("t", nil, false); err == nil {
		t.Error("empty column list must fail")
	}
	if _, err := c.CreateTable("t", []Column{intCol("a"), intCol("a")}, false); err == nil {
		t.Error("duplicate column must fail")
	}
	if _, err := c.CreateTable("t", []Column{intCol("a")}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t", []Column{intCol("a")}, false); err == nil {
		t.Error("duplicate table must fail")
	}
	// IF NOT EXISTS returns the existing table.
	tab, err := c.CreateTable("t", []Column{intCol("x")}, true)
	if err != nil || tab.ColIndex("a") != 0 {
		t.Errorf("IF NOT EXISTS = %v, %v", tab, err)
	}
}

func TestViews(t *testing.T) {
	c := New()
	stmt, err := sql.Parse("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*sql.SelectStmt)
	if err := c.CreateView("v", sel, false); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView("v", sel, false); err == nil {
		t.Error("duplicate view must fail")
	}
	if err := c.CreateView("v", sel, true); err != nil {
		t.Errorf("OR REPLACE failed: %v", err)
	}
	if _, err := c.CreateTable("v", []Column{intCol("a")}, false); err == nil {
		t.Error("table/view name collision must fail")
	}
	if err := c.Drop("v", true, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("v", true, false); err == nil {
		t.Error("dropping missing view must fail")
	}
	if err := c.Drop("v", true, true); err != nil {
		t.Error("IF EXISTS must not fail")
	}
}

func TestNameListings(t *testing.T) {
	c := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := c.CreateTable(n, []Column{intCol("a")}, false); err != nil {
			t.Fatal(err)
		}
	}
	names := c.TableNames()
	if len(names) != 3 || names[0] != "alpha" || names[2] != "zeta" {
		t.Errorf("TableNames = %v (must be sorted)", names)
	}
}

func TestConcurrentReaders(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("t", []Column{intCol("a")}, false); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if _, ok := c.Table("t"); !ok {
					t.Error("table vanished")
					return
				}
				c.TableNames()
			}
		}()
	}
	wg.Wait()
}

// TestVersionBumpsOnDDL: every successful DDL statement must advance the
// monotonic catalog version, and failed DDL must not.
func TestVersionBumpsOnDDL(t *testing.T) {
	c := New()
	v0 := c.Version()
	if _, err := c.CreateTable("t", []Column{intCol("a")}, false); err != nil {
		t.Fatal(err)
	}
	v1 := c.Version()
	if v1 <= v0 {
		t.Fatalf("CREATE TABLE did not bump version: %d -> %d", v0, v1)
	}
	// Failed DDL (duplicate) leaves the version alone.
	if _, err := c.CreateTable("t", []Column{intCol("a")}, false); err == nil {
		t.Fatal("duplicate CREATE TABLE must fail")
	}
	if c.Version() != v1 {
		t.Fatalf("failed DDL bumped version")
	}
	// IF NOT EXISTS no-op leaves the version alone.
	if _, err := c.CreateTable("t", []Column{intCol("a")}, true); err != nil {
		t.Fatal(err)
	}
	if c.Version() != v1 {
		t.Fatalf("no-op CREATE TABLE IF NOT EXISTS bumped version")
	}
	if err := c.Drop("t", false, false); err != nil {
		t.Fatal(err)
	}
	if c.Version() <= v1 {
		t.Fatalf("DROP did not bump version")
	}
	v2 := c.Version()
	c.Bump()
	if c.Version() != v2+1 {
		t.Fatalf("Bump did not advance version")
	}
}

// TestVersionConcurrentDDL: concurrent DDL plus version/name readers must
// be race-free, and the version must end up counting every successful DDL.
func TestVersionConcurrentDDL(t *testing.T) {
	c := New()
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				name := fmt.Sprintf("t_%d_%d", g, i)
				if _, err := c.CreateTable(name, []Column{intCol("a")}, false); err != nil {
					t.Errorf("create %s: %v", name, err)
				}
				c.Version()
				c.TableNames()
			}
		}(g)
	}
	wg.Wait()
	if got, want := c.Version(), uint64(4*perG); got != want {
		t.Fatalf("version = %d, want %d", got, want)
	}
}
