package session

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"perm"
)

func testDB(t *testing.T) *perm.Database {
	t.Helper()
	db := perm.NewDatabase()
	db.MustExec(`CREATE TABLE shop (name text, numempl int)`)
	db.MustExec(`INSERT INTO shop VALUES ('Merdies', 3)`)
	db.MustExec(`INSERT INTO shop VALUES ('Edeka', 7)`)
	db.MustExec(`INSERT INTO shop VALUES ('Spar', 1)`)
	return db
}

func TestPrepareExecuteDeallocate(t *testing.T) {
	s := New(testDB(t))
	if err := s.Prepare("big", `SELECT name FROM shop WHERE numempl > 2 ORDER BY name`); err != nil {
		t.Fatal(err)
	}
	res, err := s.Execute("big")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].String() != "Edeka" {
		t.Fatalf("unexpected result:\n%s", res)
	}
	// Prepared statements survive DML and see fresh data.
	if _, err := s.Exec(`INSERT INTO shop VALUES ('Aldi', 9)`); err != nil {
		t.Fatal(err)
	}
	res, err = s.Execute("big")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].String() != "Aldi" {
		t.Fatalf("prepared statement did not see committed insert:\n%s", res)
	}
	if got := s.Prepared(); len(got) != 1 || got[0] != "big" {
		t.Fatalf("Prepared() = %v", got)
	}
	if err := s.Deallocate("big"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("big"); err == nil {
		t.Fatal("EXECUTE after DEALLOCATE must fail")
	}
}

func TestPrepareSurvivesDDL(t *testing.T) {
	s := New(testDB(t))
	if err := s.Prepare("q", `SELECT count(*) FROM shop`); err != nil {
		t.Fatal(err)
	}
	// DDL on an unrelated table moves the catalog version; the statement
	// must recompile transparently.
	if _, err := s.Exec(`CREATE TABLE other (x int)`); err != nil {
		t.Fatal(err)
	}
	res, err := s.Execute("q")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("count = %s", res.Rows[0][0])
	}
}

func TestPrepareRejectsNonSelect(t *testing.T) {
	s := New(testDB(t))
	if err := s.Prepare("bad", `INSERT INTO shop VALUES ('X', 1)`); err == nil {
		t.Fatal("PREPARE of DML must fail")
	}
	if err := s.Prepare("bad", `SELECT name FROM shop INTO copied`); err == nil {
		t.Fatal("PREPARE of SELECT INTO must fail")
	}
}

func TestPortals(t *testing.T) {
	s := New(testDB(t))
	if err := s.Prepare("all", `SELECT name FROM shop ORDER BY name`); err != nil {
		t.Fatal(err)
	}
	if err := s.OpenPortal("c1", "all"); err != nil {
		t.Fatal(err)
	}
	cols, err := s.PortalColumns("c1")
	if err != nil || len(cols) != 1 || cols[0] != "name" {
		t.Fatalf("PortalColumns = %v, %v", cols, err)
	}
	batch, err := s.FetchPortal("c1", 2)
	if err != nil || len(batch) != 2 {
		t.Fatalf("first fetch = %d rows, %v", len(batch), err)
	}
	if batch[0][0].String() != "Edeka" || batch[1][0].String() != "Merdies" {
		t.Fatalf("unexpected batch: %v %v", batch[0][0], batch[1][0])
	}
	// The portal's snapshot was taken at open: DML must not affect it.
	if _, err := s.Exec(`INSERT INTO shop VALUES ('Aldi', 9)`); err != nil {
		t.Fatal(err)
	}
	batch, err = s.FetchPortal("c1", 10)
	if err != nil || len(batch) != 1 || batch[0][0].String() != "Spar" {
		t.Fatalf("second fetch = %v, %v", batch, err)
	}
	batch, err = s.FetchPortal("c1", 10)
	if err != nil || len(batch) != 0 {
		t.Fatalf("exhausted portal returned %d rows, %v", len(batch), err)
	}
	if err := s.ClosePortal("c1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FetchPortal("c1", 1); err == nil {
		t.Fatal("fetch from closed portal must fail")
	}
}

func TestSetOption(t *testing.T) {
	s := New(testDB(t))
	if err := s.Prepare("q", `SELECT PROVENANCE name FROM shop`); err != nil {
		t.Fatal(err)
	}
	if err := s.SetOption("disable_vectorized", "on"); err != nil {
		t.Fatal(err)
	}
	if !s.DB().Opts().DisableVectorized {
		t.Fatal("option did not stick")
	}
	// Prepared statements keep working (re-prepared under new options).
	if _, err := s.Execute("q"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetOption("nonsense", "on"); err == nil {
		t.Fatal("unknown option must fail")
	}
	if err := s.SetOption("disable_optimizer", "maybe"); err == nil {
		t.Fatal("bad boolean must fail")
	}
}

func TestSetParallelism(t *testing.T) {
	base := testDB(t)
	s := New(base.WithOptions(func() perm.Options { o := base.Opts(); o.Parallelism = 3; return o }()))
	if err := s.Prepare("q", `SELECT name FROM shop ORDER BY name`); err != nil {
		t.Fatal(err)
	}
	if err := s.SetOption("parallelism", "2"); err != nil {
		t.Fatal(err)
	}
	if got := s.DB().Opts().Parallelism; got != 2 {
		t.Fatalf("Parallelism = %d, want 2", got)
	}
	// Prepared statements keep working under the new worker count.
	if _, err := s.Execute("q"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetOption("parallelism", "off"); err != nil {
		t.Fatal(err)
	}
	if got := s.DB().Opts().Parallelism; got != -1 {
		t.Fatalf("Parallelism after off = %d, want -1", got)
	}
	// 0 restores the server-configured base, not "defer to environment".
	if err := s.SetOption("parallelism", "0"); err != nil {
		t.Fatal(err)
	}
	if got := s.DB().Opts().Parallelism; got != 3 {
		t.Fatalf("Parallelism after reset = %d, want base 3", got)
	}
	if err := s.SetOption("parallelism", "lots"); err == nil {
		t.Fatal("non-integer parallelism must fail")
	}
	if err := s.SetOption("parallelism", "-2"); err == nil {
		t.Fatal("negative parallelism must fail")
	}
}

// TestSetOptionConcurrentPrepare is the -race regression gate for
// SetOption's re-prepare pass: it must never iterate the live prepared
// map while a concurrent Prepare/Deallocate mutates it.
func TestSetOptionConcurrentPrepare(t *testing.T) {
	s := New(testDB(t))
	if err := s.Prepare("base", `SELECT PROVENANCE name FROM shop`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := s.SetOption("disable_vectorized", []string{"on", "off"}[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			name := fmt.Sprintf("p%d", i)
			if err := s.Prepare(name, `SELECT name FROM shop`); err != nil {
				t.Error(err)
				return
			}
			if err := s.Deallocate(name); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	// The long-lived statement survived the churn and honours the final
	// options.
	if _, err := s.Execute("base"); err != nil {
		t.Fatal(err)
	}
}

func TestSessionIsolation(t *testing.T) {
	// Options set in one session must not leak into another sharing the
	// same database.
	db := testDB(t)
	s1, s2 := New(db), New(db)
	if err := s1.SetOption("disable_optimizer", "on"); err != nil {
		t.Fatal(err)
	}
	if s2.DB().Opts().DisableOptimizer {
		t.Fatal("session option leaked across sessions")
	}
	if err := s1.Prepare("mine", `SELECT 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Execute("mine"); err == nil {
		t.Fatal("prepared statements must be session-private")
	}
}

func TestRunDialect(t *testing.T) {
	s := New(testDB(t))
	out, err := s.Run(`PREPARE p AS SELECT PROVENANCE name FROM shop WHERE numempl = 3;`)
	if err != nil || out.Tag != "PREPARE" {
		t.Fatalf("PREPARE: %v %v", out, err)
	}
	out, err = s.Run(`EXECUTE p`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Result.Rows) != 1 || out.Result.NumProvColumns() != 2 {
		t.Fatalf("EXECUTE result wrong:\n%s", out.Result)
	}
	out, err = s.Run(`SET disable_vectorized = on`)
	if err != nil || out.Tag != "SET" {
		t.Fatalf("SET: %v %v", out, err)
	}
	out, err = s.Run(`EXECUTE p`)
	if err != nil || len(out.Result.Rows) != 1 {
		t.Fatalf("EXECUTE after SET: %v %v", out, err)
	}
	out, err = s.Run(`DEALLOCATE p`)
	if err != nil || out.Tag != "DEALLOCATE" {
		t.Fatalf("DEALLOCATE: %v %v", out, err)
	}
	out, err = s.Run(`INSERT INTO shop VALUES ('Lidl', 4)`)
	if err != nil || out.Affected != 1 {
		t.Fatalf("INSERT: %v %v", out, err)
	}
	out, err = s.Run(`SELECT count(*) FROM shop`)
	if err != nil || out.Result.Rows[0][0].Int() != 4 {
		t.Fatalf("SELECT: %v %v", out, err)
	}
	if _, err := s.Run(`EXECUTE nope`); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("EXECUTE unknown: %v", err)
	}
	if _, err := s.Run(`PREPARE broken AS`); err == nil {
		t.Fatal("malformed PREPARE must fail")
	}
	// The usage of a malformed SET admits valued options, not on|off only.
	if _, err := s.Run(`SET parallelism`); err == nil || !strings.Contains(err.Error(), "usage: SET") || strings.Contains(err.Error(), "on|off") {
		t.Errorf("malformed SET: usage = %v, want one that admits valued options", err)
	}
}
