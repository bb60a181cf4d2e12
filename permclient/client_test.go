package permclient

import (
	"context"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"perm"
	"perm/internal/server"
	"perm/internal/tpch"
	"perm/internal/types"
	"perm/internal/wire"
)

// serve runs an in-process server over db and returns it with a
// connected client; t cleans both up.
func serve(t *testing.T, db *perm.Database) (*server.Server, *Client) {
	t.Helper()
	srv := server.New(db, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	return srv, c
}

func shopDB() *perm.Database {
	db := perm.NewDatabase()
	db.MustExec(`CREATE TABLE shop (name text, numempl int, opened date, rating double, open boolean)`)
	db.MustExec(`INSERT INTO shop VALUES ('Merdies', 3, DATE '1999-01-31', 4.5, true);
		INSERT INTO shop VALUES ('Edeka', 7, NULL, NULL, false);
		INSERT INTO shop VALUES ('', NULL, DATE '2004-02-29', 1e308, NULL)`)
	return db
}

// same fails unless a remote result equals the embedded one value for
// value (types.Identical: kind, null, payload bits, string bytes) and
// renders the same.
func same(t *testing.T, what string, got, want *perm.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.ProvColumns, want.ProvColumns) ||
		!identicalRows(got.RawRows(), want.RawRows()) || (got.Rows == nil) != (want.Rows == nil) ||
		got.String() != want.String() {
		t.Fatalf("%s: remote\n%s\nembedded\n%s", what, got, want)
	}
}

// identicalRows reports whether two row sets hold identical values in
// the same shape.
func identicalRows(a, b [][]types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) || (a[i] == nil) != (b[i] == nil) {
			return false
		}
		for j := range a[i] {
			if !types.Identical(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

func TestRoundTripsEqualEmbedded(t *testing.T) {
	db := shopDB()
	_, c := serve(t, db)
	for _, q := range []string{
		`SELECT * FROM shop ORDER BY name`,
		`SELECT PROVENANCE name, numempl FROM shop WHERE numempl > 2 ORDER BY name`,
		`SELECT PROVENANCE count(*) AS n, sum(rating) AS r FROM shop`,
		`SELECT rating * 10 AS inf, opened + INTERVAL '1' MONTH AS later FROM shop ORDER BY name`,
	} {
		want, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := c.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		same(t, "Query "+q, got, want)

		res, affected, err := c.Exec(q)
		if err != nil || affected != 0 {
			t.Fatalf("Exec %s: %d affected, %v", q, affected, err)
		}
		same(t, "Exec "+q, res, want)

		if err := c.Prepare("p", q); err != nil {
			t.Fatalf("Prepare %s: %v", q, err)
		}
		for i := 0; i < 2; i++ {
			got, err := c.Execute("p")
			if err != nil {
				t.Fatalf("Execute %s: %v", q, err)
			}
			same(t, "Execute "+q, got, want)
		}
	}
	plan, err := c.Explain(`SELECT name FROM shop`)
	if want, _ := db.ExplainSQL(`SELECT name FROM shop`); err != nil || plan != want || plan == "" {
		t.Fatalf("Explain: %q, %v; embedded %q", plan, err, want)
	}
}

// TestZeroRowsAndAffectedCounts: a SELECT without rows still has its
// columns, which is also what tells it from a statement that only
// reports how many rows it touched.
func TestZeroRowsAndAffectedCounts(t *testing.T) {
	db := shopDB()
	_, c := serve(t, db)

	const empty = `SELECT PROVENANCE name, numempl FROM shop WHERE numempl > 100`
	want, err := db.Query(empty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 0 || !reflect.DeepEqual(got.Columns, want.Columns) ||
		!reflect.DeepEqual(got.ProvColumns, want.ProvColumns) || got.String() != want.String() {
		t.Fatalf("zero-row Query: remote\n%s\nembedded\n%s", got, want)
	}
	res, affected, err := c.Exec(empty)
	if err != nil || res == nil || affected != 0 || !reflect.DeepEqual(res.Columns, want.Columns) {
		t.Fatalf("zero-row SELECT by Exec: %v, %d affected, %v", res, affected, err)
	}
	for _, stmt := range []struct {
		sql      string
		affected int
	}{
		{`DELETE FROM shop WHERE numempl > 100`, 0},
		{`INSERT INTO shop VALUES ('Aldi', 9, NULL, NULL, true)`, 1},
		{`DELETE FROM shop WHERE numempl > 2`, 3},
	} {
		res, affected, err := c.Exec(stmt.sql)
		if err != nil || res != nil || affected != stmt.affected {
			t.Fatalf("%s: result %v, %d affected, %v; want no result and %d", stmt.sql, res, affected, err, stmt.affected)
		}
	}
}

// TestErrorCodeSurvives: the machine-readable code of an error frame
// reaches the caller, and an engine error without one stays code-less.
func TestErrorCodeSurvives(t *testing.T) {
	srv, c := serve(t, shopDB())

	_, err := c.Query(`SELECT nothing FROM nowhere`)
	var se *Error
	if !errors.As(err, &se) || se.Code != "" || se.Msg == "" || se.Retryable() {
		t.Fatalf("plain engine error: %#v", err)
	}
	if err := c.Set("statement_timeout", "1ms"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(`SELECT count(*) FROM shop a, shop b, shop c, shop d, shop e, shop f, shop g, shop h, shop i, shop j, shop k`)
	if !errors.As(err, &se) || se.Code != wire.CodeTimeout || se.Retryable() {
		t.Fatalf("want code %q, got %#v", wire.CodeTimeout, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after an error frame: %v", err)
	}

	// A draining server answers with a retryable code.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go srv.Shutdown(ctx) //nolint:errcheck — the cleanup of serve reports it
	for i := 0; i < 1000; i++ {
		if err = c.Ping(); err != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if errors.As(err, &se) && (se.Code != wire.CodeDraining || !se.Retryable()) {
		t.Fatalf("draining server answered %#v", se)
	}
}

// TestQ10ProvenanceBytesPerValue: Fig. 10 Q10 as q+ — the widest reply
// of the wire workload — crosses the wire equal to embedded and takes at
// most 16 bytes per value in its frame.
func TestQ10ProvenanceBytesPerValue(t *testing.T) {
	db := perm.NewDatabase()
	tpch.MustLoad(db, 0.002, 42)
	_, c := serve(t, db)

	q := tpch.MustQGen(10, tpch.NewRand(1)).Provenance().Text
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	same(t, "Q10 q+", got, want)

	frame, err := wire.Encode(&wire.Response{OK: true, Columns: want.Columns, Prov: want.ProvColumns, Rows: want.RawRows()})
	if err != nil {
		t.Fatal(err)
	}
	values := len(want.Rows) * len(want.Columns)
	if values < 1000 || want.NumProvColumns() == 0 {
		t.Fatalf("Q10 q+ returned %d values, %d provenance columns", values, want.NumProvColumns())
	}
	if per := float64(len(frame)) / float64(values); per > 16 {
		t.Fatalf("%d bytes for %d values: %.1f per value, want at most 16", len(frame), values, per)
	}
}
