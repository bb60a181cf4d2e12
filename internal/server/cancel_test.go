package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"perm"
	"perm/internal/qcache"
	"perm/permclient"
)

// bigDB builds a ~65k-row table by repeated self-insertion: a cross
// join over it yields billions of pairs, far beyond what completes
// before a cancel lands.
func bigDB(t *testing.T, opts perm.Options) *perm.Database {
	t.Helper()
	db := perm.NewDatabaseWithOptions(opts)
	db.MustExec(`CREATE TABLE big (a int, b int)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO big VALUES `)
	for i := 0; i < 64; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%7)
	}
	db.MustExec(sb.String())
	for i := 0; i < 10; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO big SELECT a + %d, b FROM big`, 64<<i))
	}
	return db
}

// TestCancelOverWire runs a multi-second query on one connection,
// discovers its ID through perm_stat_activity on a second connection,
// cancels it over the wire, and checks the issuer gets a clean error
// while the server (and other sessions) keep working.
func TestCancelOverWire(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running cancellation test")
	}
	db := bigDB(t, perm.Options{})
	// workers=1: the long query occupies the only worker slot, so the
	// cancel only lands because PING/CANCEL bypass the pool.
	addr := startServer(t, db, 1)
	runner := dial(t, addr)
	admin := dial(t, addr)

	const longQuery = `SELECT count(*) FROM big a, big b WHERE a.b + b.b > 1`
	errc := make(chan error, 1)
	go func() {
		_, err := runner.Query(longQuery)
		errc <- err
	}()

	deadline := time.Now().Add(20 * time.Second)
	var id string
	for id == "" {
		if time.Now().After(deadline) {
			t.Fatal("long query never appeared in perm_stat_activity")
		}
		if err := admin.Ping(); err != nil { // liveness must bypass the saturated pool
			t.Fatalf("ping during long query: %v", err)
		}
		res, err := db.Query(`SELECT query_id, query FROM perm_stat_activity WHERE phase = 'execute'`)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			if row[1].String() == longQuery {
				id = row[0].String()
			}
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := admin.Cancel("q-does-not-exist"); err == nil {
		t.Fatal("cancelling an unknown ID must fail")
	}
	if err := admin.Cancel(id); err != nil {
		t.Fatalf("Cancel(%s): %v", id, err)
	}
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "cancelled") {
			t.Fatalf("cancelled query error = %v, want a cancellation error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled query did not return")
	}
	// The worker slot is free again and the connection is intact.
	res, err := runner.Query(`SELECT count(*) FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].String(); got != "65536" {
		t.Fatalf("post-cancel query = %s, want 65536", got)
	}
}

// TestSystemViewsOverWire: the introspection relations answer over the
// wire protocol like any other table.
func TestSystemViewsOverWire(t *testing.T) {
	db := paperDB(t)
	addr := startServer(t, db, 2)
	c := dial(t, addr)
	if _, err := c.Query(`SELECT name FROM shop`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(`SELECT query_id, phase, query FROM perm_stat_activity`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("perm_stat_activity over wire rows = %d, want 1 (the observer)", len(res.Rows))
	}
	res, err = c.Query(`SELECT calls FROM perm_stat_statements WHERE query = 'select name from shop'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "1" {
		t.Fatalf("perm_stat_statements over wire: %v", res.Rows)
	}
	res, err = c.Query(`SELECT value FROM perm_metrics WHERE name = 'perm_build_info'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("perm_metrics over wire rows = %d, want 1", len(res.Rows))
	}
}

// TestSlowLogQueryCorrelation: with tracing on, slow-log entries carry
// the engine query ID, fingerprint and phase span breakdown of the
// statement the request ran, correlating the log with perm_traces. A
// PREPARE runs no statement and carries none; an EXECUTE carries no SQL
// but is logged under its statement's fingerprint.
func TestSlowLogQueryCorrelation(t *testing.T) {
	db := paperDB(t).WithOptions(perm.Options{TraceSample: 1})
	srv := New(db, 2)
	var buf syncBuffer
	srv.SetSlowQueryLog(0, &buf)
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
		<-done
	})
	c := dial(t, ln.Addr().String())
	const q, prepared = `SELECT name FROM shop ORDER BY name`, `SELECT numempl FROM shop WHERE numempl > 2`
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare("p", prepared); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute("p"); err != nil {
		t.Fatal(err)
	}
	var entries []slowEntry
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e slowEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad slow-log line %q: %v", line, err)
		}
		entries = append(entries, e)
	}
	if len(entries) != 3 {
		t.Fatalf("want 3 slow-log entries (query, prepare, execute), got %d:\n%s", len(entries), buf.String())
	}
	e, prep, exec := entries[0], entries[1], entries[2]
	for _, entry := range []struct{ got, want string }{{e.Op, "SELECT"}, {prep.Op, "PREPARE"}, {exec.Op, "EXECUTE"}} {
		if entry.got != entry.want {
			t.Errorf("slow-log op %q, want the statement's kind %q", entry.got, entry.want)
		}
	}
	if !strings.HasPrefix(e.QueryID, "q") || e.Fingerprint != qcache.Fingerprint(q) {
		t.Fatalf("query entry: query_id %q fingerprint %q, want an engine query ID and %q", e.QueryID, e.Fingerprint, qcache.Fingerprint(q))
	}
	for _, phase := range []string{"parse=", "execute="} {
		if !strings.Contains(e.Spans, phase) {
			t.Fatalf("slow-log spans = %q, want %s", e.Spans, phase)
		}
	}
	if prep.QueryID != "" || prep.Fingerprint != "" || prep.Spans != "" {
		t.Fatalf("prepare entry carries a statement it did not run: %+v", prep)
	}
	if exec.QueryID == "" || exec.QueryID == e.QueryID || exec.Fingerprint != qcache.Fingerprint(prepared) {
		t.Fatalf("execute entry: query_id %q fingerprint %q, want a new query ID and %q", exec.QueryID, exec.Fingerprint, qcache.Fingerprint(prepared))
	}
	// The logged ID resolves in perm_traces.
	res, err := permclient.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close() //nolint:errcheck
	tr, err := res.Query(fmt.Sprintf(`SELECT count(*) FROM perm_traces WHERE query_id = '%s'`, e.QueryID))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Rows[0][0].String(); got == "0" {
		t.Fatalf("query %s from the slow log has no trace", e.QueryID)
	}
}
