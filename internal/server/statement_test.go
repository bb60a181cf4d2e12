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
	"perm/internal/fault"
)

// slowLogged runs each statement over one connection to a server over db
// whose slow-query log is armed at threshold zero, and returns the log's
// entries, one per statement.
func slowLogged(t *testing.T, db *perm.Database, stmts ...string) []slowEntry {
	t.Helper()
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
	for _, stmt := range stmts {
		if _, _, err := c.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	var entries []slowEntry
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e slowEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad slow-log line %q: %v", line, err)
		}
		entries = append(entries, e)
	}
	if len(entries) != len(stmts) {
		t.Fatalf("%d slow-log entries for %d statements:\n%s", len(entries), len(stmts), buf.String())
	}
	return entries
}

// TestSlowLogCacheHitOfTerminatedStatement: the slow log labels a
// statement's cache outcome by the text the session compiles, so a
// statement sent with its trailing semicolon is a hit the second time.
func TestSlowLogCacheHitOfTerminatedStatement(t *testing.T) {
	const q = "SELECT name FROM shop ORDER BY name;\n"
	entries := slowLogged(t, paperDB(t), q, q)
	if hits := []bool{entries[0].CacheHit, entries[1].CacheHit}; hits[0] || !hits[1] {
		t.Fatalf("cache_hit of a statement run twice = %v, want [false true]", hits)
	}
}

// TestSlowLogStatementFactsCacheHit: cache_hit says the statement ran a
// tree it did not compile. An EXECUTE runs the tree its PREPARE compiled,
// and EXPLAIN ANALYZE the one its cached SELECT left; the first EXECUTE
// after DML compiles afresh.
func TestSlowLogStatementFactsCacheHit(t *testing.T) {
	const q = `SELECT name FROM shop ORDER BY name`
	stmts := []struct {
		text string
		hit  bool
	}{
		{`PREPARE p AS SELECT name FROM shop WHERE numempl > 2`, false},
		{`EXECUTE p`, true},
		{q, false},
		{`EXPLAIN ANALYZE ` + q, true},
		{`INSERT INTO shop VALUES ('Aldi', 5)`, false},
		{`EXECUTE p`, false},
		{`EXECUTE p`, true},
	}
	var texts []string
	for _, s := range stmts {
		texts = append(texts, s.text)
	}
	for i, e := range slowLogged(t, paperDB(t), texts...) {
		if e.CacheHit != stmts[i].hit {
			t.Errorf("statement %d, %s: cache_hit %v, want %v", i, stmts[i].text, e.CacheHit, stmts[i].hit)
		}
	}
}

// TestSlowLogStatementFactsAfterSet: spilled_bytes and spill_events are
// the statement's own. Two spilling sorts log what each spilled; a SET
// after them, which runs no statement (and gives the session a new
// handle, with a new budget), logs no spill at all.
func TestSlowLogStatementFactsAfterSet(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: 64 << 10, SpillDir: t.TempDir()})
	db.MustExec(`CREATE TABLE big (a int, s text)`)
	for i := 0; i < 64; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO big VALUES (%d, 'val-%d')`, i, i%13))
	}
	for i := 0; i < 8; i++ { // 64 × 2^8 = 16384 rows
		db.MustExec(fmt.Sprintf(`INSERT INTO big SELECT a + %d, s FROM big`, 64<<i))
	}
	const sort = `SELECT a, s FROM big ORDER BY s, a`
	entries := slowLogged(t, db, sort, sort, `SET parallelism = 1`)
	for _, e := range entries[:2] {
		if e.SpilledBytes <= 0 || e.SpillEvents == 0 {
			t.Errorf("spilling sort logged spilled_bytes %d, spill_events %d", e.SpilledBytes, e.SpillEvents)
		}
	}
	if !fault.Enabled() && (entries[0].SpilledBytes != entries[1].SpilledBytes || entries[0].SpillEvents != entries[1].SpillEvents) {
		t.Errorf("the same sort logged %d/%d, then %d/%d spilled bytes/events", entries[0].SpilledBytes, entries[0].SpillEvents,
			entries[1].SpilledBytes, entries[1].SpillEvents)
	}
	if set := entries[2]; set.Op != "SET" || set.SpilledBytes != 0 || set.SpillEvents != 0 || set.CacheHit || set.QueryID != "" {
		t.Errorf("SET logged statement facts it does not have: %+v", set)
	}
}
