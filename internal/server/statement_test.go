package server

import (
	"context"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"
)

// TestSlowLogCacheHitOfTerminatedStatement: the slow log labels a
// statement's cache outcome by the text the session compiles, so a
// statement sent with its trailing semicolon is a hit the second time.
func TestSlowLogCacheHitOfTerminatedStatement(t *testing.T) {
	srv := New(paperDB(t), 2)
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
	for i := 0; i < 2; i++ {
		if _, err := c.Query("SELECT name FROM shop ORDER BY name;\n"); err != nil {
			t.Fatal(err)
		}
	}
	var hits []bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e slowEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad slow-log line %q: %v", line, err)
		}
		hits = append(hits, e.CacheHit)
	}
	if len(hits) != 2 || hits[0] || !hits[1] {
		t.Fatalf("cache_hit of a statement run twice = %v, want [false true]", hits)
	}
}
