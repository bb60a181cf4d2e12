package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"perm/internal/qcache"
)

// TestExplainAnalyzeOverWire: permclient.ExplainAnalyze sends EXPLAIN
// ANALYZE as statement text, like any other statement, and joins the
// annotated report's rows into plan text; Exec of the same statement
// returns the rows themselves.
func TestExplainAnalyzeOverWire(t *testing.T) {
	db := paperDB(t)
	c := dial(t, startServer(t, db, 2))

	const q = `SELECT PROVENANCE name FROM shop WHERE numempl > 2 ORDER BY name`
	report, err := c.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(actual ", "Execution time: ", "Fingerprint: " + qcache.Fingerprint(q)} {
		if !strings.Contains(report, want) {
			t.Fatalf("wire report lacks %q:\n%s", want, report)
		}
	}
	// Exec of the same statement returns the annotations as rows.
	res, _, err := c.Exec("EXPLAIN ANALYZE " + q)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Rows) == 0 || res.Columns[0] != "plan" {
		t.Fatalf("dialect EXPLAIN ANALYZE returned no plan rows: %+v", res)
	}
}

// syncBuffer is a bytes.Buffer safe for the concurrent writes the server
// makes from connection handlers.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServerMetricsAndSlowLog drives requests through a server with the
// slow-query log armed at threshold zero and checks both telemetry
// surfaces: the JSON log lines (fingerprint, duration, rows, cache
// outcome) and the registered metric families.
func TestServerMetricsAndSlowLog(t *testing.T) {
	db := paperDB(t)
	srv := New(db, 2)
	var buf syncBuffer
	srv.SetSlowQueryLog(0, &buf) // threshold 0: log every statement

	reg := db.Metrics()
	srv.RegisterMetrics(reg)

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

	const q = `SELECT name FROM shop ORDER BY name`
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(q); err != nil { // second run: cache hit
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT broken FROM nowhere`); err == nil {
		t.Fatal("expected an error response")
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
		t.Fatalf("expected 3 slow-log entries, got %d: %s", len(entries), buf.String())
	}
	first, second, failed := entries[0], entries[1], entries[2]
	if first.Fingerprint != qcache.Fingerprint(q) || first.Fingerprint != second.Fingerprint {
		t.Fatalf("fingerprint mismatch: %q vs %q", first.Fingerprint, second.Fingerprint)
	}
	if first.CacheHit {
		t.Fatal("first execution logged as a cache hit")
	}
	if !second.CacheHit {
		t.Fatal("second execution not logged as a cache hit")
	}
	if first.Rows != 2 || second.Rows != 2 {
		t.Fatalf("row counts wrong: %d, %d", first.Rows, second.Rows)
	}
	if failed.Err == "" {
		t.Fatal("failed statement logged without err")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE perm_server_connections_total counter",
		"# TYPE perm_server_requests_total counter",
		"# TYPE perm_server_errors_total counter",
		"# TYPE perm_server_slow_queries_total counter",
		"# TYPE perm_query_duration_seconds histogram",
		"perm_query_duration_seconds_bucket{le=\"+Inf\"} 3",
		"perm_server_requests_total 3",
		"perm_server_errors_total 1",
		"perm_server_slow_queries_total 3",
		"perm_server_connections_active 1",
		"perm_server_draining 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, text)
		}
	}

	// parallelism is the worker count the session plans with, not the
	// raw option.
	for _, set := range []struct {
		value string
		want  int
	}{{"4", 4}, {"off", 1}} {
		if err := c.Set("parallelism", set.value); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var e slowEntry
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &e); err != nil {
			t.Fatal(err)
		}
		if e.Parallelism != set.want {
			t.Errorf("after SET parallelism = %s the slow log says parallelism %d, want %d", set.value, e.Parallelism, set.want)
		}
	}
}
