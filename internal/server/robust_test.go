package server

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"perm"
	"perm/internal/fault"
	"perm/internal/obs"
	"perm/internal/wire"
	"perm/permclient"
)

// leakCheck snapshots the goroutine count and fails the test if more
// goroutines are still alive at cleanup time (after a settling grace
// period). Register it before startServer so the LIFO cleanup order
// runs it after the server has shut down.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d at start, %d at cleanup\n%s",
					before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// startConfigured is startServer for tests that need the pre-Serve
// setters: configure runs between New and Serve.
func startConfigured(t *testing.T, db *perm.Database, workers int, configure func(*Server)) (srv *Server, addr string) {
	t.Helper()
	leakCheck(t)
	srv = New(db, workers)
	configure(srv)
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
	return srv, ln.Addr().String()
}

func mustInjector(t *testing.T, spec string) *fault.Injector {
	t.Helper()
	inj, err := fault.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestAdmissionQueueSheds: with one worker and a queue depth of one,
// a burst of statements must split into bounded admission (the two
// slots) plus fast, machine-readable, retryable "overloaded"
// rejections — and the server must keep serving afterwards.
func TestAdmissionQueueSheds(t *testing.T) {
	db := bigDB(t, perm.Options{})
	_, addr := startConfigured(t, db, 1, func(s *Server) { s.SetQueueDepth(1) })

	// A query that never completes on its own: admitted statements pin
	// their slot until cancelled, so the split between admitted and shed
	// is deterministic — exactly workers + queue = 2 admitted.
	const longQuery = `SELECT count(*) FROM big a, big b WHERE a.b + b.b > 1`
	shedBefore := obs.ConnsShed.Load()
	const clients = 8
	results := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			c, err := permclient.Dial(addr)
			if err != nil {
				results <- err
				return
			}
			defer c.Close() //nolint:errcheck
			_, err = c.Query(longQuery)
			results <- err
		}()
	}

	// The six arrivals past the admission capacity are shed immediately.
	var shed int
	for shed < clients-2 {
		select {
		case err := <-results:
			var se *permclient.Error
			if !errors.As(err, &se) {
				t.Fatalf("shed request got an unstructured error: %v", err)
			}
			if se.Code != wire.CodeOverloaded || !se.Retryable() {
				t.Fatalf("shed request: code = %q retryable = %v, want retryable %q",
					se.Code, se.Retryable(), wire.CodeOverloaded)
			}
			shed++
		case <-time.After(20 * time.Second):
			t.Fatalf("only %d of %d over-capacity requests were shed", shed, clients-2)
		}
	}
	if obs.ConnsShed.Load() == shedBefore {
		t.Fatal("shed requests not counted in obs.ConnsShed")
	}

	// Unpin the two admitted statements: cancel whatever is executing
	// until both issuers have returned (the queued one starts executing
	// once the first is cancelled).
	admitted := 0
	deadline := time.Now().Add(30 * time.Second)
	for admitted < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 2 admitted statements returned", admitted)
		}
		res, err := db.Query(`SELECT query_id, query FROM perm_stat_activity WHERE phase = 'execute'`)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			if row[1].String() == longQuery {
				db.Cancel(row[0].String()) //nolint:errcheck — may have just finished
			}
		}
		select {
		case err := <-results:
			if err == nil || !strings.Contains(err.Error(), "cancelled") {
				t.Fatalf("admitted statement error = %v, want a cancellation error", err)
			}
			admitted++
		case <-time.After(2 * time.Millisecond):
		}
	}

	// The pool is drained; the server accepts and executes new work.
	c := dial(t, addr)
	res, err := c.Query(`SELECT count(*) FROM big`)
	if err != nil || res.Rows[0][0].String() != "65536" {
		t.Fatalf("server unusable after shedding: %v %v", res, err)
	}
}

// TestDrainingRequestsGetRetryableError: a request arriving on an
// established connection after Shutdown starts must get a structured
// retryable "draining" error frame, not a dropped socket.
func TestDrainingRequestsGetRetryableError(t *testing.T) {
	leakCheck(t)
	db := bigDB(t, perm.Options{})
	srv := New(db, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	runner := dial(t, addr)
	bystander := dial(t, addr)
	if err := bystander.Ping(); err != nil {
		t.Fatal(err)
	}

	// A multi-second query holds the drain open.
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

	shutdownErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// The bystander's connection is still open; its request must be
	// answered with the draining code, unexecuted.
	err = bystander.Ping()
	var se *permclient.Error
	if !errors.As(err, &se) {
		t.Fatalf("drain-time request: err = %v, want a structured server error", err)
	}
	if se.Code != wire.CodeDraining || !se.Retryable() {
		t.Fatalf("drain-time request: code = %q retryable = %v, want retryable %q",
			se.Code, se.Retryable(), wire.CodeDraining)
	}

	// Release the drain: cancel the long query and collect everything.
	if err := db.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("drained query error = %v, want a cancellation error", err)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v after graceful shutdown", err)
	}
}

// TestDispatchPanicIsolation: a statement that panics inside the engine
// must come back as a structured "internal" wire error with the
// connection, its session, and the server all intact.
func TestDispatchPanicIsolation(t *testing.T) {
	leakCheck(t)
	db := paperDB(t)
	addr := startServer(t, db, 2)
	c := dial(t, addr)

	restore := fault.Set(mustInjector(t, "server.dispatch:1"))
	defer restore()
	before := obs.PanicsRecovered.Load()
	_, err := c.Query(`SELECT name FROM shop`)
	var se *permclient.Error
	if !errors.As(err, &se) {
		t.Fatalf("panicking statement: err = %v, want a structured server error", err)
	}
	if se.Code != wire.CodeInternal || !strings.Contains(se.Msg, "panicked") {
		t.Fatalf("panicking statement: code = %q msg = %q, want %q with a panic message",
			se.Code, se.Msg, wire.CodeInternal)
	}
	if se.Retryable() {
		t.Fatal("internal errors must not be marked retryable")
	}
	if obs.PanicsRecovered.Load() <= before {
		t.Fatal("recovered panic not counted")
	}
	// Same connection, same session: the next statement succeeds.
	res, err := c.Query(`SELECT count(*) FROM shop`)
	if err != nil || res.Rows[0][0].String() != "2" {
		t.Fatalf("connection dead after recovered panic: %v %v", res, err)
	}
}

// TestMaxConnectionsRefusal: a connection over the limit has its first
// request answered with a retryable "overloaded" error; existing
// connections are untouched, and closing one frees the slot.
func TestMaxConnectionsRefusal(t *testing.T) {
	db := paperDB(t)
	_, addr := startConfigured(t, db, 2, func(s *Server) { s.SetMaxConnections(1) })

	c1 := dial(t, addr)
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	c2, err := permclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close() //nolint:errcheck
	err = c2.Ping()
	var se *permclient.Error
	if !errors.As(err, &se) {
		t.Fatalf("over-limit connection: err = %v, want a structured refusal", err)
	}
	if se.Code != wire.CodeOverloaded || !se.Retryable() {
		t.Fatalf("over-limit connection: code = %q retryable = %v, want retryable %q",
			se.Code, se.Retryable(), wire.CodeOverloaded)
	}
	if err := c1.Ping(); err != nil {
		t.Fatalf("admitted connection broken by a refusal: %v", err)
	}
	// Freeing the slot admits the next connection.
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := permclient.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		err = c3.Ping()
		c3.Close() //nolint:errcheck
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after close: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIdleTimeoutClosesConnection: a connection idle past the deadline
// is closed; new connections are unaffected.
func TestIdleTimeoutClosesConnection(t *testing.T) {
	db := paperDB(t)
	_, addr := startConfigured(t, db, 2, func(s *Server) { s.SetIdleTimeout(150 * time.Millisecond) })

	c, err := permclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := c.Ping(); err == nil {
		t.Fatal("connection survived idling past the deadline")
	}
	c2 := dial(t, addr)
	if err := c2.Ping(); err != nil {
		t.Fatalf("fresh connection after an idle close: %v", err)
	}
}

// TestConnDropClientRetry: the server dying mid-response-frame (fault
// tap conn.drop) leaves the client's connection desynced; a client
// configured with retries must redial and transparently re-run the
// idempotent request, returning the same result a healthy server gives.
func TestConnDropClientRetry(t *testing.T) {
	leakCheck(t)
	db := paperDB(t)
	addr := startServer(t, db, 2)
	c, err := permclient.DialConfig(addr, permclient.Config{
		MaxRetries: 2,
		RetryBase:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	const query = `SELECT name, numempl FROM shop ORDER BY name`
	want := db.MustQuery(query)
	restore := fault.Set(mustInjector(t, "conn.drop:1"))
	defer restore()
	retriesBefore := obs.ClientRetries.Load()
	got, err := c.Query(query)
	if err != nil {
		t.Fatalf("query across a dropped connection: %v", err)
	}
	if got.String() != want.String() {
		t.Fatalf("retried query diverges:\nremote:\n%s\nlocal:\n%s", got, want)
	}
	if obs.ClientRetries.Load() <= retriesBefore {
		t.Fatal("redial retry not counted in obs.ClientRetries")
	}

	// Without retries the same fault surfaces as a hard error.
	restore2 := fault.Set(mustInjector(t, "conn.drop:1"))
	defer restore2()
	c0, err := permclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close() //nolint:errcheck
	if _, err := c0.Query(query); err == nil {
		t.Fatal("dropped connection with retries disabled returned no error")
	}
}

// TestConnDropRetriesByStatement: whether a request whose response was
// lost is re-sent depends on what its statement does, not on the client
// method that sent it. A write sent through Query runs once and surfaces
// the network error; a read sent through Exec is retried like a Query.
func TestConnDropRetriesByStatement(t *testing.T) {
	leakCheck(t)
	db := paperDB(t)
	db.MustExec(`CREATE TABLE zz (x int)`)
	addr := startServer(t, db, 2)
	// dropOnce sends one request through a fresh retrying client while
	// the server drops the connection under its first response.
	dropOnce := func(send func(c *permclient.Client) error) error {
		t.Helper()
		c, err := permclient.DialConfig(addr, permclient.Config{MaxRetries: 2, RetryBase: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close() //nolint:errcheck
		restore := fault.Set(mustInjector(t, "conn.drop:1"))
		defer restore()
		return send(c)
	}
	rows := func(table string) int {
		t.Helper()
		n, err := db.TableRowCount(table)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	err := dropOnce(func(c *permclient.Client) error {
		_, err := c.Query(`INSERT INTO zz VALUES (1)`)
		return err
	})
	if err == nil {
		t.Fatal("INSERT across a dropped connection reported success")
	}
	if n := rows("zz"); n != 1 {
		t.Fatalf("INSERT through Query across a dropped connection left %d rows, want 1", n)
	}

	err = dropOnce(func(c *permclient.Client) error {
		_, err := c.Query(`SELECT name INTO zz_copy FROM shop`)
		return err
	})
	var se *permclient.Error
	if err == nil || errors.As(err, &se) {
		t.Fatalf("SELECT INTO across a dropped connection: %v, want the network error", err)
	}
	if n := rows("zz_copy"); n != 2 {
		t.Fatalf("SELECT INTO made a table of %d rows, want 2", n)
	}

	const query = `SELECT name, numempl FROM shop ORDER BY name`
	want := db.MustQuery(query)
	retriesBefore := obs.ClientRetries.Load()
	var got *perm.Result
	err = dropOnce(func(c *permclient.Client) (err error) {
		got, _, err = c.Exec(query)
		return err
	})
	if err != nil {
		t.Fatalf("read through Exec across a dropped connection: %v", err)
	}
	if got == nil || got.String() != want.String() {
		t.Fatalf("retried Exec diverges:\nremote:\n%s\nlocal:\n%s", got, want)
	}
	if obs.ClientRetries.Load() <= retriesBefore {
		t.Fatal("Exec of a read was not retried")
	}
}
