package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"perm"
	"perm/internal/wire"
	"perm/permclient"
)

// startServer runs a server over db on a random port and returns a
// connected client plus the address. Everything is cleaned up by t,
// including a goroutine-leak check that runs after the shutdown.
func startServer(t *testing.T, db *perm.Database, workers int) (addr string) {
	t.Helper()
	leakCheck(t)
	srv := New(db, workers)
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
	return ln.Addr().String()
}

func dial(t *testing.T, addr string) *permclient.Client {
	t.Helper()
	c, err := permclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	return c
}

func paperDB(t *testing.T) *perm.Database {
	t.Helper()
	db := perm.NewDatabase()
	db.MustExec(`CREATE TABLE shop (name text, numempl int)`)
	db.MustExec(`CREATE TABLE sales (sname text, itemid int)`)
	db.MustExec(`INSERT INTO shop VALUES ('Merdies', 3); INSERT INTO shop VALUES ('Edeka', 7)`)
	db.MustExec(`INSERT INTO sales VALUES ('Merdies', 1); INSERT INTO sales VALUES ('Merdies', 2); INSERT INTO sales VALUES ('Edeka', 1)`)
	return db
}

// TestQueryRoundTripByteIdentical: a remote query must render exactly as
// the embedded database renders it, provenance markers included.
func TestQueryRoundTripByteIdentical(t *testing.T) {
	db := paperDB(t)
	c := dial(t, startServer(t, db, 4))

	queries := []string{
		`SELECT name, numempl FROM shop ORDER BY name`,
		`SELECT PROVENANCE name FROM shop WHERE numempl > 2 ORDER BY name`,
		`SELECT PROVENANCE s.name, count(*) AS cnt FROM shop s, sales sa WHERE s.name = sa.sname GROUP BY s.name ORDER BY s.name`,
		`SELECT name FROM shop UNION SELECT sname FROM sales ORDER BY name`,
	}
	for _, q := range queries {
		want, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := c.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s:\nremote:\n%s\nlocal:\n%s", q, got, want)
		}
		if got.NumProvColumns() != want.NumProvColumns() {
			t.Errorf("%s: prov columns %d != %d", q, got.NumProvColumns(), want.NumProvColumns())
		}
	}
}

func TestExecAndErrors(t *testing.T) {
	c := dial(t, startServer(t, paperDB(t), 2))

	if _, n, err := c.Exec(`INSERT INTO shop VALUES ('Spar', 1)`); err != nil || n != 1 {
		t.Fatalf("INSERT: n=%d err=%v", n, err)
	}
	res, err := c.Query(`SELECT count(*) FROM shop`)
	if err != nil || res.Rows[0][0].Int() != 3 {
		t.Fatalf("count: %v %v", res, err)
	}
	// Errors must come back as errors, with the connection still usable.
	if _, err := c.Query(`SELECT nope FROM shop`); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("bad query error: %v", err)
	}
	if _, _, err := c.Exec(`DROP TABLE missing`); err == nil {
		t.Fatal("bad exec must fail")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after errors: %v", err)
	}
}

// TestNonFiniteFloatsOverWire: a double overflow yields +Inf, which the
// frame carries as its IEEE bits and the client renders as embedded does.
func TestNonFiniteFloatsOverWire(t *testing.T) {
	db := perm.NewDatabase()
	db.MustExec(`CREATE TABLE d (x double); INSERT INTO d VALUES (1e308)`)
	c := dial(t, startServer(t, db, 2))

	const q = `SELECT x * 10, -x * 10 FROM d`
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Rows[0][0].Float(), 1) || !math.IsInf(got.Rows[0][1].Float(), -1) {
		t.Fatalf("want +Inf and -Inf, got %v", got.Rows[0])
	}
	if got.String() != want.String() {
		t.Fatalf("remote renders\n%s\nembedded renders\n%s", got, want)
	}
}

// TestUnencodableResultKeepsConnection: a result that does not fit one
// frame (here 65 rows sharing one 1 MiB string, against wire.MaxFrame of
// 64 MiB) must come back as a structured, non-retryable error response,
// not kill the connection and its session.
func TestUnencodableResultKeepsConnection(t *testing.T) {
	db := perm.NewDatabase()
	db.MustExec(`CREATE TABLE big (s text); CREATE TABLE n (i int)`)
	db.MustExec(`INSERT INTO big VALUES ('` + strings.Repeat("x", 1<<20) + `')`)
	for i := 0; i < 65; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO n VALUES (%d)`, i))
	}
	c := dial(t, startServer(t, db, 2))

	_, err := c.Query(`SELECT s FROM big, n`)
	var se *permclient.Error
	if !errors.As(err, &se) || se.Code != wire.CodeTooLarge || se.Retryable() {
		t.Fatalf("want a non-retryable %s error, got %v", wire.CodeTooLarge, err)
	}
	// The message names the size and the limit.
	for _, part := range []string{"65 rows", " bytes", fmt.Sprint(wire.MaxFrame)} {
		if !strings.Contains(se.Msg, part) {
			t.Fatalf("error %q does not name %q", se.Msg, part)
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after encode failure: %v", err)
	}
	if res, err := c.Query(`SELECT count(*) FROM n`); err != nil || res.Rows[0][0].Int() != 65 {
		t.Fatalf("session dead after encode failure: %v %v", res, err)
	}
}

func TestPrepareExecuteOverWire(t *testing.T) {
	c := dial(t, startServer(t, paperDB(t), 2))

	if err := c.Prepare("hot", `SELECT PROVENANCE name FROM shop ORDER BY name`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := c.Execute("hot")
		if err != nil || len(res.Rows) != 2 {
			t.Fatalf("execute %d: %v %v", i, res, err)
		}
	}
	// DDL between executions: the statement must recompile, not fail.
	if _, _, err := c.Exec(`CREATE TABLE extra (x int)`); err != nil {
		t.Fatal(err)
	}
	if res, err := c.Execute("hot"); err != nil || len(res.Rows) != 2 {
		t.Fatalf("execute after DDL: %v %v", res, err)
	}
	if _, err := c.Execute("never-prepared"); err == nil {
		t.Fatal("unknown prepared name must fail")
	}
}

func TestSessionsAreIsolated(t *testing.T) {
	addr := startServer(t, paperDB(t), 4)
	c1, c2 := dial(t, addr), dial(t, addr)

	if err := c1.Prepare("mine", `SELECT 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Execute("mine"); err == nil {
		t.Fatal("prepared statement leaked across connections")
	}
	// Session options are isolated too, but the data is shared.
	if err := c1.Set("disable_vectorized", "on"); err != nil {
		t.Fatal(err)
	}
	if _, n, err := c1.Exec(`INSERT INTO shop VALUES ('Shared', 2)`); err != nil || n != 1 {
		t.Fatalf("insert: %v", err)
	}
	res, err := c2.Query(`SELECT count(*) FROM shop`)
	if err != nil || res.Rows[0][0].Int() != 3 {
		t.Fatalf("shared data not visible: %v %v", res, err)
	}
}

func TestExplainAndDialect(t *testing.T) {
	c := dial(t, startServer(t, paperDB(t), 2))

	plan, err := c.Explain(`SELECT name FROM shop WHERE numempl > 2`)
	if err != nil || plan == "" {
		t.Fatalf("explain: %q %v", plan, err)
	}
	// The service dialect works through EXEC.
	if _, _, err := c.Exec(`PREPARE p AS SELECT name FROM shop ORDER BY name`); err != nil {
		t.Fatal(err)
	}
	res, _, err := c.Exec(`EXECUTE p`)
	if err != nil || res == nil || len(res.Rows) != 2 {
		t.Fatalf("dialect EXECUTE: %v %v", res, err)
	}
	if _, _, err := c.Exec(`SET disable_optimizer = on`); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentClients hammers one server from many connections mixing
// reads, writes and prepared statements. Run under -race this is the
// end-to-end concurrency gate for the service.
func TestConcurrentClients(t *testing.T) {
	db := paperDB(t)
	addr := startServer(t, db, 4)

	const clients = 8
	const iters = 30
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := permclient.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close() //nolint:errcheck
			stmt := fmt.Sprintf("s%d", g)
			if err := c.Prepare(stmt, `SELECT PROVENANCE name FROM shop WHERE numempl >= 0`); err != nil {
				t.Error(err)
				return
			}
			table := fmt.Sprintf("scratch_%d", g)
			if _, _, err := c.Exec(fmt.Sprintf(`CREATE TABLE %s (x int)`, table)); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0:
					if _, err := c.Query(`SELECT count(*) FROM shop`); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := c.Execute(stmt); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, _, err := c.Exec(fmt.Sprintf(`INSERT INTO %s VALUES (%d)`, table, i)); err != nil {
						t.Error(err)
						return
					}
				case 3:
					res, err := c.Query(fmt.Sprintf(`SELECT count(*) FROM %s`, table))
					if err != nil {
						t.Error(err)
						return
					}
					if got := res.Rows[0][0].Int(); got < 1 {
						t.Errorf("client %d: scratch count %d", g, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The shared cache must have seen real reuse across connections.
	st := db.QueryCacheStats()
	if st.Hits == 0 {
		t.Errorf("no cache hits across concurrent clients: %+v", st)
	}
}

// TestGracefulShutdown: Shutdown must let an in-flight request finish,
// then close idle connections; new connections are refused.
func TestGracefulShutdown(t *testing.T) {
	db := paperDB(t)
	srv := New(db, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	c, err := permclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v after graceful shutdown", err)
	}
	// The drained connection is closed; requests on it now fail.
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded after shutdown")
	}
	// New connections are refused (or immediately closed).
	if c2, err := permclient.Dial(addr); err == nil {
		defer c2.Close() //nolint:errcheck
		if err := c2.Ping(); err == nil {
			t.Fatal("server still serving after shutdown")
		}
	}
}

// TestWorkerPoolBoundsConcurrency: with one worker, two slow statements
// from two connections must serialize.
func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	db := perm.NewDatabase()
	db.MustExec(`CREATE TABLE nums (x int)`)
	for i := 0; i < 2000; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO nums VALUES (%d)`, i))
	}
	addr := startServer(t, db, 1)

	// A moderately slow provenance aggregate over a self-join.
	slow := `SELECT PROVENANCE count(*) FROM nums a, nums b WHERE a.x = b.x`
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := permclient.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close() //nolint:errcheck
			if _, err := c.Query(slow); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
