// Package permclient is a tiny Go client for the permd query service.
// It speaks the length-prefixed wire protocol (perm/internal/wire) over
// TCP and returns results as *perm.Result, rendering byte-identically to
// an embedded perm.Database. Every statement method writes its statement
// in the service dialect (PREPARE n AS ..., EXECUTE n, EXPLAIN ..., SET
// o = v) and sends it as one EXEC request.
//
//	c, err := permclient.Dial("localhost:5433")
//	res, err := c.Query("SELECT PROVENANCE name FROM shop")
//	fmt.Print(res) // same table an embedded Database would print
package permclient

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"perm"
	"perm/internal/obs"
	"perm/internal/sql"
	"perm/internal/wire"
)

// Config tunes a client's resilience behavior. The zero value matches
// the pre-Config client: 10s dial timeout, no read/write deadlines, no
// automatic retries.
type Config struct {
	// DialTimeout bounds connection establishment (0: 10 seconds).
	DialTimeout time.Duration
	// ReadTimeout bounds each response read and WriteTimeout each
	// request write (0: no deadline). A read timeout must exceed the
	// longest query the client expects to run.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// MaxRetries bounds automatic retries per request (0: no retries).
	// A request the server shed without executing (Error.Retryable:
	// overloaded, draining) is retried verbatim on the same connection.
	// A request whose fate a network failure left unknown is retried
	// only when it is a Ping or a statement that only reads (a SELECT
	// without INTO, an EXPLAIN), whichever method sent it, on a fresh
	// connection — which is a new server session, so prior SETs and
	// prepared statements do not carry over.
	MaxRetries int
	// RetryBase and RetryMax shape the exponential backoff between
	// retries (defaults: 50ms base, 2s cap), jittered ±50% so a herd of
	// shed clients does not re-arrive in lockstep.
	RetryBase time.Duration
	RetryMax  time.Duration
}

// Error is a structured server-reported failure: the machine-readable
// code from the response frame (may be empty) and the human-readable
// message.
type Error struct {
	Code string
	Msg  string
}

func (e *Error) Error() string { return e.Msg }

// Retryable reports whether the server rejected the request without
// executing it (overloaded, draining) — safe to retry verbatim, even
// for non-idempotent statements.
func (e *Error) Retryable() bool { return wire.Retryable(e.Code) }

// Client is one connection to a permd server. It is safe for concurrent
// use; requests are serialized on the connection (one in flight at a
// time), matching the server's per-connection session semantics.
type Client struct {
	addr string
	cfg  Config

	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Dial connects to a permd server.
func Dial(addr string) (*Client, error) {
	return DialConfig(addr, Config{})
}

// DialTimeout connects with a dial timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	return DialConfig(addr, Config{DialTimeout: timeout})
}

// DialConfig connects with explicit timeout and retry configuration.
func DialConfig(addr string, cfg Config) (*Client, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 2 * time.Second
	}
	c := &Client{addr: addr, cfg: cfg}
	if err := c.redial(); err != nil {
		return nil, err
	}
	return c, nil
}

// redial (re)establishes the connection. Caller holds c.mu (or owns the
// client exclusively, as DialConfig does).
func (c *Client) redial() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return err
	}
	if c.conn != nil {
		c.conn.Close() //nolint:errcheck
	}
	c.conn, c.r, c.w = conn, bufio.NewReader(conn), bufio.NewWriter(conn)
	return nil
}

// Close closes the connection (the server drops the session, including
// its prepared statements).
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// idempotent reports whether a request is safe to re-send when a
// network failure leaves its fate unknown: the server may have executed
// it, so only a ping and a statement without side effects qualify — one
// that parses to a SELECT without INTO or to an EXPLAIN. Only the retry
// path parses.
func idempotent(req *wire.Request) bool {
	if req.Op != wire.OpExec {
		return req.Op == wire.OpPing
	}
	stmt, err := sql.Parse(req.SQL)
	if err != nil {
		return false // a script, or a statement only the session's dialect has
	}
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		return s.Into == ""
	case *sql.ExplainStmt:
		return true
	}
	return false
}

// backoff returns the pause before the next retry: exponential from
// RetryBase, capped at RetryMax, jittered to 50–100% of the nominal
// delay.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.RetryBase << uint(attempt)
	if d <= 0 || d > c.cfg.RetryMax {
		d = c.cfg.RetryMax
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// roundTrip sends one request and reads its response, retrying per the
// client's Config.
func (c *Client) roundTrip(req *wire.Request) (*wire.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		resp, err := c.once(req)
		if err == nil {
			return resp, nil
		}
		if attempt >= c.cfg.MaxRetries {
			return nil, err
		}
		var se *Error
		switch {
		case errors.As(err, &se):
			// The server answered: only codes marking the request as
			// shed without execution are retried. The connection and its
			// session are intact.
			if !se.Retryable() {
				return nil, err
			}
		case idempotent(req):
			// Network failure mid-exchange; the connection is desynced,
			// so retry on a fresh one. A failed redial leaves the dead
			// connection in place and the next attempt fails fast.
			c.redial() //nolint:errcheck
		default:
			return nil, err
		}
		obs.ClientRetries.Inc()
		time.Sleep(c.backoff(attempt))
	}
}

// once performs a single request/response exchange under the configured
// deadlines.
func (c *Client) once(req *wire.Request) (*wire.Response, error) {
	if d := c.cfg.WriteTimeout; d > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(d)) //nolint:errcheck
	}
	if err := wire.WriteFrame(c.w, req); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	if d := c.cfg.ReadTimeout; d > 0 {
		c.conn.SetReadDeadline(time.Now().Add(d)) //nolint:errcheck
	}
	resp, err := wire.ReadResponse(c.r)
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, &Error{Code: resp.Code, Msg: resp.Err}
	}
	return resp, nil
}

// Ping checks that the server is alive.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&wire.Request{Op: wire.OpPing})
	return err
}

// Cancel requests cooperative cancellation of the in-flight query with
// the given engine query ID (as shown in perm_stat_activity). The
// request is handled out of band on the server — it does not wait
// behind the worker pool — so it can cancel the very queries saturating
// it. Use a separate connection from the one running the target query:
// requests on one connection are serialized.
func (c *Client) Cancel(queryID string) error {
	_, err := c.roundTrip(&wire.Request{Op: wire.OpCancel, Name: queryID})
	return err
}

// Exec runs one statement or script of the service dialect (DDL, DML,
// queries, EXPLAIN, PREPARE name AS ..., EXECUTE name, SET option =
// value, ...). For statements that return rows it returns (result, 0);
// otherwise (nil, affected).
func (c *Client) Exec(sql string) (*perm.Result, int, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpExec, SQL: sql})
	if err != nil {
		return nil, 0, err
	}
	if resp.Columns != nil {
		return perm.NewRawResult(resp.Columns, resp.Prov, resp.Rows), 0, nil
	}
	return nil, resp.Affected, nil
}

// Query runs a statement that returns rows (SELECT, EXPLAIN, EXECUTE)
// and returns its result.
func (c *Client) Query(sql string) (*perm.Result, error) {
	res, _, err := c.Exec(sql)
	if err == nil && res == nil {
		return nil, errors.New("statement returns no result; use Exec")
	}
	return res, err
}

// Prepare compiles a SELECT under a name in this connection's session.
func (c *Client) Prepare(name, sql string) error {
	if f := strings.Fields(name); len(f) != 1 || f[0] != name {
		return fmt.Errorf("prepared statement name %q is not one word", name)
	}
	_, _, err := c.Exec("PREPARE " + name + " AS " + sql)
	return err
}

// Execute runs a statement prepared on this connection.
func (c *Client) Execute(name string) (*perm.Result, error) {
	return c.Query("EXECUTE " + name)
}

// Explain returns the physical plan of a query as indented text.
func (c *Client) Explain(sql string) (string, error) {
	return c.lines("EXPLAIN " + sql)
}

// ExplainAnalyze executes a query on the server under instrumentation
// and returns the plan annotated with per-operator runtime statistics.
func (c *Client) ExplainAnalyze(sql string) (string, error) {
	return c.lines("EXPLAIN ANALYZE " + sql)
}

// lines runs an EXPLAIN and joins the lines it returns as rows.
func (c *Client) lines(explain string) (string, error) {
	res, err := c.Query(explain)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, row := range res.Rows {
		sb.WriteString(row[0].String())
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// Set changes one session option (see session.SetOption for names).
func (c *Client) Set(option, value string) error {
	_, _, err := c.Exec("SET " + option + " = " + value)
	return err
}
