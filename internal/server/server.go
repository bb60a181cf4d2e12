// Package server implements the permd query service: a TCP server
// speaking the length-prefixed wire protocol (package wire), with one
// session per connection, a worker pool bounding concurrently executing
// statements, and graceful shutdown.
//
// All connections share one *perm.Database — the same catalog, data and
// compiled-query cache — so a statement compiled for one client is a
// cache hit for every other client until DDL/DML moves the catalog
// version. Session state (options, prepared statements) stays private to
// each connection.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"perm"
	"perm/internal/fault"
	"perm/internal/obs"
	"perm/internal/session"
	"perm/internal/wire"
)

// slowLog is the slow-query log configuration (immutable once set; the
// pointer swaps atomically so handlers never lock to check it).
type slowLog struct {
	threshold time.Duration
	mu        sync.Mutex // serializes writes to w
	w         io.Writer
}

// Server serves the Perm wire protocol over TCP.
type Server struct {
	db  *perm.Database
	sem chan struct{} // worker pool: bounds concurrently executing statements

	// admit bounds executing plus queued statements (admission control):
	// a request that cannot take a slot without blocking is shed with a
	// retryable "overloaded" error instead of queueing without limit.
	// maxConns bounds open client connections and idleTimeout puts
	// read/write deadlines on each connection. All three are configured
	// before Serve.
	admit       chan struct{}
	maxConns    int
	idleTimeout time.Duration

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	connWg sync.WaitGroup // running connection handlers
	reqWg  sync.WaitGroup // in-flight requests (for graceful drain)

	// Request-path metrics. Counted per request/connection — never
	// per-row — so the observation cost is one atomic add per event.
	connsTotal  obs.Counter
	connsActive obs.Gauge
	reqsTotal   obs.Counter
	errsTotal   obs.Counter
	slowTotal   obs.Counter
	drainGauge  obs.Gauge
	reqDur      *obs.Histogram

	slow atomic.Pointer[slowLog]
}

// New returns a server over db. workers bounds how many statements
// execute concurrently across all connections (<= 0: GOMAXPROCS).
func New(db *perm.Database, workers int) *Server {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Server{
		db:  db,
		sem: make(chan struct{}, workers),
		// Default admission queue: twice the worker count may wait
		// beyond the statements executing (see SetQueueDepth).
		admit: make(chan struct{}, workers+2*workers),
		conns: make(map[net.Conn]struct{}),
		// Request latency buckets from 100µs to 10s (observed in
		// nanoseconds, exposed in seconds).
		reqDur: obs.NewHistogram(
			100_000, 1_000_000, 5_000_000, 10_000_000, 50_000_000,
			100_000_000, 500_000_000, 1_000_000_000, 5_000_000_000, 10_000_000_000),
	}
}

// Workers returns the worker-pool size.
func (s *Server) Workers() int { return cap(s.sem) }

// SetQueueDepth bounds how many statements may wait for a worker slot
// beyond the ones executing (<= 0 restores the default of twice the
// worker count). Arrivals past the bound are shed immediately with a
// retryable "overloaded" error instead of queueing without limit. Must
// be called before Serve.
func (s *Server) SetQueueDepth(n int) {
	if n <= 0 {
		n = 2 * cap(s.sem)
	}
	s.admit = make(chan struct{}, cap(s.sem)+n)
}

// SetMaxConnections bounds concurrently open client connections (<= 0:
// unlimited). A connection over the limit has its first request answered
// with a retryable "overloaded" error before the connection closes. Must
// be called before Serve.
func (s *Server) SetMaxConnections(n int) { s.maxConns = n }

// SetIdleTimeout arms per-connection read/write deadlines: a connection
// idle for longer than d between requests — or one that cannot accept a
// response frame within d — is closed (0: no deadline). Must be called
// before Serve.
func (s *Server) SetIdleTimeout(d time.Duration) { s.idleTimeout = d }

// Draining reports whether Shutdown has started (health endpoints use
// this to fail readiness before the listener closes).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// RegisterMetrics adds the server's metric families (connection and
// request counters, the request-latency histogram) to a registry —
// typically the one db.Metrics() returned, so one /metrics endpoint
// exposes engine and server state together.
func (s *Server) RegisterMetrics(r *obs.Registry) {
	r.CounterVar("perm_server_connections_total", "Client connections accepted.", "", &s.connsTotal)
	r.GaugeVar("perm_server_connections_active", "Client connections currently open.", "", &s.connsActive)
	r.CounterVar("perm_server_requests_total", "Requests dispatched.", "", &s.reqsTotal)
	r.CounterVar("perm_server_errors_total", "Requests answered with an error.", "", &s.errsTotal)
	r.CounterVar("perm_server_slow_queries_total", "Requests over the slow-query threshold.", "", &s.slowTotal)
	r.GaugeVar("perm_server_draining", "1 while the server is shutting down.", "", &s.drainGauge)
	r.HistogramVar("perm_query_duration_seconds", "Request execution latency.", s.reqDur, 1e-9)
}

// SetSlowQueryLog arms the slow-query log: every request that runs
// longer than threshold is recorded as one JSON line on w (the write is
// serialized; w need not be safe for concurrent use). A zero threshold
// logs every request; a nil w disarms the log.
func (s *Server) SetSlowQueryLog(threshold time.Duration, w io.Writer) {
	if w == nil {
		s.slow.Store(nil)
		return
	}
	s.slow.Store(&slowLog{threshold: threshold, w: w})
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown closes it. It returns
// nil after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close() //nolint:errcheck
		return errors.New("server is shut down")
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close() //nolint:errcheck
			continue
		}
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.conns[conn] = struct{}{}
			s.connWg.Add(1)
			s.mu.Unlock()
			obs.ConnsShed.Inc()
			obs.Events.Record(obs.EventAdmissionShed, "", "", "connection refused: connection limit reached")
			go s.refuse(conn, wire.CodeOverloaded, "connection limit reached: retry later")
			continue
		}
		s.conns[conn] = struct{}{}
		s.connWg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// refuseTimeout bounds how long a refused connection is held open
// waiting to deliver its error frame.
const refuseTimeout = 2 * time.Second

// refuse answers the connection's first request with a structured
// retryable error and closes it: a client over the connection limit
// sees a machine-readable refusal instead of a dropped socket. The
// connection is tracked like any other so Shutdown closes it too.
func (s *Server) refuse(conn net.Conn, code, msg string) {
	defer s.connWg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close() //nolint:errcheck
	}()
	conn.SetDeadline(time.Now().Add(refuseTimeout)) //nolint:errcheck
	if _, err := wire.ReadRequest(conn); err != nil {
		return
	}
	wire.WriteFrame(conn, wire.ErrorResponseCode(code, msg)) //nolint:errcheck
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown gracefully stops the server: it stops accepting, waits for
// in-flight requests to finish (bounded by ctx), then closes every
// connection and waits for the handlers to exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	s.drainGauge.Set(1)
	if ln != nil {
		ln.Close() //nolint:errcheck
	}

	// Wait for in-flight requests (not idle connections) up to ctx.
	drained := make(chan struct{})
	go func() { s.reqWg.Wait(); close(drained) }()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// Unblock idle (or overrunning) connection readers and collect the
	// handlers.
	s.mu.Lock()
	for c := range s.conns {
		c.Close() //nolint:errcheck
	}
	s.mu.Unlock()
	s.connWg.Wait()
	return err
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.connWg.Done()
	s.connsTotal.Inc()
	s.connsActive.Inc()
	sess := session.New(s.db)
	defer sess.Close()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close() //nolint:errcheck
		s.connsActive.Dec()
	}()

	for {
		if d := s.idleTimeout; d > 0 {
			conn.SetReadDeadline(time.Now().Add(d)) //nolint:errcheck
		}
		req, err := wire.ReadRequest(conn)
		if err != nil {
			return // client went away, idled out, or shutdown closed us
		}
		// Register the request under the lock Shutdown uses to flip
		// draining: either the Add lands before the drain wait starts
		// (Shutdown waits for us), or we observe draining and answer with
		// a structured retryable error, unexecuted. Never both, never
		// neither.
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			s.writeResponse(conn, wire.ErrorResponseCode(wire.CodeDraining, "server draining: request not executed")) //nolint:errcheck
			return
		}
		s.reqWg.Add(1)
		s.mu.Unlock()
		// PING and CANCEL never wait behind worker slots: a saturated
		// server must still answer liveness checks, and cancellation of
		// the very queries occupying the slots must be able to land.
		outOfBand := req.Op == wire.OpPing || req.Op == wire.OpCancel
		if !outOfBand {
			// Admission control: take a queue slot without blocking or
			// shed the request. The admit channel caps executing plus
			// queued statements, so the wait for a worker slot below is
			// bounded and a surge degrades into fast retryable errors
			// instead of an unbounded queue.
			select {
			case s.admit <- struct{}{}:
			default:
				obs.ConnsShed.Inc()
				obs.Events.Record(obs.EventAdmissionShed, "", "", "request shed: admission queue full")
				s.errsTotal.Inc()
				err := s.writeResponse(conn, wire.ErrorResponseCode(wire.CodeOverloaded, "server overloaded: admission queue full, retry with backoff"))
				s.reqWg.Done()
				if err != nil {
					return
				}
				continue
			}
			s.sem <- struct{}{} // acquire a worker slot
		}
		slow := s.slow.Load()
		var lastID string // the session's last query ID: a request that runs no statement leaves it
		if slow != nil {
			lastID = sess.DB().LastQueryInfo().ID
		}
		start := time.Now()
		resp := s.safeDispatch(sess, req)
		dur := time.Since(start)
		if !outOfBand {
			<-s.sem
			<-s.admit
		}
		s.reqsTotal.Inc()
		s.reqDur.Observe(dur.Nanoseconds())
		if resp.Err != "" {
			s.errsTotal.Inc()
		}
		if slow != nil && dur >= slow.threshold {
			s.slowTotal.Inc()
			s.logSlow(slow, sess, req, resp, dur, lastID)
		}
		err = s.writeResponse(conn, resp)
		s.reqWg.Done()
		if err != nil {
			return
		}
	}
}

// frameBufs recycles response frame buffers across responses and
// connections, so a steady stream of wide results does not allocate a
// frame each; what is idle goes back to the garbage collector.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeResponse encodes resp and writes it as one frame under the
// connection's write deadline. A response that cannot be encoded (its
// body would exceed wire.MaxFrame) becomes a structured error response;
// only real I/O failures — which tear down the connection — return an
// error. The conn.drop fault tap simulates a server dying mid-frame:
// half the frame, then the connection closes under the client.
func (s *Server) writeResponse(conn net.Conn, resp *wire.Response) error {
	buf := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(buf)
	frame, err := wire.AppendFrame((*buf)[:0], resp)
	if err != nil {
		frame, err = wire.AppendFrame(frame, wire.ErrorResponse(err))
		if err != nil {
			return err
		}
	}
	*buf = frame
	if d := s.idleTimeout; d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d)) //nolint:errcheck
	}
	if fault.Should(fault.PointConnDrop) {
		conn.Write(frame[:len(frame)/2]) //nolint:errcheck
		conn.Close()                     //nolint:errcheck
		return fmt.Errorf("fault: connection dropped mid-frame")
	}
	_, err = conn.Write(frame)
	return err
}

// safeDispatch runs dispatch under a panic barrier: a statement that
// panics inside the engine is converted into a structured "internal"
// wire error (with the stack on stderr for the operator) instead of
// crashing the process. The connection, its session, and every other
// query keep working.
func (s *Server) safeDispatch(sess *session.Session, req *wire.Request) (resp *wire.Response) {
	defer func() {
		if p := recover(); p != nil {
			obs.PanicsRecovered.Inc()
			obs.Events.Record(obs.EventPanicRecovered, "", "", fmt.Sprintf("panic in %s: %v", req.Op, p))
			fmt.Fprintf(os.Stderr, "permd: recovered panic in %s: %v\n%s", req.Op, p, debug.Stack())
			resp = wire.ErrorResponseCode(wire.CodeInternal, fmt.Sprintf("internal error: statement panicked: %v", p))
		}
	}()
	if err := fault.Failure(fault.PointDispatch); err != nil {
		panic(err)
	}
	return s.dispatch(sess, req)
}

// dispatch executes one request against the connection's session: a
// statement goes to the session, which routes it as its text says.
func (s *Server) dispatch(sess *session.Session, req *wire.Request) *wire.Response {
	switch req.Op {
	case wire.OpPing:
		return &wire.Response{OK: true}
	case wire.OpCancel:
		// Cancellation targets the engine-wide active-query registry, so
		// any connection can cancel any session's query by ID.
		if err := s.db.Cancel(req.Name); err != nil {
			return wire.ErrorResponse(err)
		}
		return &wire.Response{OK: true}
	case wire.OpExec:
		out, err := sess.Run(req.SQL)
		if err != nil {
			return wire.ErrorResponse(err)
		}
		if out.Result == nil {
			return &wire.Response{OK: true, Affected: out.Affected}
		}
		res := out.Result
		return &wire.Response{OK: true, Columns: res.Columns, Prov: res.ProvColumns, Rows: res.RawRows()}
	default:
		return wire.ErrorResponse(fmt.Errorf("unknown op %q", req.Op))
	}
}

// slowEntry is one slow-query log line.
type slowEntry struct {
	Time         string  `json:"ts"`
	Op           string  `json:"op"`
	QueryID      string  `json:"query_id,omitempty"` // engine query ID (join key for perm_traces)
	Fingerprint  string  `json:"fingerprint,omitempty"`
	DurationMS   float64 `json:"duration_ms"`
	Rows         int     `json:"rows"`
	CacheHit     bool    `json:"cache_hit"`     // the statement ran a tree it did not compile
	SpilledBytes int64   `json:"spilled_bytes"` // the statement's own spill
	SpillEvents  uint64  `json:"spill_events"`
	Parallelism  int     `json:"parallelism"`     // the worker count the session plans with
	Spans        string  `json:"spans,omitempty"` // phase breakdown, when the query was trace-sampled
	Err          string  `json:"err,omitempty"`
}

// logSlow emits one JSON line for a request that crossed the slow-query
// threshold. The query ID, fingerprint, spans, cache outcome and spill
// are what the statement the request ran recorded about itself (an
// EXECUTE carries no SQL of its own), and absent when it ran none (a
// PREPARE or SET), rather than the previous statement's; lastID is the
// session's last query ID before the request. The op is the statement's
// kind (SELECT, PREPARE, EXECUTE, ...), or the wire op of a request that
// carries none (PING, CANCEL).
func (s *Server) logSlow(sl *slowLog, sess *session.Session, req *wire.Request, resp *wire.Response, dur time.Duration, lastID string) {
	db := sess.DB()
	e := slowEntry{
		Time:        time.Now().UTC().Format(time.RFC3339Nano),
		Op:          session.Kind(req.SQL),
		DurationMS:  float64(dur.Microseconds()) / 1000,
		Rows:        len(resp.Rows),
		Parallelism: db.Workers(),
		Err:         resp.Err,
	}
	if e.Op == "" {
		e.Op = req.Op
	}
	if info := db.LastQueryInfo(); info.ID != lastID {
		e.QueryID, e.Fingerprint, e.Spans = info.ID, info.Fingerprint, info.Spans
		e.CacheHit, e.SpilledBytes, e.SpillEvents = info.CacheHit, info.SpilledBytes, info.SpillEvents
	}
	if resp.Rows == nil {
		e.Rows = resp.Affected
	}
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.w.Write(append(line, '\n')) //nolint:errcheck — logging is best-effort
}
