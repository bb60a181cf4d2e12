// Command permd serves a Perm database over TCP, speaking the
// length-prefixed wire protocol of perm/internal/wire (JSON requests,
// binary responses; EXEC carries a statement of the service dialect,
// PING and CANCEL are out of band). Every connection gets its own session
// (options, prepared statements); all sessions share the catalog, the
// data and the compiled-query cache. A worker pool bounds how many
// statements execute concurrently; SIGINT/SIGTERM trigger a graceful
// drain. -metrics-addr adds a telemetry listener (/metrics, /healthz,
// /debug/pprof) and -slow-query-ms a structured slow-query log. Every
// engine setting (perm.Settings) is a flag too, e.g. -memory-limit.
//
//	permd -addr :5433 -workers 8 -tpch 0.01
//	permd -init schema.sql
//	permd -metrics-addr 127.0.0.1:9090 -slow-query-ms 100
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"perm"
	"perm/internal/mem"
	"perm/internal/obs"
	"perm/internal/server"
	"perm/internal/spill"
	"perm/internal/tpch"
)

// streamEvents tails the engine event log to w as one JSON object per
// line. The log is a bounded ring with monotone sequence numbers, so the
// streamer polls Since(lastSeq) — events recorded between polls are
// picked up in order, and a full ring turnover at most drops the
// overwritten middle, never reorders.
func streamEvents(w io.Writer, every time.Duration) {
	enc := json.NewEncoder(w)
	var last int64
	for {
		for _, e := range obs.Events.Since(last) {
			last = e.Seq
			enc.Encode(e) //nolint:errcheck — stderr never rejects
		}
		time.Sleep(every)
	}
}

// serveTelemetry exposes the observability endpoints on their own
// listener (kept off the query port so scrapes never compete with the
// wire protocol): /metrics in the Prometheus text format, /healthz for
// liveness/readiness, and the standard /debug/pprof profiles.
func serveTelemetry(addr string, db *perm.Database, srv *server.Server) {
	reg := db.Metrics()
	srv.RegisterMetrics(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w) //nolint:errcheck — client went away
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if srv.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Fprintf(os.Stderr, "telemetry on http://%s/metrics\n", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
	}
}

func main() {
	var opts perm.Options
	perm.RegisterFlags(flag.CommandLine, &opts)
	var (
		addr     = flag.String("addr", "127.0.0.1:5433", "listen address")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrently executing statements")
		loadSF   = flag.Float64("tpch", 0, "preload TPC-H data at this scale factor")
		initSQL  = flag.String("init", "", "run a SQL script before serving")
		totalMem = flag.String("total-memory", "", "engine-wide memory cap across all sessions, e.g. 1GiB (default unlimited)")
		maxConns = flag.Int("max-connections", 0, "max concurrently open client connections (0 = unlimited; excess connections get a retryable error)")
		queueN   = flag.Int("queue-depth", 0, "statements allowed to queue for a worker slot before load shedding (0 = twice the worker count)")
		idleTO   = flag.Duration("idle-timeout", 0, "close connections idle longer than this between requests (0 = never)")
		grace    = flag.Duration("grace", 10*time.Second, "graceful-shutdown drain timeout")
		metrics  = flag.String("metrics-addr", "", "serve /metrics (Prometheus), /healthz and /debug/pprof on this address (empty = disabled)")
		slowMS   = flag.Int("slow-query-ms", -1, "log statements slower than this many milliseconds as JSON lines on stderr (0 = every statement, negative = disabled)")
		eventLog = flag.Bool("event-log", false, "stream engine events (plan flips, spill onset, timeouts, cancellations, shedding, panics) as JSON lines on stderr")
	)
	flag.Parse()

	db := perm.NewDatabaseWithOptions(opts)
	// Sweep spill files a crashed predecessor may have left behind (live
	// files are unlinked at creation, so only failed unlinks linger).
	spillDir := db.Opts().SpillDir
	if n := spill.Cleanup(spillDir); n > 0 {
		fmt.Fprintf(os.Stderr, "removed %d stale spill files\n", n)
	}
	if *totalMem != "" {
		n, err := mem.ParseSize(*totalMem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "-total-memory:", err)
			os.Exit(1)
		}
		db.SetEngineMemoryLimit(n)
	}
	if *loadSF > 0 {
		fmt.Fprintf(os.Stderr, "loading TPC-H at SF %g ...\n", *loadSF)
		tpch.MustLoad(db, *loadSF, 42)
	}
	if *initSQL != "" {
		data, err := os.ReadFile(*initSQL)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if _, err := db.Exec(string(data)); err != nil {
			fmt.Fprintf(os.Stderr, "init script: %v\n", err)
			os.Exit(1)
		}
	}

	srv := server.New(db, *workers)
	srv.SetQueueDepth(*queueN)
	srv.SetMaxConnections(*maxConns)
	srv.SetIdleTimeout(*idleTO)
	if *slowMS >= 0 {
		srv.SetSlowQueryLog(time.Duration(*slowMS)*time.Millisecond, os.Stderr)
	}
	if *metrics != "" {
		go serveTelemetry(*metrics, db, srv)
	}
	if *eventLog {
		go streamEvents(os.Stderr, 250*time.Millisecond)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	fmt.Fprintf(os.Stderr, "permd listening on %s (%d workers)\n", *addr, srv.Workers())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "received %s, draining ...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
			os.Exit(1)
		}
		st := db.QueryCacheStats()
		qs := db.QueryStats()
		spill.Cleanup(spillDir)
		fmt.Fprintf(os.Stderr, "bye (query cache: %d hits, %d misses, %d invalidations; memory peak %d B, spilled %d B in %d events)\n",
			st.Hits, st.Misses, st.Invalidations, qs.PeakMemory, qs.BytesSpilled, qs.SpillEvents)
	}
}
