package perm

import (
	"fmt"
	"runtime"
	"time"

	"perm/internal/exec"
	"perm/internal/obs"
	"perm/internal/plan"
	"perm/internal/qcache"
	"perm/internal/sql"
)

// QueryAnalyzed runs a single SELECT statement with EXPLAIN ANALYZE
// instrumentation: every plan operator is wrapped in a probe that times
// it and counts what it emits. It returns the query result — identical
// to what Query returns, probes forward rows untouched — together with
// the annotated plan report.
//
// Compilation goes through the shared compiled-query cache and execution
// through the same drain exactly like Query; only the probes differ.
func (db *Database) QueryAnalyzed(text string) (*Result, string, error) {
	sel, err := parseSelect(text, "EXPLAIN ANALYZE")
	if err != nil {
		return nil, "", err
	}
	if sel.Into != "" {
		return nil, "", fmt.Errorf("EXPLAIN ANALYZE requires a plain SELECT statement")
	}
	qr := db.beginQuery(text)
	res, report, err := db.analyzeSelect(sel, text, qr)
	qr.finish(err)
	return res, report, err
}

// ExplainAnalyzeSQL executes a query under instrumentation and returns
// only the annotated plan report (the result rows are computed — ANALYZE
// always executes — and discarded).
func (db *Database) ExplainAnalyzeSQL(text string) (string, error) {
	_, report, err := db.QueryAnalyzed(text)
	return report, err
}

// analyzeSelect compiles (through the cache) and runs a SELECT probed,
// returning the result and the annotated plan. text is the SELECT's own
// text, the cache key and the fingerprint in the report footer: plan
// health is keyed on the bare statement, not the session's
// EXPLAIN ANALYZE-prefixed text, so estimates and flips join against
// perm_stat_statements rows for the plain statement.
func (db *Database) analyzeSelect(sel *sql.SelectStmt, text string, qr *queryRun) (*Result, string, error) {
	q, ok := db.cacheGet(text)
	if !ok {
		var err error
		q, err = db.compileSelect(sel, text, qr)
		if err != nil {
			return nil, "", err
		}
	}
	key := &stmtKey{}
	if qr != nil && text == qr.aq.SQL {
		key.fp, key.norm = qr.aq.Fingerprint, qr.norm
	} else {
		key.norm = sql.Normalize(text)
		key.fp = qcache.FingerprintNormalized(key.norm)
	}
	pre := db.budget.Stats()
	r, err := db.openSelect(q, qr, key)
	if err != nil {
		return nil, "", err
	}
	res, err := r.drain()
	if err != nil {
		return nil, "", err
	}
	total := time.Since(r.start)
	if qr != nil {
		db.eng.stmts.ObserveEstimates(key.fp, key.norm, plan.OperatorEstimates(r.root))
	}
	post := db.budget.Stats()
	report := plan.ExplainAnalyzed(r.root, total, post.Peak, post.BytesSpilled-pre.BytesSpilled) +
		"Fingerprint: " + key.fp + "\n"
	return res, report, nil
}

// TopMisestimates returns the engine's n worst per-fingerprint
// cardinality misestimates, worst first (all of them when n <= 0) —
// the same records perm_stat_estimates serves, for tooling that wants
// them without a SQL round-trip. Records accumulate from EXPLAIN
// ANALYZE executions only; plain queries are never instrumented.
func (db *Database) TopMisestimates(n int) []obs.StmtRecord {
	snap := db.eng.stmts.Snapshot(obs.ByQErr)
	if n > 0 && len(snap) > n {
		snap = snap[:n]
	}
	return snap
}

// notePlanHash feeds one freshly compiled statement's physical plan hash
// into the plan-flip store. Only executions following a cache miss are
// hashed (qr.fresh): a cache hit replays an artifact whose plan the
// store already saw, so the hot path never renders a plan. A flip —
// the same fingerprint compiling to a structurally different plan —
// bumps perm_plan_flips_total and lands in the engine event log. An
// analyzed statement records under the bare statement's identity even
// when the session ran it as EXPLAIN ANALYZE.
func (db *Database) notePlanHash(qr *queryRun, analyzed *stmtKey, node exec.Node) {
	if qr == nil || !qr.fresh {
		return
	}
	qr.fresh = false
	fp, norm := qr.aq.Fingerprint, qr.norm
	if analyzed != nil {
		fp, norm = analyzed.fp, analyzed.norm
	}
	h := plan.Hash(node)
	old, flipped := db.eng.stmts.ObservePlan(fp, norm, h, int64(db.cat.Version()), db.optsKey)
	if flipped {
		obs.PlanFlips.Inc()
		obs.Events.Record(obs.EventPlanFlip, qr.aq.ID, fp,
			fmt.Sprintf("plan %016x -> %016x", old, h))
	}
}

// QueryCached reports whether a compiled artifact for the statement text
// is currently cached (under this handle's options and the current
// catalog version) without touching the cache counters or LRU order. The
// slow-query log uses it to label a statement's cache outcome.
func (db *Database) QueryCached(text string) bool {
	if db.opts.DisableQueryCache {
		return false
	}
	return db.cache.Contains(db.optsKey+"\x00"+text, db.cat.Version())
}

// EngineVersion identifies the engine build in perm_build_info and the
// permd banner.
const EngineVersion = "0.9.0"

// Metrics returns a registry exposing the engine's metric families in
// the Prometheus text format: compiled-query cache traffic, memory
// accounting and spill volume, intra-query parallelism activity,
// introspection gauges, per-fingerprint latency histograms, and session
// gauges. The families read live engine state on each exposition; the
// registry itself adds no cost to query execution. The registry is
// built once per engine and shared by every handle, so callers (permd's
// telemetry endpoint, benchmark tooling) may register further families
// on it.
func (db *Database) Metrics() *obs.Registry {
	db.eng.metricsOnce.Do(func() {
		db.eng.metricsReg = db.buildMetrics()
	})
	return db.eng.metricsReg
}

func (db *Database) buildMetrics() *obs.Registry {
	r := obs.NewRegistry()

	r.ReadFunc("perm_build_info",
		"Engine build identity (value is constant 1).", obs.TypeGauge,
		`version="`+EngineVersion+`",goversion="`+runtime.Version()+`"`,
		func() float64 { return 1 })
	r.ReadFunc("perm_gomaxprocs", "GOMAXPROCS of the engine process.", obs.TypeGauge, "",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })

	cacheHelp := "Compiled-query cache lookups by outcome."
	cacheEvent := func(event string, read func(qcache.Stats) uint64) {
		r.ReadFunc("perm_qcache_lookups_total", cacheHelp, obs.TypeCounter,
			`event="`+event+`"`, func() float64 { return float64(read(db.cache.Stats())) })
	}
	cacheEvent("hit", func(s qcache.Stats) uint64 { return s.Hits })
	cacheEvent("miss", func(s qcache.Stats) uint64 { return s.Misses })
	cacheEvent("invalidation", func(s qcache.Stats) uint64 { return s.Invalidations })
	cacheEvent("eviction", func(s qcache.Stats) uint64 { return s.Evictions })
	r.ReadFunc("perm_qcache_entries", "Compiled artifacts currently cached.", obs.TypeGauge, "",
		func() float64 { return float64(db.cache.Len()) })

	r.ReadFunc("perm_mem_reserved_bytes", "Bytes currently reserved by materializing operators.", obs.TypeGauge, "",
		func() float64 { return float64(db.gov.Stats().InUse) })
	r.ReadFunc("perm_mem_peak_bytes", "High-water mark of reserved bytes.", obs.TypeGauge, "",
		func() float64 { return float64(db.gov.Stats().Peak) })
	r.ReadFunc("perm_mem_spilled_bytes_total", "Cumulative bytes written to spill files.", obs.TypeCounter, "",
		func() float64 { return float64(db.gov.Stats().BytesSpilled) })
	r.ReadFunc("perm_mem_spill_events_total", "Spill activations (runs/partitions written).", obs.TypeCounter, "",
		func() float64 { return float64(db.gov.Stats().SpillEvents) })
	r.CounterVar("perm_mem_grants_total", "Operator memory requests granted.", "", &obs.MemGrants)
	r.CounterVar("perm_mem_denials_total", "Operator memory requests denied (spill trigger).", "", &obs.MemDenials)

	r.CounterVar("perm_parallel_morsels_total", "Morsels dispatched to parallel worker scans.", "", &obs.MorselsDispatched)
	r.CounterVar("perm_parallel_plans_total", "Queries planned with a parallel operator.", "", &obs.ParallelPlans)
	r.CounterVar("perm_parallel_workers_total", "Workers launched by parallel plans.", "", &obs.ParallelWorkers)
	r.CounterVar("perm_parallel_serial_fallbacks_total", "Parallel sites that fell back to serial execution.", "", &obs.SerialFallbacks)
	r.CounterVar("perm_joinback_shared_total", "Provenance join-backs planned over one evaluation of their input.", "", &obs.JoinBackShared)
	for _, reason := range obs.JoinBackReasons {
		r.CounterVar("perm_joinback_two_sided_total", "Provenance join-backs that kept the two-sided plan, by reason.",
			`reason="`+reason+`"`, obs.JoinBackTwoSided[reason])
	}

	r.CounterVar("perm_panics_recovered_total", "Query panics caught and converted to errors.", "", &obs.PanicsRecovered)
	r.CounterVar("perm_statement_timeouts_total", "Statements terminated by their statement timeout.", "", &obs.StatementTimeouts)
	r.CounterVar("perm_conns_shed_total", "Requests and connections shed by admission control.", "", &obs.ConnsShed)
	r.CounterVar("perm_client_retries_total", "Automatic request retries by in-process permclient instances.", "", &obs.ClientRetries)

	r.GaugeVar("perm_sessions_active", "Sessions currently open.", "", &obs.SessionsActive)
	r.GaugeVar("perm_prepared_statements", "Prepared statements currently held by sessions.", "", &obs.PreparedStatements)
	r.ReadFunc("perm_catalog_version", "Current catalog version (moves on every DDL/DML).", obs.TypeGauge, "",
		func() float64 { return float64(db.cat.Version()) })

	r.ReadFunc("perm_queries_active", "Queries currently registered as in flight.", obs.TypeGauge, "",
		func() float64 { return float64(db.eng.activity.Len()) })
	r.ReadFunc("perm_traces_stored", "Completed query traces held in the trace ring.", obs.TypeGauge, "",
		func() float64 { return float64(db.eng.tracer.Store.Len()) })

	r.CounterVar("perm_plan_flips_total", "Fingerprints recompiled to a structurally different physical plan.", "", &obs.PlanFlips)
	r.CounterVar("perm_stmt_evictions_total", "Fingerprints evicted from the per-fingerprint statement store.", "", &obs.StmtEvictions)
	r.ReadFunc("perm_plan_fingerprints", "Tracked fingerprints with a fresh compilation on record.", obs.TypeGauge, "",
		func() float64 { return float64(db.eng.stmts.Count(obs.ByCompiles)) })
	r.ReadFunc("perm_estimate_fingerprints", "Tracked fingerprints with an EXPLAIN ANALYZE execution on record.", obs.TypeGauge, "",
		func() float64 { return float64(db.eng.stmts.Count(obs.ByQErr)) })
	r.ReadFunc("perm_events_recorded_total", "Events appended to the engine event log.", obs.TypeCounter, "",
		func() float64 { return float64(obs.Events.LastSeq()) })
	r.RawCollector(db.eng.stmts.WritePrometheus)
	return r
}
