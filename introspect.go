// Query lifecycle introspection: the engine core shared by every handle
// (query IDs, the span tracer, the active-query registry, the
// per-fingerprint statement store), the per-statement bookkeeping that
// feeds them, live query cancellation, and the virtual system tables
// (perm_stat_activity, perm_stat_statements, perm_traces,
// perm_stat_estimates, perm_stat_plans, perm_events, perm_metrics) that
// expose it all through ordinary SQL.
package perm

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"perm/internal/catalog"
	"perm/internal/mem"
	"perm/internal/obs"
	"perm/internal/qcache"
	"perm/internal/sql"
	"perm/internal/types"
)

// engineCore is the introspection state shared by every Database handle
// derived from one NewDatabase call (WithOptions copies the pointer,
// like the catalog and the governor): the query-ID allocator, the span
// tracer and its ring buffer, the active-query registry, the
// per-fingerprint statement store (executions, estimates and plans), and
// the lazily built shared metrics registry.
type engineCore struct {
	qid        atomic.Uint64
	sessionSeq atomic.Int64
	tracer     *obs.Tracer
	activity   *obs.Activity
	stmts      *obs.StmtStore

	metricsOnce sync.Once
	metricsReg  *obs.Registry
}

func newEngineCore() *engineCore {
	return &engineCore{
		tracer:   obs.NewTracer(obs.DefaultTraceCapacity),
		activity: obs.NewActivity(),
		stmts:    obs.NewStmtStore(obs.DefaultStmtCapacity, obs.DefaultPlanFlipRing),
	}
}

// SessionID returns the engine-unique ID of this handle's session
// (shown in perm_stat_activity).
func (db *Database) SessionID() int64 { return db.sessionID }

// Cancel requests cooperative cancellation of the in-flight query with
// the given ID (any session's). The target observes the flag at its
// next batch boundary and its issuer receives a clean "query cancelled"
// error; other queries are unaffected. Cancel fails when no such query
// is running.
func (db *Database) Cancel(queryID string) error {
	err := db.eng.activity.Cancel(queryID)
	if err == nil {
		obs.Events.Record(obs.EventCancel, queryID, "", "cancellation requested")
	}
	return err
}

// QueryInfo is what the last statement this handle ran recorded about
// itself, for correlating external telemetry (the slow-query log) with the
// tracing subsystem.
type QueryInfo struct {
	ID          string // engine-unique query ID
	Fingerprint string // the statement's fingerprint, as perm_stat_statements keys it
	Spans       string // one-line phase timing breakdown; "" unless the query was sampled
	// CacheHit says the statement ran a compiled tree it did not compile:
	// one from the query cache, or one a prepared statement held.
	CacheHit bool
	// SpilledBytes and SpillEvents are what the statement's own operators
	// wrote to spill files.
	SpilledBytes int64
	SpillEvents  uint64
}

// LastQueryInfo returns what the most recent statement this handle
// finished recorded about itself.
func (db *Database) LastQueryInfo() QueryInfo {
	if p := db.lastQ.Load(); p != nil {
		return *p
	}
	return QueryInfo{}
}

// ---------------------------------------------------------------------------
// Per-statement lifecycle bookkeeping

// queryRun is one statement's own record, carried through the pipeline:
// its active-query registration, its (possibly nil) trace, the currently
// open phase span, where its tree came from, and the memory accountant
// its operators reserve from. Its methods are nil-receiver safe, so
// compiling outside a statement (Prepare, EXPLAIN) passes nil.
type queryRun struct {
	db    *Database
	aq    *obs.ActiveQuery
	trace *obs.Trace
	norm  string
	start time.Time
	span  int
	// hit marks a statement that ran a tree it did not compile.
	hit bool
	// fresh marks a tree whose physical plan the statement store has not
	// seen: one this statement compiled (a cache miss), or one compiled
	// outside any statement. The execution that follows hashes its plan
	// into the store; other cache hits replay a tree the store has
	// already seen, so hashing them would only re-render plans.
	fresh bool
	// mem is the statement's accountant below the session budget; its
	// counters start at zero.
	mem mem.Budget
}

// beginQuery registers a statement with the engine: allocates its query
// ID, fingerprints it, makes it visible in perm_stat_activity and — for
// every TraceSample-th query — opens a lifecycle trace. The caller must
// call finish exactly once.
func (db *Database) beginQuery(text string) *queryRun {
	eng := db.eng
	start := time.Now()
	id := "q" + strconv.FormatUint(eng.qid.Add(1), 10)
	norm := sql.Normalize(text)
	fp := qcache.FingerprintNormalized(norm)
	qr := &queryRun{db: db, norm: norm, start: start, span: -1}
	db.budget.Statement(&qr.mem)
	qr.aq = &obs.ActiveQuery{
		ID:          id,
		Session:     db.sessionID,
		SQL:         text,
		Fingerprint: fp,
		Start:       start,
		Timeout:     max(db.opts.StatementTimeout, 0),
		MemStats: func() (int64, int64) { // the statement's own, not its handle's
			s := qr.mem.Stats()
			return s.InUse, s.BytesSpilled
		},
	}
	qr.trace = eng.tracer.Sample(db.opts.TraceSample, id, fp, text, start)
	eng.activity.Register(qr.aq)
	return qr
}

// served records where the statement's tree came from: hit when the
// statement did not compile it, fresh when its plan is to be hashed.
func (qr *queryRun) served(hit, fresh bool) {
	if qr != nil {
		qr.hit, qr.fresh = hit, fresh
	}
}

// phase publishes the statement's pipeline phase and, when tracing,
// closes the previous phase span and opens the next.
func (qr *queryRun) phase(p obs.Phase) {
	if qr == nil {
		return
	}
	qr.aq.SetPhase(p)
	if qr.trace != nil {
		qr.trace.End(qr.span)
		qr.span = qr.trace.Begin(p.String())
	}
}

// finish completes the statement: deregisters it, accounts it in the
// per-fingerprint store (one lock, which also feeds the plan-flip
// latency baselines), stores the completed trace, and records what the
// statement knows of itself as the handle's last-query info.
func (qr *queryRun) finish(err error) {
	if qr == nil {
		return
	}
	qr.trace.End(qr.span)
	eng := qr.db.eng
	eng.activity.Deregister(qr.aq)
	eng.stmts.Observe(qr.aq.Fingerprint, qr.norm, time.Since(qr.start), qr.aq.Rows(), err != nil)
	if qr.trace != nil {
		eng.tracer.Store.Put(qr.trace)
	}
	st := qr.mem.Stats()
	info := QueryInfo{
		ID: qr.aq.ID, Fingerprint: qr.aq.Fingerprint, Spans: qr.trace.PhaseBreakdown(),
		CacheHit: qr.hit, SpilledBytes: st.BytesSpilled, SpillEvents: uint64(st.SpillEvents),
	}
	qr.db.lastQ.Store(&info)
}

// ---------------------------------------------------------------------------
// Virtual system tables

// sysCol is one column of a system view: its name, its kind, and the
// getter that reads its value from one snapshot record. The typed
// constructors below derive the kind from the getter, so a column's
// label, kind and value cannot fall out of step.
type sysCol[T any] struct {
	name string
	kind types.Kind
	get  func(*T) types.Value
}

func textCol[T any](name string, get func(*T) string) sysCol[T] {
	return sysCol[T]{name, types.KindString, func(r *T) types.Value { return types.NewString(get(r)) }}
}

func intCol[T any](name string, get func(*T) int64) sysCol[T] {
	return sysCol[T]{name, types.KindInt, func(r *T) types.Value { return types.NewInt(get(r)) }}
}

func floatCol[T any](name string, get func(*T) float64) sysCol[T] {
	return sysCol[T]{name, types.KindFloat, func(r *T) types.Value { return types.NewFloat(get(r)) }}
}

// msCol renders a nanosecond count in milliseconds.
func msCol[T any](name string, get func(*T) int64) sysCol[T] {
	return floatCol(name, func(r *T) float64 { return float64(get(r)) / 1e6 })
}

// ageCol renders the milliseconds since a point in time.
func ageCol[T any](name string, get func(*T) time.Time) sysCol[T] {
	return msCol(name, func(r *T) int64 { return time.Since(get(r)).Nanoseconds() })
}

// systemView binds a view name to a snapshot function and its columns:
// every scan takes one snapshot and renders each record as one row.
func systemView[T any](name string, snapshot func() []T, cols ...sysCol[T]) *catalog.VirtualTable {
	v := &catalog.VirtualTable{Name: name, Cols: make([]catalog.Column, len(cols))}
	for i, c := range cols {
		v.Cols[i] = catalog.Column{Name: c.name, Type: c.kind}
	}
	v.Rows = func() []types.Row {
		snap := snapshot()
		rows := make([]types.Row, len(snap))
		for i := range snap {
			rows[i] = make(types.Row, len(cols))
			for j, c := range cols {
				rows[i][j] = c.get(&snap[i])
			}
		}
		return rows
	}
	return v
}

// activityRow is one in-flight query with its morsel progress and memory
// counters read once per snapshot.
type activityRow struct {
	*obs.ActiveQuery
	claimed, total, reserved, spilled int64
}

// spanRow is one span of a stored trace.
type spanRow struct {
	*obs.Trace
	obs.Span
}

// registerSystemViews registers the introspection relations on the
// catalog. They are ordinary relations to the analyzer and planner —
// joins, aggregates and provenance rewrites compose over them — except
// their rows are generated from live engine state at execution time.
func registerSystemViews(db *Database) {
	eng := db.eng
	activity := func() []activityRow {
		snap := eng.activity.Snapshot()
		rows := make([]activityRow, len(snap))
		for i, q := range snap {
			rows[i].ActiveQuery = q
			rows[i].claimed, rows[i].total = q.Morsels()
			if q.MemStats != nil {
				rows[i].reserved, rows[i].spilled = q.MemStats()
			}
		}
		return rows
	}
	spans := func() (rows []spanRow) {
		for _, t := range eng.tracer.Store.Snapshot() {
			for _, sp := range t.Spans {
				rows = append(rows, spanRow{t, sp})
			}
		}
		return rows
	}
	for _, v := range []*catalog.VirtualTable{
		systemView("perm_stat_activity", activity,
			textCol("query_id", func(q *activityRow) string { return q.ID }),
			intCol("session_id", func(q *activityRow) int64 { return q.Session }),
			textCol("phase", func(q *activityRow) string { return q.Phase().String() }),
			textCol("query", func(q *activityRow) string { return q.SQL }),
			textCol("fingerprint", func(q *activityRow) string { return q.Fingerprint }),
			ageCol("elapsed_ms", func(q *activityRow) time.Time { return q.Start }),
			intCol("rows_emitted", func(q *activityRow) int64 { return q.Rows() }),
			intCol("morsels_claimed", func(q *activityRow) int64 { return q.claimed }),
			intCol("morsels_total", func(q *activityRow) int64 { return q.total }),
			intCol("mem_reserved_bytes", func(q *activityRow) int64 { return q.reserved }),
			intCol("spilled_bytes", func(q *activityRow) int64 { return q.spilled }),
			sysCol[activityRow]{"cancel_requested", types.KindBool, func(q *activityRow) types.Value { return types.NewBool(q.Cancelled()) }}),

		systemView("perm_stat_statements", func() []obs.StmtRecord { return eng.stmts.Snapshot(obs.ByCalls) },
			textCol("fingerprint", func(r *obs.StmtRecord) string { return r.Fingerprint }),
			textCol("query", func(r *obs.StmtRecord) string { return r.Query }),
			intCol("calls", func(r *obs.StmtRecord) int64 { return r.Calls }),
			intCol("errors", func(r *obs.StmtRecord) int64 { return r.Errors }),
			intCol("rows_emitted", func(r *obs.StmtRecord) int64 { return r.Rows }),
			msCol("total_ms", func(r *obs.StmtRecord) int64 { return r.TotalNS }),
			msCol("mean_ms", (*obs.StmtRecord).MeanNS),
			floatCol("p50_ms", func(r *obs.StmtRecord) float64 { return r.Hist.Quantile(0.50) / 1e6 }),
			floatCol("p99_ms", func(r *obs.StmtRecord) float64 { return r.Hist.Quantile(0.99) / 1e6 }),
			msCol("max_ms", func(r *obs.StmtRecord) int64 { return r.MaxNS })),

		systemView("perm_traces", spans,
			textCol("query_id", func(s *spanRow) string { return s.QueryID }),
			textCol("fingerprint", func(s *spanRow) string { return s.Fingerprint }),
			textCol("query", func(s *spanRow) string { return s.SQL }),
			textCol("span", func(s *spanRow) string { return s.Name }),
			intCol("depth", func(s *spanRow) int64 { return int64(s.Depth) }),
			msCol("start_ms", func(s *spanRow) int64 { return s.StartNS }),
			msCol("duration_ms", func(s *spanRow) int64 { return s.DurNS }),
			intCol("rows_emitted", func(s *spanRow) int64 { return s.Rows })),

		systemView("perm_stat_estimates", func() []obs.StmtRecord { return db.TopMisestimates(0) },
			textCol("fingerprint", func(r *obs.StmtRecord) string { return r.Fingerprint }),
			textCol("query", func(r *obs.StmtRecord) string { return r.Query }),
			intCol("analyzed", func(r *obs.StmtRecord) int64 { return r.Analyzed }),
			intCol("ops", func(r *obs.StmtRecord) int64 { return r.Ops }),
			floatCol("max_qerr", func(r *obs.StmtRecord) float64 { return r.MaxQErr }),
			floatCol("mean_qerr", (*obs.StmtRecord).MeanQErr),
			textCol("worst_op", func(r *obs.StmtRecord) string { return r.WorstOp }),
			floatCol("worst_est", func(r *obs.StmtRecord) float64 { return r.WorstEst }),
			intCol("worst_act", func(r *obs.StmtRecord) int64 { return r.WorstAct }),
			ageCol("last_seen_ms", func(r *obs.StmtRecord) time.Time { return r.LastSeen })),

		systemView("perm_stat_plans", eng.stmts.Flips,
			textCol("fingerprint", func(f *obs.PlanFlip) string { return f.Fingerprint }),
			textCol("query", func(f *obs.PlanFlip) string { return f.Query }),
			textCol("old_plan", func(f *obs.PlanFlip) string { return fmt.Sprintf("%016x", f.OldHash) }),
			textCol("new_plan", func(f *obs.PlanFlip) string { return fmt.Sprintf("%016x", f.NewHash) }),
			textCol("trigger", func(f *obs.PlanFlip) string { return f.Trigger }),
			intCol("flips", func(f *obs.PlanFlip) int64 { return f.Flips }),
			ageCol("age_ms", func(f *obs.PlanFlip) time.Time { return f.At }),
			msCol("before_mean_ms", func(f *obs.PlanFlip) int64 { return f.BeforeMeanNS }),
			msCol("after_mean_ms", func(f *obs.PlanFlip) int64 { return f.AfterMeanNS })),

		systemView("perm_events", obs.Events.Snapshot,
			intCol("seq", func(e *obs.Event) int64 { return e.Seq }),
			ageCol("age_ms", func(e *obs.Event) time.Time { return e.At }),
			textCol("kind", func(e *obs.Event) string { return e.Kind }),
			textCol("query_id", func(e *obs.Event) string { return e.QueryID }),
			textCol("fingerprint", func(e *obs.Event) string { return e.Fingerprint }),
			textCol("detail", func(e *obs.Event) string { return e.Detail })),

		systemView("perm_metrics", func() []obs.Sample { return db.Metrics().Samples() },
			textCol("name", func(s *obs.Sample) string { return s.Name }),
			textCol("labels", func(s *obs.Sample) string { return s.Labels }),
			floatCol("value", func(s *obs.Sample) float64 { return s.Value })),
	} {
		if err := db.cat.RegisterVirtual(v); err != nil {
			// Registration happens once, on a fresh catalog, with
			// engine-chosen names; failure is a programming error.
			panic(err)
		}
	}
}
