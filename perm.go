// Package perm is a pure-Go reimplementation of Perm ("Provenance
// Extension of the Relational Model", Glavic & Alonso, ICDE 2009): a
// provenance management system that computes influence-contribution
// (Why-) provenance for SQL queries through query rewriting, representing
// provenance and data on the same relational data model.
//
// The package embeds a complete in-memory SQL engine (parser, analyzer,
// view unfolding, planner, executor) mirroring the PostgreSQL pipeline the
// paper extends, with the Perm provenance rewriter sitting between
// analysis and planning (the paper's Fig. 5). The SQL dialect includes the
// paper's SQL-PLE extensions:
//
//	SELECT PROVENANCE ... — compute provenance attributes (prov_<rel>_<attr>)
//	FROM item PROVENANCE (attrs) — use stored/external provenance
//	FROM item BASERELATION — limit provenance scope to a view/subquery
//
// Basic usage:
//
//	db := perm.NewDatabase()
//	db.MustExec(`CREATE TABLE shop (name text, numempl int)`)
//	db.MustExec(`INSERT INTO shop VALUES ('Merdies', 3)`)
//	res, err := db.Query(`SELECT PROVENANCE name FROM shop`)
package perm

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"perm/internal/algebra"
	"perm/internal/analyze"
	"perm/internal/catalog"
	"perm/internal/deparse"
	"perm/internal/eval"
	"perm/internal/exec"
	"perm/internal/mem"
	"perm/internal/obs"
	"perm/internal/optimize"
	"perm/internal/plan"
	"perm/internal/provrewrite"
	"perm/internal/qcache"
	"perm/internal/sql"
	"perm/internal/types"
	"perm/internal/vexec"
)

// Database is an in-memory Perm database: a catalog of tables and views,
// a shared compiled-query cache, and the query pipeline. All methods are
// safe for concurrent use: queries run against consistent snapshots,
// catalog access is guarded by the catalog's reader/writer lock, and
// DDL/DML advance a monotonic catalog version that invalidates cached
// compilation artifacts and prepared statements.
type Database struct {
	cat *catalog.Catalog
	// opts are the handle's options with every unset field resolved from
	// its environment variable (withEnvDefaults).
	opts  Options
	cache *qcache.Cache
	// optsKey fingerprints the compile-relevant options so databases
	// derived via WithOptions share the cache without ever sharing an
	// artifact compiled under different settings.
	optsKey string
	// gov is the engine-wide memory governor, shared by every handle
	// derived via WithOptions; budget is this handle's session-level
	// budget below it. Materializing operators draw reservations from
	// the budget and spill to disk when a grant is denied.
	gov    *mem.Governor
	budget *mem.Budget
	// eng is the shared introspection core (query IDs, tracer, active
	// queries, statement statistics); sessionID identifies this handle in
	// perm_stat_activity and lastQ records the most recent statement for
	// log correlation.
	eng       *engineCore
	sessionID int64
	lastQ     atomic.Pointer[QueryInfo]
}

// Options configure a Database.
type Options struct {
	// DisableOptimizer turns off the logical optimizer that flattens and
	// prunes the (provenance-rewritten) query tree before planning. The
	// optimizer is semantics-preserving; the switch exists as an escape
	// hatch and for A/B measurement.
	DisableOptimizer bool

	// DisableVectorized turns off the vectorized (batch-at-a-time)
	// execution engine; every plan then runs on the row-at-a-time volcano
	// operators. Vectorization is semantics-preserving — plan subtrees it
	// cannot handle fall back to the row engine automatically — so the
	// switch exists as an escape hatch and for A/B measurement. The row
	// engine is also the reference engine: the agreement tests and the
	// benchmark's reference runs compare the batch engine against a
	// handle with this set.
	DisableVectorized bool

	// DisableQueryCache turns off the shared compiled-query cache; every
	// Query call then re-parses, re-rewrites and re-optimizes its
	// statement. Caching is semantics-preserving (artifacts are
	// invalidated whenever the catalog version moves), so the switch
	// exists as an escape hatch and for A/B measurement.
	DisableQueryCache bool

	// MemoryLimit bounds, in bytes, the memory this handle's queries may
	// hold in materializing operators (sorts, hash-join builds, hash
	// aggregation, DISTINCT, set operations). When the budget is
	// exhausted those operators spill to temporary files and complete
	// with identical results, so the limit is a performance knob, never
	// a correctness hazard. 0 defers to the environment (see Settings)
	// and falls back to unlimited; a negative value is explicitly
	// unlimited. Handles derived via WithOptions (one per session) budget
	// independently; the engine-wide total can additionally be capped
	// with SetEngineMemoryLimit.
	MemoryLimit int64

	// SpillDir is the directory spill files are created under ("" defers
	// to the environment, then the system temp directory). Files are
	// unlinked at creation, so their storage is reclaimed even on a
	// crash.
	SpillDir string

	// Parallelism is the number of workers intra-query parallelism may
	// use for eligible vectorized plan segments: goroutines doing work,
	// the one consuming the segment included. Parallel execution is
	// semantics-preserving: worker outputs are emitted morsel by morsel
	// in exact serial order, so results are byte-identical to a serial
	// run. 0 defers to the environment and falls back to
	// runtime.GOMAXPROCS(0); 1 (or a negative value) plans serially.
	// Each hash join on the segment's probe spine is built once, by the
	// consuming worker, under this handle's session budget, and probed by
	// all; a build that would spill runs the segment on that worker alone,
	// so Parallelism never reserves more than the serial plan.
	Parallelism int

	// TraceSample records a full lifecycle trace (phase spans plus
	// per-operator child spans) for every Nth query this handle runs,
	// into the engine's shared ring buffer served by the perm_traces
	// system table. Tracing is semantics-preserving — traced execution is
	// byte-identical to untraced — and the off path costs one atomic add
	// per query. 0 defers to the environment and falls back to off; a
	// negative value is explicitly off; 1 traces every query.
	TraceSample int

	// StatementTimeout bounds how long any single statement this handle
	// runs may execute. A statement past its deadline is cancelled
	// through the same cooperative path CANCEL uses (observed at batch
	// boundaries, so spilling and parallel segments unwind cleanly) and
	// its issuer receives a structured timeout error carrying the query
	// ID. 0 defers to the environment and falls back to no timeout; a
	// negative value is explicitly no timeout.
	StatementTimeout time.Duration
}

// NewDatabase returns an empty database with default options.
func NewDatabase() *Database { return NewDatabaseWithOptions(Options{}) }

// NewDatabaseWithOptions returns an empty database.
func NewDatabaseWithOptions(opts Options) *Database {
	shared := &Database{
		cat:   catalog.New(),
		cache: qcache.New(0),
		gov:   mem.NewGovernor(0),
		eng:   newEngineCore(),
	}
	db := shared.WithOptions(opts)
	registerSystemViews(db)
	return db
}

// WithOptions returns a database handle over the same catalog, data and
// compiled-query cache, but with different options. Sessions use this to
// give each client its own settings without copying any state; the cache
// keys compilation artifacts by option fingerprint, so handles with
// different rewrite settings never share a compiled tree. The handle
// gets its own session memory budget under the shared engine governor,
// so per-session limits are independent while the engine total stays
// accounted in one place.
func (db *Database) WithOptions(opts Options) *Database {
	d := db.withOptions(opts)
	d.sessionID = db.eng.sessionSeq.Add(1)
	return d
}

// WithOptionsSameSession is WithOptions for an options change within an
// existing session (SET): the derived handle keeps this handle's session
// identity, so perm_stat_activity and the statement log stay continuous
// across the change.
func (db *Database) WithOptionsSameSession(opts Options) *Database {
	d := db.withOptions(opts)
	d.sessionID = db.sessionID
	return d
}

// withOptions is the one place options (and the environment variables
// they defer to) are resolved.
func (db *Database) withOptions(opts Options) *Database {
	opts = withEnvDefaults(opts)
	return &Database{
		cat:     db.cat,
		opts:    opts,
		cache:   db.cache,
		optsKey: optionsFingerprint(opts),
		gov:     db.gov,
		budget:  db.gov.Session(max(opts.MemoryLimit, 0)),
		eng:     db.eng,
	}
}

// SetEngineMemoryLimit caps the total memory the engine's materializing
// operators may hold across every session sharing this database's
// catalog (0 = unlimited). Independent per-session limits come from
// Options.MemoryLimit.
func (db *Database) SetEngineMemoryLimit(n int64) {
	if n < 0 {
		n = 0
	}
	db.gov.SetLimit(n)
}

// QueryStats reports the engine-wide execution-resource counters:
// memory currently reserved by materializing operators, its high-water
// mark, and the cumulative spill volume.
type QueryStats struct {
	MemoryInUse  int64  // bytes currently reserved by operators
	PeakMemory   int64  // high-water mark of reserved bytes
	BytesSpilled int64  // cumulative bytes written to spill files
	SpillEvents  uint64 // spill activations (runs/partitions written)
}

func statsFrom(s mem.Stats) QueryStats {
	return QueryStats{
		MemoryInUse:  s.InUse,
		PeakMemory:   s.Peak,
		BytesSpilled: s.BytesSpilled,
		SpillEvents:  uint64(s.SpillEvents),
	}
}

// QueryStats returns the engine-wide counters (all sessions).
func (db *Database) QueryStats() QueryStats { return statsFrom(db.gov.Stats()) }

// SessionQueryStats returns the counters of this handle's session
// budget only.
func (db *Database) SessionQueryStats() QueryStats { return statsFrom(db.budget.Stats()) }

// MemoryLimit returns this handle's effective session memory limit in
// bytes (0 = unlimited).
func (db *Database) MemoryLimit() int64 { return db.budget.Limit() }

// Opts returns the options of this database handle, with every field
// left unset resolved from its environment variable.
func (db *Database) Opts() Options { return db.opts }

// CacheStats are cumulative counters of the shared compiled-query cache.
type CacheStats struct {
	Hits          uint64 // queries served a cached compilation artifact
	Misses        uint64 // queries that compiled from scratch
	Invalidations uint64 // artifacts dropped because DDL/DML moved the catalog version
	Evictions     uint64 // artifacts dropped by LRU capacity pressure
}

// QueryCacheStats returns a snapshot of the shared cache counters.
func (db *Database) QueryCacheStats() CacheStats {
	s := db.cache.Stats()
	return CacheStats{Hits: s.Hits, Misses: s.Misses, Invalidations: s.Invalidations, Evictions: s.Evictions}
}

// CatalogVersion returns the current catalog version (advanced by every
// DDL and DML statement; cached compilation artifacts are tagged with it).
func (db *Database) CatalogVersion() uint64 { return db.cat.Version() }

// Value is a single result value. Values do not compare with ==; compare
// what String, Int, Float or Bool return.
type Value struct {
	v types.Value
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.v.Null }

// Int returns the value as int64 (0 for NULL or non-numeric).
func (v Value) Int() int64 {
	if v.v.Null {
		return 0
	}
	switch v.v.K {
	case types.KindInt, types.KindDate:
		return v.v.I
	case types.KindFloat:
		return int64(v.v.F())
	default:
		return 0
	}
}

// Float returns the value as float64 (0 for NULL or non-numeric).
func (v Value) Float() float64 {
	if v.v.Null || !v.v.K.Numeric() {
		return 0
	}
	return v.v.AsFloat()
}

// Bool returns the value as bool (false for NULL or non-boolean).
func (v Value) Bool() bool { return v.v.IsTrue() }

// String renders the value for display (NULL renders as "NULL").
func (v Value) String() string { return v.v.String() }

// Result is the outcome of a query.
type Result struct {
	// Columns are the output column names, in order.
	Columns []string
	// ProvColumns marks which columns (by position) are provenance
	// attributes produced by the rewriter.
	ProvColumns []bool
	// Rows holds the result tuples.
	Rows [][]Value
}

// NumProvColumns returns how many output columns are provenance attributes.
func (r *Result) NumProvColumns() int {
	n := 0
	for _, p := range r.ProvColumns {
		if p {
			n++
		}
	}
	return n
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			sb.WriteString(" | ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[i], c)
	}
	sb.WriteString("\n")
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("-+-")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteString("\n")
	for _, row := range cells {
		for i, c := range row {
			if i > 0 {
				sb.WriteString(" | ")
			}
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Exec runs one or more semicolon-separated statements (DDL, DML or
// queries whose results are discarded). It returns the number of rows
// affected by the last DML statement. Each statement is its own query,
// under its own text, in perm_stat_activity, perm_stat_statements,
// traces and the slow log.
func (db *Database) Exec(text string) (int, error) {
	stmts, texts, err := sql.ParseScript(text)
	if err != nil {
		return 0, err
	}
	affected := 0
	for i, stmt := range stmts {
		qr := db.beginQuery(texts[i])
		n, _, err := db.run(stmt, qr)
		qr.finish(err)
		if err != nil {
			return affected, err
		}
		affected = n
	}
	return affected, nil
}

// MustExec is Exec that panics on error (for tests and examples).
func (db *Database) MustExec(text string) {
	if _, err := db.Exec(text); err != nil {
		panic(err)
	}
}

// Query runs a single SELECT (or EXPLAIN) statement and returns its result.
//
// Plain SELECTs are served through the shared compiled-query cache: the
// analyzed, provenance-rewritten and optimized tree is reused verbatim
// across calls (and across sessions) until a DDL or DML statement moves
// the catalog version; physical planning and execution always run fresh
// against the current data. SELECT ... INTO and EXPLAIN bypass the cache.
func (db *Database) Query(text string) (*Result, error) {
	qr := db.beginQuery(text)
	res, err := db.query(text, qr)
	qr.finish(err)
	return res, err
}

func (db *Database) query(text string, qr *queryRun) (*Result, error) {
	if q, ok := db.cacheGet(text); ok {
		return db.execute(q, qr)
	}
	qr.phase(obs.PhaseParse)
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	if sel, ok := stmt.(*sql.SelectStmt); ok && sel.Into == "" {
		q, err := db.compileSelect(sel, text, qr)
		if err != nil {
			return nil, err
		}
		return db.execute(q, qr)
	}
	_, res, err := db.run(stmt, qr)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("statement returns no result; use Exec")
	}
	return res, nil
}

// cacheGet looks up the compiled artifact for a statement text, honouring
// the DisableQueryCache escape hatch and the current catalog version.
func (db *Database) cacheGet(text string) (*algebra.Query, bool) {
	if db.opts.DisableQueryCache {
		return nil, false
	}
	v, ok := db.cache.Get(db.optsKey+"\x00"+text, db.cat.Version())
	if !ok {
		return nil, false
	}
	return v.(*algebra.Query), true
}

// compileSelect runs the compile pipeline for a parsed plain SELECT and,
// when caching is enabled, publishes the artifact for reuse. The catalog
// version is read before compilation: if concurrent DDL/DML lands while
// we compile, the stored artifact is tagged with the older version and
// the next lookup discards it, so a cached tree can never be newer than
// the version it claims.
func (db *Database) compileSelect(sel *sql.SelectStmt, text string, qr *queryRun) (*algebra.Query, error) {
	ver := db.cat.Version()
	q, err := db.compile(sel, qr)
	if err != nil {
		return nil, err
	}
	if qr != nil {
		qr.fresh = true
	}
	if !db.opts.DisableQueryCache && text != "" {
		db.cache.Put(db.optsKey+"\x00"+text, q, ver)
	}
	return q, nil
}

// selectRun is an open SELECT: the one path a compiled statement takes
// from plan to rows, whoever runs it — Query and Exec drain it at once,
// a Cursor steps it as rows are fetched, EXPLAIN ANALYZE drains it probed
// and renders what the probes saw. The compiled artifact is shared
// read-only; all per-execution state (the physical plan, its data
// snapshots and iterator state) lives here.
type selectRun struct {
	qr  *queryRun
	res *Result // columns now, rows as drain collects them
	// root is the plan root; batches is the batch plan under it when the
	// plan is vectorized to the root, which then is a single batch→row
	// adapter: result values box straight out of the column vectors
	// instead of through intermediate rows.
	root    exec.Node
	batches vexec.Node
	trace   *obs.Trace // non-nil: close harvests the probes into it
	start   time.Time
	rows    []types.Row // step's scratch on the row engine
}

// stmtKey identifies a statement in the plan-health stores.
type stmtKey struct{ fp, norm string }

// openSelect plans a compiled query tree, instruments the plan when the
// statement is sampled for tracing or analyzed (a non-nil key: the
// identity EXPLAIN ANALYZE reports plan health under), and opens it.
func (db *Database) openSelect(q *algebra.Query, qr *queryRun, analyzed *stmtKey) (*selectRun, error) {
	qr.phase(obs.PhasePlan)
	root, err := db.planner().SetActivity(qr.activeQuery()).Plan(q)
	if err != nil {
		return nil, err
	}
	db.notePlanHash(qr, analyzed, root)
	schema := q.Schema()
	r := &selectRun{
		qr:   qr,
		res:  &Result{Columns: schema.Names(), ProvColumns: make([]bool, len(schema))},
		root: root,
	}
	for _, pc := range q.ProvCols {
		r.res.ProvColumns[pc.Col] = true
	}
	if qr != nil {
		r.trace = qr.trace
	}
	rs, vectorized := root.(*vexec.RowSource)
	if analyzed != nil || r.trace != nil {
		// Every operator gets an EXPLAIN ANALYZE probe (they forward batches
		// and rows by pointer, so execution stays byte-identical) except a
		// root adapter, which reports from the probe on its input: traced
		// and analyzed statements run the very loop plain ones do.
		// Instrumenting after planning (and after parallelize) means plan
		// validation never sees a probe and worker subtrees stay unwrapped.
		if probed := plan.Instrument(root); !vectorized {
			r.root = probed
		}
	}
	if vectorized {
		r.batches = rs.Input
	}
	qr.phase(obs.PhaseExecute)
	r.start = time.Now()
	if err := r.root.Open(); err != nil {
		return nil, err
	}
	return r, nil
}

// rowStride is how many rows step pulls from a row-engine plan at a time.
const rowStride = 1024

// step boxes the plan's next batch (on the row engine, its next rowStride
// rows); more is false once the plan is exhausted. Per batch it feeds
// emitted-row progress and a cancellation check to the active-query
// record (one atomic add and one atomic load).
func (r *selectRun) step() (_ block, more bool, err error) {
	aq := r.qr.activeQuery()
	if r.batches != nil {
		b, err := r.batches.Next()
		if err != nil || b == nil {
			return block{}, false, err
		}
		if err := aq.CancelErr(); err != nil {
			return block{}, false, err
		}
		aq.AddRows(int64(b.Live()))
		return boxBatch(b), true, nil
	}
	r.rows = r.rows[:0]
	for len(r.rows) < rowStride {
		row, err := r.root.Next()
		if err != nil {
			return block{}, false, err
		}
		if row == nil {
			break
		}
		r.rows = append(r.rows, row)
	}
	aq.AddRows(int64(len(r.rows)))
	return boxRows(r.rows), len(r.rows) == rowStride, aq.CancelErr()
}

// close releases the plan. After a complete run (err == nil) of a traced
// statement it first harvests the probes into per-operator child spans.
func (r *selectRun) close(err error) error {
	if err == nil && r.trace != nil {
		for _, sp := range plan.OperatorSpans(r.root) {
			r.trace.Add(sp)
		}
	}
	return r.root.Close()
}

// drain steps the plan to the end and returns the result, whose rows are
// cut from the boxed blocks once their number is known.
func (r *selectRun) drain() (*Result, error) {
	var blocks []block
	n := 0
	for more := true; more; {
		b, m, err := r.step()
		if err != nil {
			_ = r.close(err) // the step's error is the one to report
			return nil, err
		}
		blocks, n, more = append(blocks, b), n+b.n, m
	}
	_ = r.close(nil) // every row is out: nothing a failing Close could take back
	if n > 0 {
		r.res.Rows = make([][]Value, 0, n)
		for _, b := range blocks {
			r.res.Rows = b.rows(r.res.Rows)
		}
	}
	return r.res, nil
}

// execute plans and runs a compiled query tree to the end.
func (db *Database) execute(q *algebra.Query, qr *queryRun) (*Result, error) {
	r, err := db.openSelect(q, qr, nil)
	if err != nil {
		return nil, err
	}
	return r.drain()
}

// MustQuery is Query that panics on error.
func (db *Database) MustQuery(text string) *Result {
	res, err := db.Query(text)
	if err != nil {
		panic(err)
	}
	return res
}

// RewriteSQL returns the SQL text of the provenance-rewritten form of a
// query (the q+ of the paper), without executing it: the tree the engine
// runs. A join-back it prints as a join may run over a single pass of its
// input; that is a plan choice, which EXPLAIN shows.
func (db *Database) RewriteSQL(text string) (string, error) {
	sel, err := parseSelect(text, "REWRITE")
	if err != nil {
		return "", err
	}
	return db.rewriteText(sel)
}

// ExplainSQL returns the physical plan of a query as indented text.
func (db *Database) ExplainSQL(text string) (string, error) {
	sel, err := parseSelect(text, "EXPLAIN")
	if err != nil {
		return "", err
	}
	return db.planText(sel)
}

// parseSelect parses text as the single SELECT a statement form (named
// by what, for the error) requires.
func parseSelect(text, what string) (*sql.SelectStmt, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("%s requires a SELECT statement", what)
	}
	return sel, nil
}

// rewriteText is EXPLAIN REWRITE's text: the compiled tree as SQL.
func (db *Database) rewriteText(sel *sql.SelectStmt) (string, error) {
	q, err := db.compile(sel, nil)
	if err != nil {
		return "", err
	}
	return deparse.Query(q), nil
}

// planText is EXPLAIN's text: the physical plan of the compiled tree.
func (db *Database) planText(sel *sql.SelectStmt) (string, error) {
	q, err := db.compile(sel, nil)
	if err != nil {
		return "", err
	}
	node, err := db.planner().Plan(q)
	if err != nil {
		return "", err
	}
	return plan.Explain(node), nil
}

// planner returns a planner configured from the database options.
func (db *Database) planner() *plan.Planner {
	return plan.New(db.cat).
		SetVectorized(!db.opts.DisableVectorized).
		SetResources(db.budget, db.opts.SpillDir).
		SetParallelism(db.Workers())
}

// Workers is the intra-query worker count the handle plans with:
// Parallelism, 1 when it is negative (off), GOMAXPROCS when it is unset.
func (db *Database) Workers() int {
	switch n := db.opts.Parallelism; {
	case n > 0:
		return n
	case n < 0:
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// Catalog introspection.

// Tables returns the names of all base tables.
func (db *Database) Tables() []string { return db.cat.TableNames() }

// Views returns the names of all views.
func (db *Database) Views() []string { return db.cat.ViewNames() }

// TableRowCount returns the number of rows in a base table.
func (db *Database) TableRowCount(name string) (int, error) {
	t, ok := db.cat.Table(name)
	if !ok {
		return 0, fmt.Errorf("table %q does not exist", name)
	}
	return t.Heap.Len(), nil
}

// ---------------------------------------------------------------------------
// Pipeline internals

// compile runs analysis, the provenance rewrite stage and the logical
// optimizer — the "compilation" pipeline of the paper's Fig. 5 up to the
// planner, with the optimizer standing in for the normalization
// PostgreSQL's own planner performs on the rewriter's nested output. The
// tree depends on the statement, the schema and DisableOptimizer alone:
// the data and the engine are the planner's. With qr it marks lifecycle
// phases: analysis and the provenance rewrite report as the rewrite
// phase, the optimizer as the optimize phase.
func (db *Database) compile(sel *sql.SelectStmt, qr *queryRun) (*algebra.Query, error) {
	qr.phase(obs.PhaseRewrite)
	q, err := analyze.New(db.cat).AnalyzeSelect(sel)
	if err != nil {
		return nil, err
	}
	if q, err = provrewrite.Rewrite(q); err != nil {
		return nil, err
	}
	qr.phase(obs.PhaseOptimize)
	if !db.opts.DisableOptimizer {
		q = optimize.Query(q)
	}
	return q, nil
}

// run executes one parsed statement. It returns rows-affected (DML) and a
// result (queries).
func (db *Database) run(stmt sql.Statement, qr *queryRun) (int, *Result, error) {
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		res, err := db.runSelect(s, qr)
		return 0, res, err
	case *sql.CancelStmt:
		return 0, nil, db.Cancel(s.ID)
	case *sql.CreateTableStmt:
		cols := make([]catalog.Column, len(s.Cols))
		for i, c := range s.Cols {
			cols[i] = catalog.Column{Name: c.Name, Type: c.Type}
		}
		_, err := db.cat.CreateTable(s.Name, cols, s.IfNotExists)
		return 0, nil, err
	case *sql.CreateViewStmt:
		// Validate the definition now (catching errors early, as
		// PostgreSQL does), store the parse tree for unfolding.
		if _, err := analyze.New(db.cat).AnalyzeSelect(s.Query); err != nil {
			return 0, nil, fmt.Errorf("invalid view definition: %v", err)
		}
		return 0, nil, db.cat.CreateView(s.Name, s.Query, s.OrReplace)
	case *sql.DropStmt:
		return 0, nil, db.cat.Drop(s.Name, s.View, s.IfExists)
	case *sql.InsertStmt:
		n, err := db.runInsert(s, qr)
		return n, nil, err
	case *sql.DeleteStmt:
		n, err := db.runDelete(s)
		return n, nil, err
	case *sql.ExplainStmt:
		var out string
		var err error
		switch {
		case s.Rewrite:
			out, err = db.rewriteText(s.Query)
		case s.Analyze:
			// The SELECT's own text hits (and fills) the same cache slot
			// and fingerprint the bare SELECT would.
			_, out, err = db.analyzeSelect(s.Query, s.Source, qr)
		default:
			out, err = db.planText(s.Query)
		}
		if err != nil {
			return 0, nil, err
		}
		res := &Result{Columns: []string{"plan"}, ProvColumns: []bool{false}}
		for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
			res.Rows = append(res.Rows, []Value{{v: types.NewString(line)}})
		}
		return 0, res, nil
	default:
		return 0, nil, fmt.Errorf("unsupported statement %T", stmt)
	}
}

func (db *Database) runSelect(sel *sql.SelectStmt, qr *queryRun) (*Result, error) {
	into := sel.Into
	sel.Into = ""
	q, err := db.compile(sel, qr)
	if err != nil {
		return nil, err
	}
	res, err := db.execute(q, qr)
	if err == nil && into != "" {
		err = db.materialize(into, q.Schema(), res.Rows)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// materialize stores a result as a new base table (SELECT ... INTO).
func (db *Database) materialize(name string, schema algebra.Schema, rows [][]Value) error {
	cols := make([]catalog.Column, len(schema))
	seen := make(map[string]int)
	for i, c := range schema {
		colName := c.Name
		if n := seen[colName]; n > 0 {
			colName = fmt.Sprintf("%s_%d", colName, n+1)
		}
		seen[c.Name]++
		typ := c.Type
		if typ == types.KindNull {
			typ = types.KindString
		}
		cols[i] = catalog.Column{Name: colName, Type: typ}
	}
	t, err := db.cat.CreateTable(name, cols, false)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := t.Heap.Insert(types.Row(rawRow(r)).Clone()); err != nil {
			return err
		}
	}
	return nil
}

func (db *Database) runInsert(s *sql.InsertStmt, qr *queryRun) (int, error) {
	t, ok := db.cat.Table(s.Table)
	if !ok {
		return 0, fmt.Errorf("table %q does not exist", s.Table)
	}
	// DML moves the catalog version (even on a partial failure some rows
	// may have landed), conservatively invalidating cached artifacts.
	defer db.cat.Bump()
	// Map the column list to positions.
	positions := make([]int, 0, len(t.Cols))
	if len(s.Cols) == 0 {
		for i := range t.Cols {
			positions = append(positions, i)
		}
	} else {
		for _, c := range s.Cols {
			idx := t.ColIndex(c)
			if idx < 0 {
				return 0, fmt.Errorf("column %q does not exist in table %q", c, s.Table)
			}
			positions = append(positions, idx)
		}
	}

	buildRow := func(vals types.Row) (types.Row, error) {
		if len(vals) != len(positions) {
			return nil, fmt.Errorf("INSERT has %d values but %d target columns", len(vals), len(positions))
		}
		row := make(types.Row, len(t.Cols))
		for i, c := range t.Cols {
			row[i] = types.NewNull(c.Type)
		}
		for i, pos := range positions {
			v, err := types.Coerce(vals[i], t.Cols[pos].Type)
			if err != nil {
				return nil, fmt.Errorf("column %q: %v", t.Cols[pos].Name, err)
			}
			row[pos] = v
		}
		return row, nil
	}

	n := 0
	if s.Query != nil {
		res, err := db.runSelect(s.Query, qr)
		if err != nil {
			return 0, err
		}
		for _, r := range res.Rows {
			vals := make(types.Row, len(r))
			for i, v := range r {
				vals[i] = v.v
			}
			row, err := buildRow(vals)
			if err != nil {
				return n, err
			}
			if err := t.Heap.Insert(row); err != nil {
				return n, err
			}
			n++
		}
		return n, nil
	}

	for _, exprRow := range s.Values {
		vals, err := db.evalConstRow(exprRow)
		if err != nil {
			return n, err
		}
		row, err := buildRow(vals)
		if err != nil {
			return n, err
		}
		if err := t.Heap.Insert(row); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// evalConstRow evaluates a row of literal expressions (INSERT VALUES).
// A string literal is a substring of the statement text, so a stored
// string gets its own bytes rather than pin the whole text.
func (db *Database) evalConstRow(exprs []sql.Expr) (types.Row, error) {
	row := make(types.Row, len(exprs))
	for i, e := range exprs {
		v, err := evalConstExpr(e)
		if err != nil {
			return nil, err
		}
		if v.K == types.KindString && !v.Null {
			v.SetString(strings.Clone(v.Str()))
		}
		row[i] = v
	}
	return row, nil
}

func evalConstExpr(e sql.Expr) (types.Value, error) {
	switch n := e.(type) {
	case *sql.Lit:
		return n.Val, nil
	case *sql.UnaryExpr:
		v, err := evalConstExpr(n.Expr)
		if err != nil {
			return types.NullValue, err
		}
		if n.Op == "-" {
			return types.Neg(v)
		}
		return v, nil
	case *sql.BinExpr:
		l, err := evalConstExpr(n.Left)
		if err != nil {
			return types.NullValue, err
		}
		r, err := evalConstExpr(n.Right)
		if err != nil {
			return types.NullValue, err
		}
		switch n.Op {
		case "+":
			return types.Add(l, r)
		case "-":
			return types.Sub(l, r)
		case "*":
			return types.Mul(l, r)
		case "/":
			return types.Div(l, r)
		}
		return types.NullValue, fmt.Errorf("unsupported constant operator %q", n.Op)
	default:
		return types.NullValue, fmt.Errorf("INSERT values must be constants, got %T", e)
	}
}

func (db *Database) runDelete(s *sql.DeleteStmt) (int, error) {
	t, ok := db.cat.Table(s.Table)
	if !ok {
		return 0, fmt.Errorf("table %q does not exist", s.Table)
	}
	defer db.cat.Bump()
	if s.Where == nil {
		n := t.Heap.Len()
		t.Heap.Truncate()
		return n, nil
	}
	// Analyze the predicate in the table's scope.
	a := analyze.New(db.cat)
	sel := &sql.SelectStmt{
		Targets: []sql.SelectTarget{{Star: true}},
		From:    []sql.TableExpr{&sql.TableName{Name: s.Table}},
		Where:   s.Where,
	}
	q, err := a.AnalyzeSelect(sel)
	if err != nil {
		return 0, err
	}
	binder := &deleteBinder{db: db}
	pred, err := eval.Compile(q.Where, binder)
	if err != nil {
		return 0, err
	}
	var ctx eval.Ctx
	return t.Heap.DeleteWhere(func(r types.Row) (bool, error) {
		ctx.Row = r
		v, err := pred(&ctx)
		if err != nil {
			return false, err
		}
		return v.IsTrue(), nil
	})
}

// deleteBinder binds a single-table predicate positionally.
type deleteBinder struct {
	db *Database
}

func (b *deleteBinder) BindVar(v *algebra.Var) (int, error) {
	if v.RT != 0 {
		return 0, fmt.Errorf("DELETE predicate may only reference the target table")
	}
	return v.Col, nil
}

func (b *deleteBinder) BindSubLink(s *algebra.SubLink) (algebra.SubLinkValue, error) {
	return plan.NewSubLinkValue(b.db.planner(), s)
}

// InsertRows bulk-loads pre-built rows into a base table, bypassing SQL
// parsing (used by the TPC-H generator; ~100x faster than INSERT text).
// Values must match the table's column types; no coercion is applied.
func (db *Database) InsertRows(table string, rows []types.Row) error {
	t, ok := db.cat.Table(table)
	if !ok {
		return fmt.Errorf("table %q does not exist", table)
	}
	defer db.cat.Bump()
	return t.Heap.InsertAll(rows)
}
