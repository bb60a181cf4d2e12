// Package session implements per-client session state for the Perm query
// service: session-local options, named prepared statements, and portals
// (open cursors). A session wraps a shared *perm.Database handle — all
// sessions see the same catalog, data and compiled-query cache — while
// keeping everything client-visible (options, prepared names, cursors)
// private to the client.
//
// Besides the programmatic API, Run gives the service front-ends (permd,
// permcli) a PostgreSQL-flavoured statement dialect on top of plain SQL:
//
//	PREPARE <name> AS <select>       compile once, execute by name
//	EXECUTE <name>                   run a prepared statement
//	DEALLOCATE [PREPARE] <name>      drop a prepared statement
//	SET <option> = <value>           session options (see SetOption); booleans take on|off
//	SET memory_limit = <size>        per-session memory budget (spill past it)
//	SET parallelism = <n>            intra-query worker count (0 = all cores)
//	SET trace_sample = <n>           trace every Nth query (off = none)
//	SET statement_timeout = <d>      per-statement deadline (ms or duration, off = none)
//	CANCEL <query_id>                cancel an in-flight query (any session's)
//
// A session is safe for concurrent use, but is designed for one client:
// the server gives every connection its own session.
package session

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"perm"
	"perm/internal/mem"
	"perm/internal/obs"
)

// Session is one client's state against a shared database.
type Session struct {
	mu       sync.Mutex
	db       *perm.Database
	closed   bool
	prepared map[string]*perm.Prepared
	portals  map[string]*perm.Cursor
	// baseMemLimit is the server-configured memory limit the session
	// started with; SET memory_limit = 0 restores it. baseParallelism,
	// baseTraceSample and baseStatementTimeout are the same for the
	// intra-query worker count, the trace sampling rate and the
	// statement timeout.
	baseMemLimit         int64
	baseParallelism      int
	baseTraceSample      int
	baseStatementTimeout time.Duration
}

// New returns a session over the database (inheriting its options).
// The session gets its own database handle — and therefore its own
// memory budget under the shared engine governor — so concurrent
// sessions spill independently instead of draining one shared budget.
func New(db *perm.Database) *Session {
	obs.SessionsActive.Inc()
	return &Session{
		db:                   db.WithOptions(db.Opts()),
		prepared:             make(map[string]*perm.Prepared),
		portals:              make(map[string]*perm.Cursor),
		baseMemLimit:         db.Opts().MemoryLimit,
		baseParallelism:      db.Opts().Parallelism,
		baseTraceSample:      db.Opts().TraceSample,
		baseStatementTimeout: db.Opts().StatementTimeout,
	}
}

// DB returns the session's database handle (carrying the session's
// current options).
func (s *Session) DB() *perm.Database {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db
}

// Query runs a SELECT/EXPLAIN under the session's options.
func (s *Session) Query(text string) (*perm.Result, error) {
	return s.DB().Query(text)
}

// Exec runs DDL/DML under the session's options.
func (s *Session) Exec(text string) (int, error) {
	return s.DB().Exec(text)
}

// Explain returns the physical plan of a query as text.
func (s *Session) Explain(text string) (string, error) {
	return s.DB().ExplainSQL(text)
}

// ExplainAnalyze executes a query under instrumentation and returns the
// plan annotated with per-operator runtime statistics.
func (s *Session) ExplainAnalyze(text string) (string, error) {
	return s.DB().ExplainAnalyzeSQL(text)
}

// Prepare compiles a SELECT under the given name. Re-preparing an
// existing name replaces it (the old statement is deallocated), matching
// the server protocol's idempotent PREPARE.
func (s *Session) Prepare(name, text string) error {
	if name == "" {
		return fmt.Errorf("prepared statement needs a name")
	}
	p, err := s.DB().Prepare(text)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if _, replaced := s.prepared[name]; !replaced {
		obs.PreparedStatements.Inc()
	}
	s.prepared[name] = p
	s.mu.Unlock()
	return nil
}

// Execute runs a prepared statement by name.
func (s *Session) Execute(name string) (*perm.Result, error) {
	s.mu.Lock()
	p, ok := s.prepared[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("prepared statement %q does not exist", name)
	}
	return p.Run()
}

// Deallocate drops a prepared statement.
func (s *Session) Deallocate(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.prepared[name]; !ok {
		return fmt.Errorf("prepared statement %q does not exist", name)
	}
	delete(s.prepared, name)
	obs.PreparedStatements.Dec()
	return nil
}

// Prepared returns the sorted names of the session's prepared statements.
func (s *Session) Prepared() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.prepared))
	for n := range s.prepared {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// OpenPortal opens a named cursor over a prepared statement. The portal
// reads the data snapshot taken now; concurrent DML does not move it.
func (s *Session) OpenPortal(portal, stmt string) error {
	if portal == "" {
		return fmt.Errorf("portal needs a name")
	}
	s.mu.Lock()
	p, ok := s.prepared[stmt]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("prepared statement %q does not exist", stmt)
	}
	if _, ok := s.portals[portal]; ok {
		s.mu.Unlock()
		return fmt.Errorf("portal %q is already open", portal)
	}
	s.mu.Unlock()
	cur, err := p.Start()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.portals[portal]; ok {
		cur.Close() //nolint:errcheck
		return fmt.Errorf("portal %q is already open", portal)
	}
	s.portals[portal] = cur
	return nil
}

// FetchPortal pulls up to max rows (max <= 0: all remaining) from an
// open portal. Exhaustion returns an empty batch.
func (s *Session) FetchPortal(portal string, max int) ([][]perm.Value, error) {
	s.mu.Lock()
	cur, ok := s.portals[portal]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("portal %q is not open", portal)
	}
	return cur.Fetch(max)
}

// PortalColumns returns the output column names of an open portal.
func (s *Session) PortalColumns(portal string) ([]string, error) {
	s.mu.Lock()
	cur, ok := s.portals[portal]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("portal %q is not open", portal)
	}
	return cur.Columns(), nil
}

// ClosePortal closes and forgets a portal.
func (s *Session) ClosePortal(portal string) error {
	s.mu.Lock()
	cur, ok := s.portals[portal]
	delete(s.portals, portal)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("portal %q is not open", portal)
	}
	return cur.Close()
}

// Close releases every portal and prepared statement. Closing an
// already-closed session is a no-op.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cur := range s.portals {
		cur.Close() //nolint:errcheck
	}
	s.portals = make(map[string]*perm.Cursor)
	if !s.closed {
		s.closed = true
		obs.SessionsActive.Dec()
		obs.PreparedStatements.Add(-int64(len(s.prepared)))
	}
	s.prepared = make(map[string]*perm.Prepared)
}

// settable is every session option SET accepts, with the function that
// applies a value to an option set. SetOption dispatches on this table
// and names it in its unknown-option error, so the two cannot disagree.
// value arrives trimmed and lower-cased.
var settable = []struct {
	name string
	set  func(s *Session, opts *perm.Options, value string) error
}{
	{"flatten_setops", boolOption(func(o *perm.Options) *bool { return &o.FlattenSetOps })},
	{"disable_optimizer", boolOption(func(o *perm.Options) *bool { return &o.DisableOptimizer })},
	{"disable_vectorized", boolOption(func(o *perm.Options) *bool { return &o.DisableVectorized })},
	{"disable_query_cache", boolOption(func(o *perm.Options) *bool { return &o.DisableQueryCache })},
	{"memory_limit", func(s *Session, opts *perm.Options, v string) error {
		n, err := mem.ParseSize(v)
		if err != nil {
			return err
		}
		if n == 0 {
			// 0 restores the limit the server configured this session
			// with (which may itself defer to PERM_MEMORY_LIMIT).
			n = s.baseMemLimit
		}
		opts.MemoryLimit = n
		return nil
	}},
	{"parallelism", func(s *Session, opts *perm.Options, v string) error {
		if v == "serial" {
			v = "off"
		}
		// 0 restores the worker count the server configured this session
		// with (which may itself defer to PERM_PARALLELISM or GOMAXPROCS).
		n, err := countOrOff(v, s.baseParallelism)
		if err != nil {
			return fmt.Errorf("parallelism must be a non-negative worker count or off, got %q", v)
		}
		opts.Parallelism = n
		return nil
	}},
	{"trace_sample", func(s *Session, opts *perm.Options, v string) error {
		// 0 restores the rate the server configured this session with
		// (which may itself defer to PERM_TRACE_SAMPLE).
		n, err := countOrOff(v, s.baseTraceSample)
		if err != nil {
			return fmt.Errorf("trace_sample must be a non-negative sampling rate or off, got %q", v)
		}
		opts.TraceSample = n
		return nil
	}},
	{"statement_timeout", func(s *Session, opts *perm.Options, v string) error {
		var d time.Duration
		if v == "off" {
			d = -1
		} else if ms, err := strconv.Atoi(v); err == nil {
			// A bare integer is milliseconds, like PostgreSQL's
			// statement_timeout.
			if ms < 0 {
				return fmt.Errorf("statement_timeout must be a non-negative duration or off, got %q", v)
			}
			d = time.Duration(ms) * time.Millisecond
		} else if d, err = time.ParseDuration(v); err != nil || d < 0 {
			return fmt.Errorf("statement_timeout must be milliseconds, a duration like 500ms, or off, got %q", v)
		}
		if d == 0 {
			// 0 restores the timeout the server configured this session
			// with (which may itself defer to PERM_STATEMENT_TIMEOUT).
			d = s.baseStatementTimeout
		}
		opts.StatementTimeout = d
		return nil
	}},
}

func boolOption(field func(*perm.Options) *bool) func(*Session, *perm.Options, string) error {
	return func(_ *Session, opts *perm.Options, v string) error {
		on, err := parseBool(v)
		if err != nil {
			return err
		}
		*field(opts) = on
		return nil
	}
}

// countOrOff parses a non-negative count: "off" is -1 (the Options
// convention for explicitly off) and 0 is base, the server's setting.
func countOrOff(v string, base int) (int, error) {
	if v == "off" {
		return -1, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("not a non-negative count: %q", v)
	}
	if n == 0 {
		n = base
	}
	return n, nil
}

// SetOption changes one session option. Boolean options (value on/off,
// true/false, 1/0): flatten_setops, disable_optimizer,
// disable_vectorized, disable_query_cache. memory_limit takes a byte
// size ("64MiB", "4000000") bounding this session's materializing
// operators — exhausted budgets spill to disk; "off"/"unlimited" lifts
// the session limit and "0" restores the limit the server configured
// this session with. parallelism takes the intra-query worker count (0
// defers to the server's configuration, 1 or "off" forces serial
// plans). trace_sample takes N to trace every Nth statement ("off"
// none, 0 the server's rate). statement_timeout takes a per-statement
// deadline — a plain integer is milliseconds (PostgreSQL convention),
// otherwise a Go duration like "1.5s"; "off" disables the deadline and
// "0" restores the timeout the server configured this session with.
// Prepared statements are re-prepared under the new options so EXECUTE
// always honours the session's current settings.
func (s *Session) SetOption(name, value string) error {
	// The whole read-modify-commit runs under the session lock (Prepare
	// only touches shared engine state, never the session, so holding mu
	// across it is safe): concurrent SetOption calls serialize instead of
	// losing updates, and no Prepare can interleave between the option
	// snapshot and the commit.
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(strings.TrimSpace(name))
	for _, o := range settable {
		if o.name == key {
			opts := s.db.Opts()
			if err := o.set(s, &opts, strings.ToLower(strings.TrimSpace(value))); err != nil {
				return err
			}
			return s.commitOptions(opts)
		}
	}
	names := make([]string, len(settable))
	for i, o := range settable {
		names[i] = o.name
	}
	return fmt.Errorf("unknown option %q (have %s)", name, strings.Join(names, ", "))
}

// commitOptions switches the session to a new option set. Everything
// prepared is re-prepared under the new options before the switch
// commits: a failure leaves both the options and the prepared statements
// exactly as they were. Caller holds s.mu.
func (s *Session) commitOptions(opts perm.Options) error {
	// SameSession: a SET reconfigures this session, it does not create a
	// new identity in perm_stat_activity.
	db := s.db.WithOptionsSameSession(opts)
	reprepared := make(map[string]*perm.Prepared, len(s.prepared))
	for n, p := range s.prepared {
		np, err := db.Prepare(p.Text())
		if err != nil {
			return fmt.Errorf("re-preparing %q under new options: %v", n, err)
		}
		reprepared[n] = np
	}
	s.db = db
	s.prepared = reprepared
	return nil
}

func parseBool(v string) (bool, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "on", "true", "1", "yes":
		return true, nil
	case "off", "false", "0", "no":
		return false, nil
	}
	return false, fmt.Errorf("boolean option value must be on/off, got %q", v)
}

// Outcome is the result of Run: exactly one of Result (queries) or the
// Tag/Affected pair (everything else) is meaningful.
type Outcome struct {
	Result   *perm.Result // non-nil for statements that return rows
	Affected int          // rows affected (DML)
	Tag      string       // completion tag, e.g. "PREPARE", "SET", "OK"
}

// Run executes one statement of the service dialect: PREPARE/EXECUTE/
// DEALLOCATE/SET are handled by the session, SELECT/EXPLAIN run as
// queries, and everything else goes through Exec. A trailing semicolon
// is tolerated.
func (s *Session) Run(text string) (*Outcome, error) {
	stmt := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(text), ";"))
	if stmt == "" {
		return &Outcome{Tag: "OK"}, nil
	}
	word, rest := splitWord(stmt)
	switch strings.ToUpper(word) {
	case "PREPARE":
		name, rest := splitWord(rest)
		as, body := splitWord(rest)
		if name == "" || !strings.EqualFold(as, "AS") || strings.TrimSpace(body) == "" {
			return nil, fmt.Errorf("usage: PREPARE <name> AS <select>")
		}
		if err := s.Prepare(name, strings.TrimSpace(body)); err != nil {
			return nil, err
		}
		return &Outcome{Tag: "PREPARE"}, nil
	case "EXECUTE":
		name, extra := splitWord(rest)
		if name == "" || strings.TrimSpace(extra) != "" {
			return nil, fmt.Errorf("usage: EXECUTE <name>")
		}
		res, err := s.Execute(name)
		if err != nil {
			return nil, err
		}
		return &Outcome{Result: res}, nil
	case "DEALLOCATE":
		name, extra := splitWord(rest)
		if strings.EqualFold(name, "PREPARE") {
			name, extra = splitWord(extra)
		}
		if name == "" || strings.TrimSpace(extra) != "" {
			return nil, fmt.Errorf("usage: DEALLOCATE [PREPARE] <name>")
		}
		if err := s.Deallocate(name); err != nil {
			return nil, err
		}
		return &Outcome{Tag: "DEALLOCATE"}, nil
	case "SET":
		name, value, ok := splitSet(rest)
		if !ok {
			return nil, fmt.Errorf("usage: SET <option> = <value>")
		}
		if err := s.SetOption(name, value); err != nil {
			return nil, err
		}
		return &Outcome{Tag: "SET"}, nil
	case "SELECT", "EXPLAIN":
		res, err := s.Query(stmt)
		if err != nil {
			return nil, err
		}
		return &Outcome{Result: res}, nil
	case "CANCEL":
		if _, err := s.Exec(stmt); err != nil {
			return nil, err
		}
		return &Outcome{Tag: "CANCEL"}, nil
	default:
		if strings.HasPrefix(stmt, "(") {
			res, err := s.Query(stmt)
			if err != nil {
				return nil, err
			}
			return &Outcome{Result: res}, nil
		}
		n, err := s.Exec(stmt)
		if err != nil {
			return nil, err
		}
		return &Outcome{Affected: n, Tag: "OK"}, nil
	}
}

// splitWord splits off the first whitespace-delimited word.
func splitWord(s string) (word, rest string) {
	s = strings.TrimSpace(s)
	i := strings.IndexFunc(s, func(r rune) bool { return r == ' ' || r == '\t' || r == '\n' || r == '\r' })
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i+1:])
}

// splitSet parses "name = value" or "name TO value".
func splitSet(s string) (name, value string, ok bool) {
	if i := strings.Index(s, "="); i >= 0 {
		return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:]), true
	}
	name, rest := splitWord(s)
	to, value := splitWord(rest)
	if strings.EqualFold(to, "TO") && name != "" && value != "" {
		return name, value, true
	}
	return "", "", false
}
