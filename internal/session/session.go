// Package session implements per-client session state for the Perm query
// service: session-local options and named prepared statements. A
// session wraps a shared *perm.Database handle — all sessions see the
// same catalog, data and compiled-query cache — while keeping everything
// client-visible (options, prepared names) private to the client.
//
// Besides the programmatic API, Run gives the service front-ends (permd,
// permcli) a PostgreSQL-flavoured statement dialect on top of plain SQL:
//
//	PREPARE <name> AS <select>       compile once, execute by name
//	EXECUTE <name>                   run a prepared statement
//	DEALLOCATE [PREPARE] <name>      drop a prepared statement
//	SET <option> = <value>           a session option (the settable entries of perm.Settings)
//	CANCEL <query_id>                cancel an in-flight query (any session's)
//
// A session is safe for concurrent use, but is designed for one client:
// the server gives every connection its own session.
package session

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"perm"
	"perm/internal/obs"
	"perm/internal/sql"
)

// Session is one client's state against a shared database.
type Session struct {
	mu       sync.Mutex
	db       *perm.Database
	closed   bool
	prepared map[string]*perm.Prepared
	// base is the options the server configured the session with;
	// SET <option> = 0 restores the option from it.
	base perm.Options
}

// New returns a session over the database (inheriting its options).
// The session gets its own database handle — and therefore its own
// memory budget under the shared engine governor — so concurrent
// sessions spill independently instead of draining one shared budget.
func New(db *perm.Database) *Session {
	obs.SessionsActive.Inc()
	return &Session{
		db:       db.WithOptions(db.Opts()),
		prepared: make(map[string]*perm.Prepared),
		base:     db.Opts(),
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

// Close releases every prepared statement. Closing an already-closed
// session is a no-op.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		obs.SessionsActive.Dec()
		obs.PreparedStatements.Add(-int64(len(s.prepared)))
	}
	s.prepared = make(map[string]*perm.Prepared)
}

// SetOption executes SET name = value: perm.Settings lists the names
// and how each parses its value, and 0 restores the option the server
// configured this session with. Prepared statements are re-prepared under
// the new options so EXECUTE always honours the session's current
// settings.
func (s *Session) SetOption(name, value string) error {
	// The whole read-modify-commit runs under the session lock (Prepare
	// only touches shared engine state, never the session, so holding mu
	// across it is safe): concurrent SetOption calls serialize instead of
	// losing updates, and no Prepare can interleave between the option
	// snapshot and the commit.
	s.mu.Lock()
	defer s.mu.Unlock()
	opts := s.db.Opts()
	if err := perm.ApplySet(&opts, s.base, name, value); err != nil {
		return err
	}
	return s.commitOptions(opts)
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

// Outcome is the result of Run: exactly one of Result (queries) or the
// Tag/Affected pair (everything else) is meaningful.
type Outcome struct {
	Result   *perm.Result // non-nil for statements that return rows
	Affected int          // rows affected (DML)
	Tag      string       // completion tag, e.g. "PREPARE", "SET", "OK"
}

// Run executes one statement of the service dialect: PREPARE/EXECUTE/
// DEALLOCATE/SET are handled by the session, SELECT/EXPLAIN (or a
// parenthesized query) run as queries, and everything else goes through
// Exec. The statement's first token decides, so leading comments are
// skipped; a trailing semicolon is tolerated.
func (s *Session) Run(text string) (*Outcome, error) {
	stmt := statement(text)
	if stmt == "" {
		return &Outcome{Tag: "OK"}, nil
	}
	// On a lex error first is the zero token, and Exec reports the error.
	first, _ := sql.NewLexer(stmt).Next()
	rest := stmt[first.End:]
	// PREPARE, EXECUTE and DEALLOCATE are no SQL keywords: they lex as
	// (lower-cased) identifiers.
	switch first.Text {
	case "prepare":
		name, rest := splitWord(rest)
		as, body := splitWord(rest)
		if name == "" || !strings.EqualFold(as, "AS") || strings.TrimSpace(body) == "" {
			return nil, fmt.Errorf("usage: PREPARE <name> AS <select>")
		}
		if err := s.Prepare(name, strings.TrimSpace(body)); err != nil {
			return nil, err
		}
		return &Outcome{Tag: "PREPARE"}, nil
	case "execute":
		name, extra := splitWord(rest)
		if name == "" || strings.TrimSpace(extra) != "" {
			return nil, fmt.Errorf("usage: EXECUTE <name>")
		}
		res, err := s.Execute(name)
		if err != nil {
			return nil, err
		}
		return &Outcome{Result: res}, nil
	case "deallocate":
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
	case "SELECT", "EXPLAIN", "(":
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
		n, err := s.Exec(stmt)
		if err != nil {
			return nil, err
		}
		return &Outcome{Affected: n, Tag: "OK"}, nil
	}
}

// Cached reports whether Run would find text's compiled tree in the
// query cache (perm.Database.QueryCached of the text Run compiles).
func (s *Session) Cached(text string) bool {
	return s.DB().QueryCached(statement(text))
}

// statement is the text Run routes and compiles: text without the
// surrounding space and a trailing semicolon.
func statement(text string) string {
	return strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(text), ";"))
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
