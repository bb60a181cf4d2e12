package perm

import (
	"fmt"
	"sync"

	"perm/internal/algebra"
	"perm/internal/sql"
)

// Prepared is a prepared SELECT statement: the statement is parsed and
// compiled (analyzed, provenance-rewritten, optimized) once, and each
// Run plans and executes the compiled tree against the current data.
//
// A Prepared revalidates itself: when DDL or DML has moved the catalog
// version since compilation, the next Run recompiles transparently (like
// PostgreSQL's plan-cache revalidation), so a prepared statement can
// never execute against a schema it was not compiled for. A Prepared is
// safe for concurrent use, though typically owned by one session.
type Prepared struct {
	db   *Database
	text string
	sel  *sql.SelectStmt

	mu  sync.Mutex
	q   *algebra.Query
	ver uint64
}

// Prepare parses and compiles a single plain SELECT statement (no
// SELECT ... INTO, no EXPLAIN) for repeated execution.
func (db *Database) Prepare(text string) (*Prepared, error) {
	sel, err := parseSelect(text, "PREPARE")
	if err != nil {
		return nil, err
	}
	if sel.Into != "" {
		return nil, fmt.Errorf("cannot prepare SELECT ... INTO")
	}
	p := &Prepared{db: db, text: text, sel: sel}
	if _, err := p.compiled(); err != nil {
		return nil, err
	}
	return p, nil
}

// Text returns the statement text the Prepared was built from.
func (p *Prepared) Text() string { return p.text }

// Columns returns the output column names of the statement.
func (p *Prepared) Columns() ([]string, error) {
	q, err := p.compiled()
	if err != nil {
		return nil, err
	}
	return q.Schema().Names(), nil
}

// compiled returns the compiled tree, recompiling if the catalog version
// has moved since the last compilation. The first compile also consults
// the shared query cache, so preparing an already-hot statement is free.
func (p *Prepared) compiled() (*algebra.Query, error) {
	cur := p.db.cat.Version()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.q != nil && p.ver == cur {
		return p.q, nil
	}
	if q, ok := p.db.cacheGet(p.text); ok {
		p.q, p.ver = q, cur
		return q, nil
	}
	q, err := p.db.compileSelect(p.sel, p.text, nil)
	if err != nil {
		p.q = nil
		return nil, err
	}
	p.q, p.ver = q, cur
	return q, nil
}

// Run plans and executes the prepared statement against the current data.
func (p *Prepared) Run() (*Result, error) {
	q, err := p.compiled()
	if err != nil {
		return nil, err
	}
	qr := p.db.beginQuery(p.text)
	res, err := p.db.execute(q, qr)
	qr.finish(err)
	return res, err
}

// Start opens a cursor (a portal, in PostgreSQL terms) over the prepared
// statement: the plan is built and opened now, and rows are pulled
// incrementally with Fetch. The cursor reads the data snapshot taken at
// open time; concurrent DML does not affect an open cursor.
func (p *Prepared) Start() (*Cursor, error) {
	q, err := p.compiled()
	if err != nil {
		return nil, err
	}
	qr := p.db.beginQuery(p.text)
	run, err := p.db.openSelect(q, qr, nil)
	if err != nil {
		qr.finish(err)
		return nil, err
	}
	return &Cursor{run: run, cols: run.res.Columns, prov: run.res.ProvColumns}, nil
}

// Cursor is an open portal: an executing plan from which rows are pulled
// in batches. A Cursor is single-consumer (it holds volcano iterator
// state) and must be Closed when done.
//
// An open cursor is a running statement, from Start until its last row
// is fetched, a Fetch fails, or Close: it has a query ID, shows in
// perm_stat_activity, counts once in perm_stat_statements, and CANCEL
// makes its next Fetch fail with the structured cancellation error. An
// armed statement_timeout covers that whole span, the time the consumer
// spends between fetches included.
type Cursor struct {
	run     *selectRun // nil once the statement has ended
	pending [][]Value  // boxed rows of the last batch not yet fetched
	cols    []string
	prov    []bool
}

// Columns returns the output column names.
func (c *Cursor) Columns() []string { return c.cols }

// ProvColumns marks which output columns are provenance attributes.
func (c *Cursor) ProvColumns() []bool { return c.prov }

// Fetch pulls up to max rows (max <= 0 means all remaining). It returns
// an empty slice once the cursor is exhausted.
func (c *Cursor) Fetch(max int) ([][]Value, error) {
	var out [][]Value
	for max <= 0 || len(out) < max {
		if len(c.pending) == 0 {
			if c.run == nil {
				break
			}
			b, more, err := c.run.step()
			c.pending = b.rows(nil)
			if err != nil || !more {
				_ = c.end(err) // a step error, if any, is the one to report
			}
			if err != nil {
				return out, err
			}
		}
		take := len(c.pending)
		if max > 0 && take > max-len(out) {
			take = max - len(out)
		}
		out = append(out, c.pending[:take]...)
		c.pending = c.pending[take:]
	}
	return out, nil
}

// end finishes the cursor's statement, once: the plan is closed and the
// statement leaves perm_stat_activity for perm_stat_statements.
func (c *Cursor) end(err error) error {
	if c.run == nil {
		return nil
	}
	run := c.run
	c.run = nil
	cerr := run.close(err)
	run.qr.finish(err)
	return cerr
}

// Close releases the cursor's plan and drops rows not yet fetched. It is
// idempotent.
func (c *Cursor) Close() error {
	c.pending = nil
	return c.end(nil)
}
