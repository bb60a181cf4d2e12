package perm

import (
	"fmt"
	"sync"

	"perm/internal/algebra"
	"perm/internal/exec"
	"perm/internal/sql"
	"perm/internal/types"
	"perm/internal/vexec"
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
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("PREPARE requires a SELECT statement")
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
	res, err := p.db.executeCompiled(q, "", qr)
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
	node, err := p.db.planner().Plan(q)
	if err != nil {
		return nil, err
	}
	if err := node.Open(); err != nil {
		return nil, err
	}
	schema := q.Schema()
	prov := make([]bool, len(schema))
	for _, pc := range q.ProvCols {
		prov[pc.Col] = true
	}
	c := &Cursor{node: node, cols: schema.Names(), prov: prov}
	// A fully vectorized plan ends in a batch→row adapter: read the
	// batches underneath it, like Query does.
	if rs, ok := node.(*vexec.RowSource); ok {
		c.batches = rs.Input
	}
	return c, nil
}

// Cursor is an open portal: an executing plan from which rows are pulled
// in batches. A Cursor is single-consumer (it holds volcano iterator
// state) and must be Closed when done.
type Cursor struct {
	node    exec.Node
	batches vexec.Node // non-nil: the vectorized plan under node
	pending [][]Value  // boxed rows of the last batch not yet fetched
	cols    []string
	prov    []bool
	done    bool
	closed  bool
}

// Columns returns the output column names.
func (c *Cursor) Columns() []string { return c.cols }

// ProvColumns marks which output columns are provenance attributes.
func (c *Cursor) ProvColumns() []bool { return c.prov }

// Fetch pulls up to max rows (max <= 0 means all remaining). It returns
// an empty slice once the cursor is exhausted.
func (c *Cursor) Fetch(max int) ([][]Value, error) {
	var out [][]Value
	if c.closed {
		return out, nil
	}
	if c.batches == nil {
		return c.fetchRows(max)
	}
	for max <= 0 || len(out) < max {
		if len(c.pending) == 0 {
			if c.done {
				break
			}
			b, err := c.batches.Next()
			if err != nil {
				return out, err
			}
			if b == nil {
				c.done = true
				break
			}
			c.pending = boxBatch(nil, b)
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

// fetchRows is Fetch over a row plan: the rows pulled by one call are
// copied into one slab.
func (c *Cursor) fetchRows(max int) ([][]Value, error) {
	var rows []types.Row
	var err error
	for !c.done && (max <= 0 || len(rows) < max) {
		var r types.Row
		if r, err = c.node.Next(); err != nil {
			break
		}
		if r == nil {
			c.done = true
			break
		}
		rows = append(rows, r)
	}
	return boxRows(nil, rows), err
}

// Close releases the cursor's plan. It is idempotent.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.node.Close()
}
