// Package catalog maintains the schema objects of a Perm database: base
// tables (with their in-memory storage) and views (stored as parsed query
// text, unfolded by the analyzer exactly like PostgreSQL's rewriter stage
// in Fig. 5 of the paper).
package catalog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/types"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type types.Kind
}

// Table is a base relation: schema plus heap storage, plus a lazily
// maintained statistics snapshot (see Stats in stats.go).
type Table struct {
	Name string
	Cols []Column
	Heap *storage.Heap

	stats atomic.Pointer[tableStatsCache]
}

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// View is a named stored query, unfolded at analysis time.
type View struct {
	Name  string
	Query *sql.SelectStmt
}

// Catalog is the collection of schema objects. It is safe for concurrent
// readers; DDL takes the write lock.
//
// The catalog carries a monotonic version counter: every DDL statement
// bumps it internally, and the engine bumps it (via Bump) after DML.
// Compiled-query caches and prepared statements tag their artifacts with
// the version they were compiled under and recompile when it has moved,
// so no cached tree can outlive the schema it was compiled against. A
// compiled tree reads no data, so the DML bump is not needed for that:
// it makes the next execution compile and plan afresh, which is when a
// plan flip with trigger "catalog" is observed.
type Catalog struct {
	version atomic.Uint64
	mu      sync.RWMutex
	tables  map[string]*Table
	views   map[string]*View
	virtual map[string]*VirtualTable
}

// Version returns the current catalog version. It is safe to call
// concurrently with DDL; a reader that compiles against version v and
// later observes Version() != v must discard the compiled artifact.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// Bump advances the catalog version. DDL methods bump internally; the
// engine calls Bump after DML so data changes also invalidate
// version-tagged artifacts.
func (c *Catalog) Bump() { c.version.Add(1) }

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables: make(map[string]*Table),
		views:  make(map[string]*View),
	}
}

// CreateTable adds a base table. It fails if a table or view of the same
// name exists, unless ifNotExists is set and the object is a table.
func (c *Catalog) CreateTable(name string, cols []Column, ifNotExists bool) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		if ifNotExists {
			return c.tables[name], nil
		}
		return nil, fmt.Errorf("table %q already exists", name)
	}
	if _, ok := c.views[name]; ok {
		return nil, fmt.Errorf("view %q already exists", name)
	}
	if _, ok := c.virtual[name]; ok {
		return nil, fmt.Errorf("%q is a system table", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("table %q must have at least one column", name)
	}
	seen := make(map[string]bool, len(cols))
	for _, col := range cols {
		if seen[col.Name] {
			return nil, fmt.Errorf("duplicate column %q in table %q", col.Name, name)
		}
		seen[col.Name] = true
	}
	t := &Table{Name: name, Cols: cols, Heap: storage.NewHeap(len(cols))}
	c.tables[name] = t
	c.version.Add(1)
	return t, nil
}

// CreateView adds a view definition.
func (c *Catalog) CreateView(name string, q *sql.SelectStmt, orReplace bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return fmt.Errorf("table %q already exists", name)
	}
	if _, ok := c.views[name]; ok && !orReplace {
		return fmt.Errorf("view %q already exists", name)
	}
	if _, ok := c.virtual[name]; ok {
		return fmt.Errorf("%q is a system table", name)
	}
	c.views[name] = &View{Name: name, Query: q}
	c.version.Add(1)
	return nil
}

// Drop removes a table or view.
func (c *Catalog) Drop(name string, view, ifExists bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if view {
		if _, ok := c.views[name]; !ok {
			if ifExists {
				return nil
			}
			return fmt.Errorf("view %q does not exist", name)
		}
		delete(c.views, name)
		c.version.Add(1)
		return nil
	}
	if _, ok := c.tables[name]; !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("table %q does not exist", name)
	}
	delete(c.tables, name)
	c.version.Add(1)
	return nil
}

// Table looks up a base table.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// View looks up a view.
func (c *Catalog) View(name string) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[name]
	return v, ok
}

// TableNames returns the sorted names of all base tables.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ViewNames returns the sorted names of all views.
func (c *Catalog) ViewNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.views))
	for n := range c.views {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
