// Virtual system tables: relations whose rows are produced by a
// callback at scan time instead of being stored in a heap. The engine
// registers its introspection views here (perm_stat_activity,
// perm_stat_statements, perm_traces, perm_metrics); the analyzer and
// planner resolve them like any other relation, so they compose with
// the entire SQL surface — joins, aggregates, even provenance rewrites.
package catalog

import (
	"fmt"

	"perm/internal/types"
)

// VirtualTable is a read-only relation backed by a row generator. Rows
// is called at execution time (every scan sees a fresh snapshot) and
// must return rows matching Cols in width and type.
type VirtualTable struct {
	Name string
	Cols []Column
	Rows func() []types.Row
}

// ColIndex returns the position of the named column, or -1.
func (v *VirtualTable) ColIndex(name string) int {
	for i, c := range v.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// RegisterVirtual adds a virtual table. Virtual names share the relation
// namespace: registration fails if a table or view of the same name
// exists, and CreateTable/CreateView refuse names taken by a virtual
// table. Virtual tables are engine-defined and never dropped, so
// registration happens once at database construction.
func (c *Catalog) RegisterVirtual(v *VirtualTable) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.virtual == nil {
		c.virtual = make(map[string]*VirtualTable)
	}
	if _, ok := c.tables[v.Name]; ok {
		return fmt.Errorf("table %q already exists", v.Name)
	}
	if _, ok := c.views[v.Name]; ok {
		return fmt.Errorf("view %q already exists", v.Name)
	}
	if _, ok := c.virtual[v.Name]; ok {
		return fmt.Errorf("virtual table %q already exists", v.Name)
	}
	c.virtual[v.Name] = v
	c.version.Add(1)
	return nil
}

// Virtual looks up a virtual table.
func (c *Catalog) Virtual(name string) (*VirtualTable, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.virtual[name]
	return v, ok
}
