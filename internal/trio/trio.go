// Package trio reimplements the provenance mechanism of the Trio system
// (Agrawal et al., "An introduction to ULDBs and the Trio system"), the
// baseline of the paper's §V-C comparison.
//
// Trio computes lineage eagerly: when a derived table is created, the
// system records, per result tuple, which input tuples contributed, in
// separate lineage relations. Querying provenance then traces tuples
// iteratively through the lineage relations — one lookup per result tuple
// per transformation step — rather than as a single set-oriented query.
// This per-tuple tracing is the behaviour the paper measures against
// Perm's lazy, single-query rewriting (Fig. 15).
//
// Like the original Trio, the baseline supports only a subset of SQL:
// select-project-join queries and single set operations over base tables
// whose first column is a unique key (Trio's tuple identifiers). It
// supports neither aggregation nor subqueries, as noted in the paper's
// related-work section.
package trio

import (
	"fmt"
	"strings"

	"perm"
	"perm/internal/sql"
)

// System is a Trio-style eager provenance layer over a Perm database.
type System struct {
	db *perm.Database
	// derived tracks the lineage relations of each derived table.
	derived map[string]*derivedTable
	// keyCols caches the first (key) column name per base relation.
	keyCols map[string]string
	seq     int
}

type derivedTable struct {
	name    string
	lineage string   // name of the lineage relation
	sources []string // source base relations, in provenance-column order
	rows    int
}

// New wraps a Perm database with a Trio-style provenance layer.
func New(db *perm.Database) *System {
	return &System{
		db:      db,
		derived: make(map[string]*derivedTable),
		keyCols: make(map[string]string),
	}
}

// Derive executes a query eagerly and stores (a) the result as base table
// name, extended with a tid tuple identifier, and (b) a lineage relation
// name__lineage(tid, source relation, source key) — Trio's
// at-derivation-time provenance computation.
//
// The query must be an SPJ query or single set operation over base tables
// whose first column is the tuple key; aggregation and sublinks are
// rejected, matching Trio's documented limitations.
func (s *System) Derive(name, query string) error {
	toks, err := sql.Tokenize(query)
	if err != nil {
		return fmt.Errorf("trio: %w", err)
	}
	if err := checkSupported(toks); err != nil {
		return err
	}
	// Run the provenance-computing form once (standing in for Trio's
	// instrumented operators: the lineage content is identical).
	res, err := s.db.Query(injectProvenance(query, toks))
	if err != nil {
		return fmt.Errorf("trio: derivation failed: %w", err)
	}

	// Identify the original and provenance columns.
	origWidth := 0
	for i, isProv := range res.ProvColumns {
		if !isProv {
			origWidth = i + 1
		}
	}
	// Group provenance columns by source relation. Rule R1 duplicates a
	// base relation's columns in order, so a relation's group starts at
	// the provenance copy of its first (key) column.
	type provGroup struct {
		rel    string
		keyCol int
	}
	var groups []provGroup
	tables := s.db.Tables()
	for i := origWidth; i < len(res.Columns); i++ {
		colName := res.Columns[i]
		if i >= len(res.ProvColumns) || !res.ProvColumns[i] {
			continue
		}
		rel := sourceRelOf(colName, tables)
		keyCol, err := s.keyColumn(rel)
		if err != nil {
			return err
		}
		rest := strings.TrimPrefix(colName, "prov_")
		if strings.HasSuffix(rest, "_"+keyCol) {
			groups = append(groups, provGroup{rel: rel, keyCol: i})
		}
	}

	// Store the result with tids. Distinct original tuples share a tid;
	// duplicated provenance rows become lineage entries.
	createCols := []string{"tid int"}
	for i := 0; i < origWidth; i++ {
		createCols = append(createCols, fmt.Sprintf("%s %s", res.Columns[i], "text"))
	}
	if _, err := s.db.Exec(fmt.Sprintf("CREATE TABLE %s (%s)", name, strings.Join(createCols, ", "))); err != nil {
		return err
	}
	lineageName := name + "__lineage"
	if _, err := s.db.Exec(fmt.Sprintf(
		"CREATE TABLE %s (tid int, srcrel text, srckey int)", lineageName)); err != nil {
		return err
	}

	tids := make(map[string]int64)
	var inserts strings.Builder
	var lineageInserts strings.Builder
	nextTid := int64(0)
	for _, row := range res.Rows {
		fp := ""
		for i := 0; i < origWidth; i++ {
			fp += row[i].String() + "|"
		}
		tid, seen := tids[fp]
		if !seen {
			tid = nextTid
			nextTid++
			tids[fp] = tid
			vals := []string{fmt.Sprintf("%d", tid)}
			for i := 0; i < origWidth; i++ {
				vals = append(vals, sqlString(row[i].String()))
			}
			fmt.Fprintf(&inserts, "INSERT INTO %s VALUES (%s);\n", name, strings.Join(vals, ", "))
		}
		for _, g := range groups {
			if g.keyCol >= len(row) || row[g.keyCol].IsNull() {
				continue
			}
			fmt.Fprintf(&lineageInserts, "INSERT INTO %s VALUES (%d, %s, %d);\n",
				lineageName, tid, sqlString(g.rel), row[g.keyCol].Int())
		}
	}
	if inserts.Len() > 0 {
		if _, err := s.db.Exec(inserts.String()); err != nil {
			return err
		}
	}
	if lineageInserts.Len() > 0 {
		if _, err := s.db.Exec(lineageInserts.String()); err != nil {
			return err
		}
	}
	sources := make([]string, 0, len(groups))
	for _, g := range groups {
		sources = append(sources, g.rel)
	}
	s.derived[name] = &derivedTable{
		name: name, lineage: lineageName, sources: sources, rows: int(nextTid),
	}
	return nil
}

// Trace returns the source tuples contributing to result tuple tid of a
// derived table, per source relation — one lineage lookup plus one source
// fetch per contributing tuple, Trio's iterative tracing strategy.
func (s *System) Trace(name string, tid int64) (map[string][][]perm.Value, error) {
	d, ok := s.derived[name]
	if !ok {
		return nil, fmt.Errorf("trio: %q is not a derived table", name)
	}
	lres, err := s.db.Query(fmt.Sprintf(
		"SELECT srcrel, srckey FROM %s WHERE tid = %d", d.lineage, tid))
	if err != nil {
		return nil, err
	}
	out := make(map[string][][]perm.Value)
	for _, lrow := range lres.Rows {
		rel := lrow[0].String()
		key := lrow[1].Int()
		keyCol, err := s.keyColumn(rel)
		if err != nil {
			return nil, err
		}
		srcRes, err := s.db.Query(fmt.Sprintf(
			"SELECT * FROM %s WHERE %s = %d", rel, keyCol, key))
		if err != nil {
			return nil, err
		}
		out[rel] = append(out[rel], srcRes.Rows...)
	}
	return out, nil
}

// TraceAll traces the provenance of every tuple of a derived table and
// returns the total number of source tuples fetched. This is the
// "querying the stored provenance" measurement of Fig. 15.
func (s *System) TraceAll(name string) (int, error) {
	d, ok := s.derived[name]
	if !ok {
		return 0, fmt.Errorf("trio: %q is not a derived table", name)
	}
	total := 0
	for tid := int64(0); tid < int64(d.rows); tid++ {
		m, err := s.Trace(name, tid)
		if err != nil {
			return total, err
		}
		for _, rows := range m {
			total += len(rows)
		}
	}
	return total, nil
}

// Drop removes a derived table and its lineage relation.
func (s *System) Drop(name string) error {
	d, ok := s.derived[name]
	if !ok {
		return fmt.Errorf("trio: %q is not a derived table", name)
	}
	if _, err := s.db.Exec("DROP TABLE " + d.name); err != nil {
		return err
	}
	if _, err := s.db.Exec("DROP TABLE " + d.lineage); err != nil {
		return err
	}
	delete(s.derived, name)
	return nil
}

// FreshName returns a unique derived-table name.
func (s *System) FreshName() string {
	s.seq++
	return fmt.Sprintf("trio_derived_%d", s.seq)
}

// DerivedRowCount returns the number of tuples in a derived table.
func (s *System) DerivedRowCount(name string) (int, error) {
	d, ok := s.derived[name]
	if !ok {
		return 0, fmt.Errorf("trio: %q is not a derived table", name)
	}
	return d.rows, nil
}

// keyColumn returns the first column name of a base relation (Trio's
// tuple identifier), cached per relation.
func (s *System) keyColumn(rel string) (string, error) {
	if col, ok := s.keyCols[rel]; ok {
		return col, nil
	}
	res, err := s.db.Query("SELECT * FROM " + rel + " LIMIT 1")
	if err != nil {
		return "", err
	}
	if len(res.Columns) == 0 {
		return "", fmt.Errorf("trio: relation %q has no columns", rel)
	}
	s.keyCols[rel] = res.Columns[0]
	return res.Columns[0], nil
}

// checkSupported rejects query shapes outside Trio's documented subset.
// It decides on keyword tokens, so a column named "selected" or a
// literal 'select' is no subquery.
func checkSupported(toks []sql.Token) error {
	selects, setOps := 0, 0
	for i, tok := range toks {
		// toks ends with TokEOF, so an identifier has a successor.
		if tok.Kind == sql.TokIdent && aggregates[tok.Text] && toks[i+1].Kind == sql.TokOp && toks[i+1].Text == "(" {
			return errAggregation
		}
		if tok.Kind != sql.TokKeyword {
			continue
		}
		switch tok.Text {
		case "GROUP", "HAVING":
			return errAggregation
		case "SELECT":
			selects++
		case "UNION", "INTERSECT", "EXCEPT":
			setOps++
		}
	}
	if selects > 1 && setOps == 0 {
		return fmt.Errorf("trio: subqueries are not supported (as in the original system)")
	}
	if setOps > 1 {
		return fmt.Errorf("trio: only single set operations are supported (as in the original system)")
	}
	return nil
}

var errAggregation = fmt.Errorf("trio: aggregation is not supported (as in the original system)")

// aggregates are the aggregate functions, rejected when called.
var aggregates = map[string]bool{"sum": true, "count": true, "avg": true, "min": true, "max": true}

// injectProvenance adds the PROVENANCE keyword after every SELECT token
// of the query (for set operations, every branch must be rewritten).
func injectProvenance(query string, toks []sql.Token) string {
	var sb strings.Builder
	last := 0
	for _, tok := range toks {
		if tok.Kind == sql.TokKeyword && tok.Text == "SELECT" {
			sb.WriteString(query[last:tok.End])
			sb.WriteString(" PROVENANCE")
			last = tok.End
		}
	}
	sb.WriteString(query[last:])
	return sb.String()
}

func sqlString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// sourceRelOf extracts the base relation name from a provenance attribute
// name (prov_<rel>[_<n>]_<attr>), matching against the known tables.
func sourceRelOf(colName string, tables []string) string {
	rest := strings.TrimPrefix(colName, "prov_")
	best := ""
	for _, t := range tables {
		if strings.HasPrefix(rest, t+"_") && len(t) > len(best) {
			best = t
		}
	}
	if best == "" {
		// Fall back to the first underscore-delimited token.
		if i := strings.Index(rest, "_"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	return best
}
