// Package analyze performs semantic analysis: it turns parsed SQL
// statements into typed algebra.Query trees. This covers the "Parser &
// Analyzer" and "Rewriter" (view unfolding) stages of the paper's Fig. 5,
// producing exactly the query-tree shape the provenance rewriter consumes.
//
// Responsibilities: name resolution with proper scoping, view unfolding,
// star expansion, type checking, aggregate/GROUP BY validation, lowering
// of sugar (BETWEEN, IN-list, CASE operand form, EXTRACT), and rejection of
// correlated sublinks (unsupported, as in the paper's prototype).
package analyze

import (
	"fmt"
	"strings"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/provrewrite"
	"perm/internal/sql"
	"perm/internal/types"
)

// Analyzer resolves statements against a catalog.
type Analyzer struct {
	cat *catalog.Catalog

	// lifted holds the leaf statements whose PROVENANCE keyword a
	// set-operation statement now under analysis has taken for itself. The
	// parse tree is not the analyzer's to change: a view's definition is
	// analysed again at every use.
	lifted map[*sql.SelectStmt]bool
}

// New returns an analyzer over the given catalog.
func New(cat *catalog.Catalog) *Analyzer { return &Analyzer{cat: cat} }

// rewriteIfRequested applies the provenance rewrite to a subquery marked
// with SELECT PROVENANCE, so that its provenance attributes are resolvable
// by name in enclosing queries (the analyzer changes §IV-B describes).
func (a *Analyzer) rewriteIfRequested(q *algebra.Query) (*algebra.Query, error) {
	if q == nil || !q.ProvenanceRequested {
		return q, nil
	}
	return provrewrite.Rewrite(q)
}

// ErrCorrelated is returned (wrapped) when a sublink references a column of
// an enclosing query. The paper's prototype has the same limitation (§IV-E).
var ErrCorrelated = fmt.Errorf("correlated sublinks are not supported")

// scope is one level of name visibility: the RTEs of a query under
// analysis. Scopes nest for sublinks; resolution never crosses into an
// outer scope (that would be correlation) but we look there to produce a
// precise error.
type scope struct {
	rtes  []*algebra.RTE
	outer *scope
}

func (s *scope) addRTE(r *algebra.RTE) int {
	s.rtes = append(s.rtes, r)
	return len(s.rtes) - 1
}

// resolve finds a column in this scope only. Returns the var or an error
// listing ambiguity.
func (s *scope) resolve(table, column string) (*algebra.Var, error) {
	var found *algebra.Var
	for rt, rte := range s.rtes {
		if table != "" && rte.Alias != table {
			continue
		}
		for ci, col := range rte.Cols {
			if col.Name != column {
				continue
			}
			if found != nil {
				return nil, fmt.Errorf("column reference %q is ambiguous", refName(table, column))
			}
			found = &algebra.Var{RT: rt, Col: ci, Name: col.Name, Typ: col.Type}
		}
	}
	if found == nil {
		return nil, nil
	}
	return found, nil
}

func refName(table, column string) string {
	if table == "" {
		return column
	}
	return table + "." + column
}

// AnalyzeSelect analyzes a SELECT statement into a query tree.
func (a *Analyzer) AnalyzeSelect(stmt *sql.SelectStmt) (*algebra.Query, error) {
	return a.analyzeSelect(stmt, nil)
}

func (a *Analyzer) analyzeSelect(stmt *sql.SelectStmt, outer *scope) (*algebra.Query, error) {
	if stmt.Op != sql.SetNone {
		return a.analyzeSetOp(stmt, outer)
	}
	return a.analyzePlain(stmt, outer)
}

// ---------------------------------------------------------------------------
// Set operations

func (a *Analyzer) analyzeSetOp(stmt *sql.SelectStmt, outer *scope) (*algebra.Query, error) {
	q := &algebra.Query{ProvenanceRequested: stmt.Provenance}
	// A PROVENANCE keyword in the select-clause of the leftmost branch
	// marks the whole set-operation statement for rewriting, as in the
	// PostgreSQL prototype where the flag sits on the statement's query
	// node (§IV-B3).
	if lm := leftmostLeafStmt(stmt); lm != nil && lm.Provenance && !a.lifted[lm] {
		if a.lifted == nil {
			a.lifted = make(map[*sql.SelectStmt]bool)
		}
		a.lifted[lm] = true
		defer delete(a.lifted, lm)
		q.ProvenanceRequested = true
	}
	// The top-level operation is split manually (its ORDER BY/LIMIT belong
	// to the whole statement); nested branches go through buildSetOpTree,
	// which wraps branches carrying their own ORDER BY/LIMIT as subqueries.
	var opKind algebra.SetOpKind
	switch stmt.Op {
	case sql.SetUnion:
		opKind = algebra.SetUnion
	case sql.SetIntersect:
		opKind = algebra.SetIntersect
	case sql.SetExcept:
		opKind = algebra.SetExcept
	default:
		return nil, fmt.Errorf("internal: bad set operation")
	}
	left, err := a.buildSetOpTree(stmt.Left, q, outer)
	if err != nil {
		return nil, err
	}
	right, err := a.buildSetOpTree(stmt.Right, q, outer)
	if err != nil {
		return nil, err
	}
	ls, rs := a.leafSchema(q, left), a.leafSchema(q, right)
	if len(ls) != len(rs) {
		return nil, fmt.Errorf("%s requires inputs with the same number of columns (%d vs %d)",
			stmt.Op, len(ls), len(rs))
	}
	for i := range ls {
		if _, err := types.CommonKind(ls[i].Type, rs[i].Type); err != nil {
			return nil, fmt.Errorf("%s column %d: %v", stmt.Op, i+1, err)
		}
	}
	q.SetOp = &algebra.SetOpNode{Op: opKind, All: stmt.All, Left: left, Right: right}

	// The target list passes through the first branch's schema.
	first := firstLeaf(q.SetOp)
	branch := q.RangeTable[first.RT]
	for ci, col := range branch.Cols {
		q.TargetList = append(q.TargetList, algebra.TargetEntry{
			Expr: &algebra.Var{RT: first.RT, Col: ci, Name: col.Name, Typ: col.Type},
			Name: col.Name,
		})
	}
	if err := a.analyzeSortLimit(stmt, q, nil); err != nil {
		return nil, err
	}
	return q, nil
}

// buildSetOpTree recursively analyzes branches, adding them to q's range
// table. stmt nodes with Op form internal nodes; plain selects form leaves.
func (a *Analyzer) buildSetOpTree(stmt *sql.SelectStmt, q *algebra.Query, outer *scope) (algebra.SetOpItem, error) {
	if stmt.Op == sql.SetNone {
		sub, err := a.analyzeSelect(stmt, outer)
		if err != nil {
			return nil, err
		}
		if sub, err = a.rewriteIfRequested(sub); err != nil {
			return nil, err
		}
		rte := &algebra.RTE{
			Kind:     algebra.RTESubquery,
			Alias:    fmt.Sprintf("setop_branch_%d", len(q.RangeTable)+1),
			Subquery: sub,
			Cols:     sub.Schema(),
		}
		rt := len(q.RangeTable)
		q.RangeTable = append(q.RangeTable, rte)
		return &algebra.SetOpLeaf{RT: rt}, nil
	}
	// Nested set-operation statements that carry their own ORDER BY/LIMIT
	// become subquery leaves so the semantics are preserved.
	if len(stmt.OrderBy) > 0 || stmt.Limit != nil || stmt.Offset != nil {
		sub, err := a.analyzeSelect(stmt, outer)
		if err != nil {
			return nil, err
		}
		rte := &algebra.RTE{
			Kind:     algebra.RTESubquery,
			Alias:    fmt.Sprintf("setop_branch_%d", len(q.RangeTable)+1),
			Subquery: sub,
			Cols:     sub.Schema(),
		}
		rt := len(q.RangeTable)
		q.RangeTable = append(q.RangeTable, rte)
		return &algebra.SetOpLeaf{RT: rt}, nil
	}
	var opKind algebra.SetOpKind
	switch stmt.Op {
	case sql.SetUnion:
		opKind = algebra.SetUnion
	case sql.SetIntersect:
		opKind = algebra.SetIntersect
	case sql.SetExcept:
		opKind = algebra.SetExcept
	default:
		return nil, fmt.Errorf("internal: bad set operation")
	}
	left, err := a.buildSetOpTree(stmt.Left, q, outer)
	if err != nil {
		return nil, err
	}
	right, err := a.buildSetOpTree(stmt.Right, q, outer)
	if err != nil {
		return nil, err
	}
	// Union compatibility check between the two sides.
	ls, rs := a.leafSchema(q, left), a.leafSchema(q, right)
	if len(ls) != len(rs) {
		return nil, fmt.Errorf("%s requires inputs with the same number of columns (%d vs %d)",
			stmt.Op, len(ls), len(rs))
	}
	for i := range ls {
		if _, err := types.CommonKind(ls[i].Type, rs[i].Type); err != nil {
			return nil, fmt.Errorf("%s column %d: %v", stmt.Op, i+1, err)
		}
	}
	return &algebra.SetOpNode{Op: opKind, All: stmt.All, Left: left, Right: right}, nil
}

func (a *Analyzer) leafSchema(q *algebra.Query, item algebra.SetOpItem) algebra.Schema {
	switch n := item.(type) {
	case *algebra.SetOpLeaf:
		return q.RangeTable[n.RT].Cols
	case *algebra.SetOpNode:
		return a.leafSchema(q, n.Left)
	default:
		return nil
	}
}

// leftmostLeafStmt returns the leftmost plain-select branch of a
// set-operation statement.
func leftmostLeafStmt(stmt *sql.SelectStmt) *sql.SelectStmt {
	for stmt != nil && stmt.Op != sql.SetNone {
		stmt = stmt.Left
	}
	return stmt
}

func firstLeaf(item algebra.SetOpItem) *algebra.SetOpLeaf {
	for {
		switch n := item.(type) {
		case *algebra.SetOpLeaf:
			return n
		case *algebra.SetOpNode:
			item = n.Left
		default:
			return nil
		}
	}
}

// ---------------------------------------------------------------------------
// Plain (A)SPJ queries

func (a *Analyzer) analyzePlain(stmt *sql.SelectStmt, outer *scope) (*algebra.Query, error) {
	q := &algebra.Query{
		Distinct:            stmt.Distinct,
		ProvenanceRequested: stmt.Provenance && !a.lifted[stmt],
	}
	sc := &scope{outer: outer}

	// FROM clause.
	for _, te := range stmt.From {
		item, err := a.analyzeTableExpr(te, q, sc)
		if err != nil {
			return nil, err
		}
		q.From = append(q.From, item)
	}
	if err := checkDuplicateAliases(q.RangeTable); err != nil {
		return nil, err
	}

	ec := &exprContext{a: a, scope: sc, allowAggs: false, clause: "WHERE"}

	// WHERE.
	if stmt.Where != nil {
		w, err := ec.analyze(stmt.Where)
		if err != nil {
			return nil, err
		}
		if err := requireBool(w, "WHERE"); err != nil {
			return nil, err
		}
		q.Where = w
	}

	// GROUP BY.
	ec.clause = "GROUP BY"
	for _, g := range stmt.GroupBy {
		ge, err := ec.analyze(g)
		if err != nil {
			return nil, err
		}
		if algebra.ContainsAgg(ge) {
			return nil, fmt.Errorf("aggregates are not allowed in GROUP BY")
		}
		q.GroupBy = append(q.GroupBy, ge)
	}

	// Select list (star expansion + aggregate detection).
	ec.allowAggs = true
	ec.clause = "SELECT"
	for _, t := range stmt.Targets {
		if t.Star {
			entries, err := expandStar(sc, t.Table)
			if err != nil {
				return nil, err
			}
			q.TargetList = append(q.TargetList, entries...)
			continue
		}
		e, err := ec.analyze(t.Expr)
		if err != nil {
			return nil, err
		}
		q.TargetList = append(q.TargetList, algebra.TargetEntry{Expr: e, Name: targetName(t, e)})
	}
	if len(q.TargetList) == 0 {
		return nil, fmt.Errorf("select list must not be empty")
	}

	// HAVING.
	if stmt.Having != nil {
		ec.clause = "HAVING"
		h, err := ec.analyze(stmt.Having)
		if err != nil {
			return nil, err
		}
		if err := requireBool(h, "HAVING"); err != nil {
			return nil, err
		}
		q.Having = h
	}

	// Aggregate validation.
	q.HasAggs = false
	for _, te := range q.TargetList {
		if algebra.ContainsAgg(te.Expr) {
			q.HasAggs = true
		}
	}
	if q.Having != nil || len(q.GroupBy) > 0 {
		q.HasAggs = q.HasAggs || algebra.ContainsAgg(q.Having)
	}
	if q.Having != nil && len(q.GroupBy) == 0 && !q.HasAggs {
		// HAVING without aggregation or grouping implies a single group.
		q.HasAggs = true
	}
	if q.Where != nil && algebra.ContainsAgg(q.Where) {
		return nil, fmt.Errorf("aggregates are not allowed in WHERE")
	}
	if q.HasAggs || len(q.GroupBy) > 0 {
		q.HasAggs = true
		for i, te := range q.TargetList {
			if err := checkGrouped(te.Expr, q.GroupBy); err != nil {
				return nil, fmt.Errorf("target %d (%s): %v", i+1, te.Name, err)
			}
		}
		if q.Having != nil {
			if err := checkGrouped(q.Having, q.GroupBy); err != nil {
				return nil, fmt.Errorf("HAVING: %v", err)
			}
		}
	}

	if err := a.analyzeSortLimit(stmt, q, ec); err != nil {
		return nil, err
	}
	return q, nil
}

// analyzeSortLimit resolves ORDER BY (by alias, ordinal, or expression) and
// LIMIT/OFFSET. ec may be nil (set-operation queries): then only aliases
// and ordinals are allowed.
func (a *Analyzer) analyzeSortLimit(stmt *sql.SelectStmt, q *algebra.Query, ec *exprContext) error {
	for _, item := range stmt.OrderBy {
		resolved, err := a.resolveOrderItem(item.Expr, q, ec)
		if err != nil {
			return err
		}
		q.OrderBy = append(q.OrderBy, algebra.SortItem{Expr: resolved, Desc: item.Desc})
	}
	if stmt.Limit != nil {
		n, err := constNonNegInt(stmt.Limit, "LIMIT")
		if err != nil {
			return err
		}
		q.Limit = &algebra.Const{Val: types.NewInt(n)}
	}
	if stmt.Offset != nil {
		n, err := constNonNegInt(stmt.Offset, "OFFSET")
		if err != nil {
			return err
		}
		q.Offset = &algebra.Const{Val: types.NewInt(n)}
	}
	return nil
}

// resolveOrderItem maps an ORDER BY expression to either an output-column
// Var (negative RT marks "output column" — see plan package) or a computed
// expression in the query's scope.
func (a *Analyzer) resolveOrderItem(e sql.Expr, q *algebra.Query, ec *exprContext) (algebra.Expr, error) {
	// Ordinal: ORDER BY 2
	if lit, ok := e.(*sql.Lit); ok && lit.Val.K == types.KindInt {
		n := int(lit.Val.I)
		if n < 1 || n > len(q.TargetList) {
			return nil, fmt.Errorf("ORDER BY position %d is out of range", n)
		}
		return outputColVar(q, n-1), nil
	}
	// Alias: ORDER BY revenue
	if cr, ok := e.(*sql.ColumnRef); ok && cr.Table == "" {
		for i, te := range q.TargetList {
			if te.Name == cr.Column {
				return outputColVar(q, i), nil
			}
		}
	}
	if ec == nil {
		return nil, fmt.Errorf("ORDER BY on a set operation must reference output columns")
	}
	prevClause := ec.clause
	ec.clause = "ORDER BY"
	defer func() { ec.clause = prevClause }()
	resolved, err := ec.analyze(e)
	if err != nil {
		return nil, err
	}
	// If the expression structurally matches a target, sort on the output.
	for i, te := range q.TargetList {
		if algebra.EqualExpr(te.Expr, resolved) {
			return outputColVar(q, i), nil
		}
	}
	if q.HasAggs {
		if err := checkGrouped(resolved, q.GroupBy); err != nil {
			return nil, fmt.Errorf("ORDER BY: %v", err)
		}
	}
	return resolved, nil
}

// OutputRT is the pseudo range-table index used by Vars referring to the
// query's own output columns (ORDER BY aliases/ordinals).
const OutputRT = -1

func outputColVar(q *algebra.Query, i int) *algebra.Var {
	return &algebra.Var{RT: OutputRT, Col: i, Name: q.TargetList[i].Name, Typ: algebra.TypeOf(q.TargetList[i].Expr)}
}

func constNonNegInt(e sql.Expr, clause string) (int64, error) {
	lit, ok := e.(*sql.Lit)
	if !ok || lit.Val.K != types.KindInt {
		return 0, fmt.Errorf("%s must be a non-negative integer constant", clause)
	}
	if lit.Val.I < 0 {
		return 0, fmt.Errorf("%s must not be negative", clause)
	}
	return lit.Val.I, nil
}

func targetName(t sql.SelectTarget, e algebra.Expr) string {
	if t.Alias != "" {
		return t.Alias
	}
	switch n := e.(type) {
	case *algebra.Var:
		return n.Name
	case *algebra.AggRef:
		return n.Fn.String()
	case *algebra.FuncCall:
		return n.Name
	default:
		return "?column?"
	}
}

func expandStar(sc *scope, table string) ([]algebra.TargetEntry, error) {
	var out []algebra.TargetEntry
	matched := false
	for rt, rte := range sc.rtes {
		if table != "" && rte.Alias != table {
			continue
		}
		matched = true
		for ci, col := range rte.Cols {
			out = append(out, algebra.TargetEntry{
				Expr: &algebra.Var{RT: rt, Col: ci, Name: col.Name, Typ: col.Type},
				Name: col.Name,
			})
		}
	}
	if !matched {
		if table != "" {
			return nil, fmt.Errorf("relation %q not found in FROM clause", table)
		}
		return nil, fmt.Errorf("SELECT * requires a FROM clause")
	}
	return out, nil
}

func checkDuplicateAliases(rtes []*algebra.RTE) error {
	seen := make(map[string]bool, len(rtes))
	for _, rte := range rtes {
		if seen[rte.Alias] {
			return fmt.Errorf("table alias %q used more than once", rte.Alias)
		}
		seen[rte.Alias] = true
	}
	return nil
}

func requireBool(e algebra.Expr, clause string) error {
	t := algebra.TypeOf(e)
	if t != types.KindBool && t != types.KindNull {
		return fmt.Errorf("%s condition must be boolean, got %s", clause, t)
	}
	return nil
}

// checkGrouped verifies that the expression only references grouped
// columns outside of aggregates.
func checkGrouped(e algebra.Expr, groupBy []algebra.Expr) error {
	for _, g := range groupBy {
		if algebra.EqualExpr(e, g) {
			return nil
		}
	}
	switch n := e.(type) {
	case nil:
		return nil
	case *algebra.Var:
		return fmt.Errorf("column %q must appear in GROUP BY or be used in an aggregate", n.Name)
	case *algebra.Const:
		return nil
	case *algebra.AggRef:
		return nil // anything under an aggregate is fine
	case *algebra.BinOp:
		if err := checkGrouped(n.Left, groupBy); err != nil {
			return err
		}
		return checkGrouped(n.Right, groupBy)
	case *algebra.UnOp:
		return checkGrouped(n.Expr, groupBy)
	case *algebra.IsNull:
		return checkGrouped(n.Expr, groupBy)
	case *algebra.DistinctFrom:
		if err := checkGrouped(n.Left, groupBy); err != nil {
			return err
		}
		return checkGrouped(n.Right, groupBy)
	case *algebra.FuncCall:
		for _, arg := range n.Args {
			if err := checkGrouped(arg, groupBy); err != nil {
				return err
			}
		}
		return nil
	case *algebra.CaseExpr:
		for _, w := range n.Whens {
			if err := checkGrouped(w.Cond, groupBy); err != nil {
				return err
			}
			if err := checkGrouped(w.Result, groupBy); err != nil {
				return err
			}
		}
		return checkGrouped(n.Else, groupBy)
	case *algebra.Cast:
		return checkGrouped(n.Expr, groupBy)
	case *algebra.SubLink:
		return checkGrouped(n.Test, groupBy) // subquery itself is uncorrelated
	default:
		return fmt.Errorf("unexpected expression %T in grouped query", e)
	}
}

// ---------------------------------------------------------------------------
// FROM items

func (a *Analyzer) analyzeTableExpr(te sql.TableExpr, q *algebra.Query, sc *scope) (algebra.FromItem, error) {
	switch n := te.(type) {
	case *sql.TableName:
		rte, err := a.resolveTableName(n, sc)
		if err != nil {
			return nil, err
		}
		rt := sc.addRTE(rte)
		q.RangeTable = append(q.RangeTable, rte)
		return &algebra.FromRef{RT: rt}, nil
	case *sql.SubqueryExpr:
		sub, err := a.analyzeSelect(n.Query, sc.outer)
		if err != nil {
			return nil, err
		}
		// A marked subquery is always rewritten so its provenance schema is
		// visible; a PROVENANCE (attrs) annotation (§IV-A3) then overrides
		// which of the columns the enclosing rewrite treats as provenance.
		if sub, err = a.rewriteIfRequested(sub); err != nil {
			return nil, err
		}
		alias := n.Alias
		if alias == "" {
			alias = fmt.Sprintf("subquery_%d", len(q.RangeTable)+1)
		}
		rte := &algebra.RTE{
			Kind:         algebra.RTESubquery,
			Alias:        alias,
			Subquery:     sub,
			Cols:         sub.Schema(),
			BaseRelation: n.BaseRelation,
		}
		if err := applyProvAttrs(rte, n.ProvAttrs); err != nil {
			return nil, err
		}
		if rte.ProvCols == nil && !n.BaseRelation {
			rte.ProvCols = sub.ProvCols
		}
		rt := sc.addRTE(rte)
		q.RangeTable = append(q.RangeTable, rte)
		return &algebra.FromRef{RT: rt}, nil
	case *sql.JoinExpr:
		return a.analyzeJoin(n, q, sc)
	default:
		return nil, fmt.Errorf("unsupported FROM item %T", te)
	}
}

func (a *Analyzer) resolveTableName(n *sql.TableName, sc *scope) (*algebra.RTE, error) {
	alias := n.Alias
	if alias == "" {
		alias = n.Name
	}
	if t, ok := a.cat.Table(n.Name); ok {
		cols := make(algebra.Schema, len(t.Cols))
		for i, c := range t.Cols {
			cols[i] = algebra.Column{Name: c.Name, Type: c.Type}
		}
		rte := &algebra.RTE{
			Kind:         algebra.RTERelation,
			RelName:      n.Name,
			Alias:        alias,
			Cols:         cols,
			BaseRelation: n.BaseRelation,
		}
		if err := applyProvAttrs(rte, n.ProvAttrs); err != nil {
			return nil, err
		}
		return rte, nil
	}
	if v, ok := a.cat.View(n.Name); ok {
		// View unfolding: analyze the stored definition fresh. Views are
		// never correlated, so no outer scope is passed.
		sub, err := a.analyzeSelect(v.Query, nil)
		if err != nil {
			return nil, fmt.Errorf("in view %q: %v", n.Name, err)
		}
		if sub, err = a.rewriteIfRequested(sub); err != nil {
			return nil, err
		}
		rte := &algebra.RTE{
			Kind:         algebra.RTESubquery,
			Alias:        alias,
			Subquery:     sub,
			Cols:         sub.Schema(),
			BaseRelation: n.BaseRelation,
		}
		if err := applyProvAttrs(rte, n.ProvAttrs); err != nil {
			return nil, err
		}
		if rte.ProvCols == nil && !n.BaseRelation {
			rte.ProvCols = sub.ProvCols
		}
		return rte, nil
	}
	if v, ok := a.cat.Virtual(n.Name); ok {
		// Virtual system table: resolves exactly like a base relation;
		// the planner substitutes the generated rows at scan time.
		cols := make(algebra.Schema, len(v.Cols))
		for i, c := range v.Cols {
			cols[i] = algebra.Column{Name: c.Name, Type: c.Type}
		}
		rte := &algebra.RTE{
			Kind:         algebra.RTERelation,
			RelName:      n.Name,
			Alias:        alias,
			Cols:         cols,
			BaseRelation: n.BaseRelation,
		}
		if err := applyProvAttrs(rte, n.ProvAttrs); err != nil {
			return nil, err
		}
		return rte, nil
	}
	return nil, fmt.Errorf("relation %q does not exist", n.Name)
}

// applyProvAttrs applies a PROVENANCE (attrs) annotation (§IV-A3): the
// listed columns are marked as provenance attributes carrying external or
// previously-stored provenance; the rewriter will treat the item as
// already rewritten.
func applyProvAttrs(rte *algebra.RTE, attrs []string) error {
	if attrs == nil {
		return nil
	}
	rte.HasExternalProv = true
	rte.ProvCols = []algebra.ProvCol{}
	for _, name := range attrs {
		idx := -1
		for ci, col := range rte.Cols {
			if col.Name == name {
				idx = ci
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("PROVENANCE attribute %q not found in %q", name, rte.Alias)
		}
		rte.ProvCols = append(rte.ProvCols, algebra.ProvCol{Col: idx, Name: name})
	}
	return nil
}

func (a *Analyzer) analyzeJoin(n *sql.JoinExpr, q *algebra.Query, sc *scope) (algebra.FromItem, error) {
	left, err := a.analyzeTableExpr(n.Left, q, sc)
	if err != nil {
		return nil, err
	}
	right, err := a.analyzeTableExpr(n.Right, q, sc)
	if err != nil {
		return nil, err
	}
	var kind algebra.JoinKind
	switch n.Kind {
	case sql.JoinInner:
		kind = algebra.JoinInner
	case sql.JoinLeft:
		kind = algebra.JoinLeft
	case sql.JoinRight:
		kind = algebra.JoinRight
	case sql.JoinFull:
		kind = algebra.JoinFull
	case sql.JoinCross:
		kind = algebra.JoinCross
	}
	join := &algebra.FromJoin{Kind: kind, Left: left, Right: right}
	switch {
	case n.On != nil:
		ec := &exprContext{a: a, scope: sc, clause: "JOIN/ON"}
		cond, err := ec.analyze(n.On)
		if err != nil {
			return nil, err
		}
		if err := requireBool(cond, "JOIN/ON"); err != nil {
			return nil, err
		}
		join.Cond = cond
	case len(n.Using) > 0:
		// USING (c1, ...) becomes pairwise equality between the two sides.
		var conds []algebra.Expr
		for _, col := range n.Using {
			lv, err := resolveInItem(sc, left, col)
			if err != nil {
				return nil, err
			}
			rv, err := resolveInItem(sc, right, col)
			if err != nil {
				return nil, err
			}
			conds = append(conds, &algebra.BinOp{Op: "=", Left: lv, Right: rv, Typ: types.KindBool})
		}
		join.Cond = algebra.AndAll(conds)
	case kind != algebra.JoinCross:
		return nil, fmt.Errorf("join requires an ON or USING clause")
	}
	return join, nil
}

// resolveInItem resolves a column name among the RTEs reachable from a
// from-item subtree (for USING).
func resolveInItem(sc *scope, item algebra.FromItem, col string) (*algebra.Var, error) {
	rts := collectRTs(item)
	var found *algebra.Var
	for _, rt := range rts {
		rte := sc.rtes[rt]
		for ci, c := range rte.Cols {
			if c.Name == col {
				if found != nil {
					return nil, fmt.Errorf("USING column %q is ambiguous", col)
				}
				found = &algebra.Var{RT: rt, Col: ci, Name: c.Name, Typ: c.Type}
			}
		}
	}
	if found == nil {
		return nil, fmt.Errorf("USING column %q not found", col)
	}
	return found, nil
}

func collectRTs(item algebra.FromItem) []int {
	switch n := item.(type) {
	case *algebra.FromRef:
		return []int{n.RT}
	case *algebra.FromJoin:
		return append(collectRTs(n.Left), collectRTs(n.Right)...)
	default:
		return nil
	}
}

// ---------------------------------------------------------------------------
// Expressions

type exprContext struct {
	a         *Analyzer
	scope     *scope
	allowAggs bool
	clause    string
	inAgg     bool
}

func (ec *exprContext) analyze(e sql.Expr) (algebra.Expr, error) {
	switch n := e.(type) {
	case *sql.ColumnRef:
		v, err := ec.scope.resolve(n.Table, n.Column)
		if err != nil {
			return nil, err
		}
		if v != nil {
			return v, nil
		}
		// Not in the current scope: check outer scopes to give the precise
		// "correlated" diagnosis the paper's prototype gives.
		for s := ec.scope.outer; s != nil; s = s.outer {
			ov, err := s.resolve(n.Table, n.Column)
			if err == nil && ov != nil {
				return nil, fmt.Errorf("%w: reference to outer column %q",
					ErrCorrelated, refName(n.Table, n.Column))
			}
		}
		return nil, fmt.Errorf("column %q does not exist", refName(n.Table, n.Column))
	case *sql.Lit:
		return &algebra.Const{Val: n.Val}, nil
	case *sql.BinExpr:
		return ec.analyzeBin(n)
	case *sql.UnaryExpr:
		inner, err := ec.analyze(n.Expr)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "NOT":
			if err := requireBool(inner, "NOT"); err != nil {
				return nil, err
			}
			return &algebra.UnOp{Op: "NOT", Expr: inner, Typ: types.KindBool}, nil
		case "-":
			t := algebra.TypeOf(inner)
			if !t.Numeric() && t != types.KindInterval && t != types.KindNull {
				return nil, fmt.Errorf("cannot negate %s", t)
			}
			return &algebra.UnOp{Op: "-", Expr: inner, Typ: t}, nil
		default:
			return inner, nil
		}
	case *sql.IsNullExpr:
		inner, err := ec.analyze(n.Expr)
		if err != nil {
			return nil, err
		}
		return &algebra.IsNull{Expr: inner, Not: n.Not}, nil
	case *sql.DistinctExpr:
		l, err := ec.analyze(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := ec.analyze(n.Right)
		if err != nil {
			return nil, err
		}
		return &algebra.DistinctFrom{Left: l, Right: r, Not: n.Not}, nil
	case *sql.BetweenExpr:
		// x BETWEEN lo AND hi → x >= lo AND x <= hi
		x, err := ec.analyze(n.Expr)
		if err != nil {
			return nil, err
		}
		lo, err := ec.analyze(n.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := ec.analyze(n.Hi)
		if err != nil {
			return nil, err
		}
		ge := &algebra.BinOp{Op: ">=", Left: x, Right: lo, Typ: types.KindBool}
		le := &algebra.BinOp{Op: "<=", Left: algebra.CopyExpr(x), Right: hi, Typ: types.KindBool}
		both := &algebra.BinOp{Op: "AND", Left: ge, Right: le, Typ: types.KindBool}
		if n.Not {
			return &algebra.UnOp{Op: "NOT", Expr: both, Typ: types.KindBool}, nil
		}
		return both, nil
	case *sql.InListExpr:
		// x IN (a, b, ...) → x = a OR x = b OR ...
		x, err := ec.analyze(n.Expr)
		if err != nil {
			return nil, err
		}
		var ors algebra.Expr
		for _, item := range n.List {
			iv, err := ec.analyze(item)
			if err != nil {
				return nil, err
			}
			eq := &algebra.BinOp{Op: "=", Left: algebra.CopyExpr(x), Right: iv, Typ: types.KindBool}
			if ors == nil {
				ors = eq
			} else {
				ors = &algebra.BinOp{Op: "OR", Left: ors, Right: eq, Typ: types.KindBool}
			}
		}
		if n.Not {
			return &algebra.UnOp{Op: "NOT", Expr: ors, Typ: types.KindBool}, nil
		}
		return ors, nil
	case *sql.FuncExpr:
		return ec.analyzeFunc(n)
	case *sql.CaseExpr:
		return ec.analyzeCase(n)
	case *sql.CastExpr:
		inner, err := ec.analyze(n.Expr)
		if err != nil {
			return nil, err
		}
		return &algebra.Cast{Expr: inner, To: n.Type}, nil
	case *sql.ExtractExpr:
		inner, err := ec.analyze(n.Expr)
		if err != nil {
			return nil, err
		}
		t := algebra.TypeOf(inner)
		if t != types.KindDate && t != types.KindNull {
			return nil, fmt.Errorf("EXTRACT requires a date operand, got %s", t)
		}
		return &algebra.FuncCall{
			Name: "extract_" + strings.ToLower(n.Field),
			Args: []algebra.Expr{inner},
			Typ:  types.KindInt,
		}, nil
	case *sql.SubqueryRef:
		return ec.analyzeSubLink(n)
	default:
		return nil, fmt.Errorf("unsupported expression %T", e)
	}
}

func (ec *exprContext) analyzeBin(n *sql.BinExpr) (algebra.Expr, error) {
	l, err := ec.analyze(n.Left)
	if err != nil {
		return nil, err
	}
	r, err := ec.analyze(n.Right)
	if err != nil {
		return nil, err
	}
	lt, rt := algebra.TypeOf(l), algebra.TypeOf(r)
	switch n.Op {
	case "AND", "OR":
		if err := requireBool(l, n.Op); err != nil {
			return nil, err
		}
		if err := requireBool(r, n.Op); err != nil {
			return nil, err
		}
		return &algebra.BinOp{Op: n.Op, Left: l, Right: r, Typ: types.KindBool}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		// Allow string literals to compare against dates (coerce).
		if lt == types.KindDate && rt == types.KindString {
			r = &algebra.Cast{Expr: r, To: types.KindDate}
			rt = types.KindDate
		}
		if rt == types.KindDate && lt == types.KindString {
			l = &algebra.Cast{Expr: l, To: types.KindDate}
			lt = types.KindDate
		}
		if !types.Comparable(lt, rt) {
			return nil, fmt.Errorf("cannot compare %s with %s", lt, rt)
		}
		return &algebra.BinOp{Op: n.Op, Left: l, Right: r, Typ: types.KindBool}, nil
	case "LIKE":
		if (lt != types.KindString && lt != types.KindNull) || (rt != types.KindString && rt != types.KindNull) {
			return nil, fmt.Errorf("LIKE requires string operands")
		}
		return &algebra.BinOp{Op: "LIKE", Left: l, Right: r, Typ: types.KindBool}, nil
	case "||":
		return &algebra.BinOp{Op: "||", Left: l, Right: r, Typ: types.KindString}, nil
	case "+", "-", "*", "/", "%":
		t, err := arithType(n.Op, lt, rt)
		if err != nil {
			return nil, err
		}
		return &algebra.BinOp{Op: n.Op, Left: l, Right: r, Typ: t}, nil
	default:
		return nil, fmt.Errorf("unknown operator %q", n.Op)
	}
}

func arithType(op string, lt, rt types.Kind) (types.Kind, error) {
	switch {
	case lt == types.KindNull:
		return rt, nil
	case rt == types.KindNull:
		return lt, nil
	case lt.Numeric() && rt.Numeric():
		if lt == types.KindInt && rt == types.KindInt {
			return types.KindInt, nil
		}
		return types.KindFloat, nil
	case op == "+" && lt == types.KindDate && rt == types.KindInterval:
		return types.KindDate, nil
	case op == "+" && lt == types.KindInterval && rt == types.KindDate:
		return types.KindDate, nil
	case op == "-" && lt == types.KindDate && rt == types.KindInterval:
		return types.KindDate, nil
	case op == "-" && lt == types.KindDate && rt == types.KindDate:
		return types.KindInt, nil
	case (op == "+" || op == "-") && lt == types.KindInterval && rt == types.KindInterval:
		return types.KindInterval, nil
	default:
		return types.KindNull, fmt.Errorf("operator %q not defined for %s and %s", op, lt, rt)
	}
}

var aggFns = map[string]algebra.AggFn{
	"count": algebra.AggCount,
	"sum":   algebra.AggSum,
	"avg":   algebra.AggAvg,
	"min":   algebra.AggMin,
	"max":   algebra.AggMax,
}

// scalarFns maps function names to (minArgs, maxArgs, resultKind resolver).
type scalarFn struct {
	minArgs, maxArgs int
	result           func(args []algebra.Expr) (types.Kind, error)
}

func fixedKind(k types.Kind) func([]algebra.Expr) (types.Kind, error) {
	return func([]algebra.Expr) (types.Kind, error) { return k, nil }
}

var scalarFns = map[string]scalarFn{
	"substring": {2, 3, fixedKind(types.KindString)},
	"upper":     {1, 1, fixedKind(types.KindString)},
	"lower":     {1, 1, fixedKind(types.KindString)},
	"length":    {1, 1, fixedKind(types.KindInt)},
	"abs": {1, 1, func(args []algebra.Expr) (types.Kind, error) {
		return algebra.TypeOf(args[0]), nil
	}},
	"round":  {1, 2, fixedKind(types.KindFloat)},
	"floor":  {1, 1, fixedKind(types.KindFloat)},
	"ceil":   {1, 1, fixedKind(types.KindFloat)},
	"sqrt":   {1, 1, fixedKind(types.KindFloat)},
	"power":  {2, 2, fixedKind(types.KindFloat)},
	"concat": {1, 8, fixedKind(types.KindString)},
	"coalesce": {1, 16, func(args []algebra.Expr) (types.Kind, error) {
		k := types.KindNull
		for _, a := range args {
			nk, err := types.CommonKind(k, algebra.TypeOf(a))
			if err != nil {
				return types.KindNull, fmt.Errorf("COALESCE arguments: %v", err)
			}
			k = nk
		}
		return k, nil
	}},
	"extract_year":  {1, 1, fixedKind(types.KindInt)},
	"extract_month": {1, 1, fixedKind(types.KindInt)},
	"extract_day":   {1, 1, fixedKind(types.KindInt)},
}

func (ec *exprContext) analyzeFunc(n *sql.FuncExpr) (algebra.Expr, error) {
	if fn, ok := aggFns[n.Name]; ok {
		if !ec.allowAggs {
			return nil, fmt.Errorf("aggregates are not allowed in %s", ec.clause)
		}
		if ec.inAgg {
			return nil, fmt.Errorf("aggregate calls cannot be nested")
		}
		if n.Star {
			if fn != algebra.AggCount {
				return nil, fmt.Errorf("%s(*) is not valid; only COUNT(*)", n.Name)
			}
			return &algebra.AggRef{Fn: algebra.AggCount, Star: true, Typ: types.KindInt}, nil
		}
		if len(n.Args) != 1 {
			return nil, fmt.Errorf("aggregate %s requires exactly one argument", n.Name)
		}
		ec.inAgg = true
		arg, err := ec.analyze(n.Args[0])
		ec.inAgg = false
		if err != nil {
			return nil, err
		}
		at := algebra.TypeOf(arg)
		var rt types.Kind
		switch fn {
		case algebra.AggCount:
			rt = types.KindInt
		case algebra.AggSum:
			if !at.Numeric() && at != types.KindNull {
				return nil, fmt.Errorf("SUM requires a numeric argument, got %s", at)
			}
			rt = at
			if at == types.KindNull {
				rt = types.KindFloat
			}
		case algebra.AggAvg:
			if !at.Numeric() && at != types.KindNull {
				return nil, fmt.Errorf("AVG requires a numeric argument, got %s", at)
			}
			rt = types.KindFloat
		case algebra.AggMin, algebra.AggMax:
			rt = at
		}
		return &algebra.AggRef{Fn: fn, Arg: arg, Distinct: n.Distinct, Typ: rt}, nil
	}
	def, ok := scalarFns[n.Name]
	if !ok {
		return nil, fmt.Errorf("unknown function %q", n.Name)
	}
	if n.Star {
		return nil, fmt.Errorf("%s(*) is not valid", n.Name)
	}
	if len(n.Args) < def.minArgs || len(n.Args) > def.maxArgs {
		return nil, fmt.Errorf("function %s: wrong number of arguments (%d)", n.Name, len(n.Args))
	}
	args := make([]algebra.Expr, len(n.Args))
	for i, a := range n.Args {
		e, err := ec.analyze(a)
		if err != nil {
			return nil, err
		}
		args[i] = e
	}
	rt, err := def.result(args)
	if err != nil {
		return nil, err
	}
	return &algebra.FuncCall{Name: n.Name, Args: args, Typ: rt}, nil
}

func (ec *exprContext) analyzeCase(n *sql.CaseExpr) (algebra.Expr, error) {
	var operand algebra.Expr
	if n.Operand != nil {
		var err error
		operand, err = ec.analyze(n.Operand)
		if err != nil {
			return nil, err
		}
	}
	ce := &algebra.CaseExpr{}
	resKind := types.KindNull
	for _, w := range n.Whens {
		cond, err := ec.analyze(w.Cond)
		if err != nil {
			return nil, err
		}
		if operand != nil {
			// CASE x WHEN v THEN ... → searched form with x = v.
			cond = &algebra.BinOp{Op: "=", Left: algebra.CopyExpr(operand), Right: cond, Typ: types.KindBool}
		} else if err := requireBool(cond, "CASE/WHEN"); err != nil {
			return nil, err
		}
		res, err := ec.analyze(w.Result)
		if err != nil {
			return nil, err
		}
		nk, err := types.CommonKind(resKind, algebra.TypeOf(res))
		if err != nil {
			return nil, fmt.Errorf("CASE results: %v", err)
		}
		resKind = nk
		ce.Whens = append(ce.Whens, algebra.CaseWhen{Cond: cond, Result: res})
	}
	if n.Else != nil {
		e, err := ec.analyze(n.Else)
		if err != nil {
			return nil, err
		}
		nk, err := types.CommonKind(resKind, algebra.TypeOf(e))
		if err != nil {
			return nil, fmt.Errorf("CASE results: %v", err)
		}
		resKind = nk
		ce.Else = e
	}
	ce.Typ = resKind
	return ce, nil
}

func (ec *exprContext) analyzeSubLink(n *sql.SubqueryRef) (algebra.Expr, error) {
	// Sublinks are analyzed with the current scope as "outer" so that
	// references to it are diagnosed as correlation.
	sub, err := ec.a.analyzeSelect(n.Query, ec.scope)
	if err != nil {
		return nil, err
	}
	if sub, err = ec.a.rewriteIfRequested(sub); err != nil {
		return nil, err
	}
	switch n.Kind {
	case sql.SubScalar:
		if len(sub.TargetList) != 1 {
			return nil, fmt.Errorf("scalar subquery must return exactly one column")
		}
		return &algebra.SubLink{
			Kind:  algebra.SubScalar,
			Query: sub,
			Typ:   algebra.TypeOf(sub.TargetList[0].Expr),
		}, nil
	case sql.SubExists:
		link := &algebra.SubLink{Kind: algebra.SubExists, Query: sub, Typ: types.KindBool}
		if n.Not {
			return &algebra.UnOp{Op: "NOT", Expr: link, Typ: types.KindBool}, nil
		}
		return link, nil
	case sql.SubIn, sql.SubAny, sql.SubAll:
		if len(sub.TargetList) != 1 {
			return nil, fmt.Errorf("subquery in IN/ANY/ALL must return exactly one column")
		}
		test, err := ec.analyze(n.Test)
		if err != nil {
			return nil, err
		}
		st := algebra.TypeOf(sub.TargetList[0].Expr)
		if !types.Comparable(algebra.TypeOf(test), st) {
			return nil, fmt.Errorf("cannot compare %s with subquery column of type %s",
				algebra.TypeOf(test), st)
		}
		kind := algebra.SubAny
		if n.Kind == sql.SubAll {
			kind = algebra.SubAll
		}
		op := n.Op
		if n.Kind == sql.SubIn {
			op = "="
		}
		link := &algebra.SubLink{Kind: kind, Test: test, Op: op, Query: sub, Typ: types.KindBool}
		if n.Not {
			return &algebra.UnOp{Op: "NOT", Expr: link, Typ: types.KindBool}, nil
		}
		return link, nil
	default:
		return nil, fmt.Errorf("unsupported sublink kind")
	}
}
