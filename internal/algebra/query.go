// Package algebra defines the analyzed query-tree representation of the
// Perm engine. It mirrors the PostgreSQL query-node model the paper's
// rewriter operates on (§IV-B): each Query node carries a target list, a
// range table, a join tree and — for set-operation queries — a set
// operation tree. The provenance rewriter (package provrewrite) transforms
// these trees; the planner lowers them to physical plans.
package algebra

import (
	"fmt"
	"slices"
	"strings"

	"perm/internal/types"
)

// Column is a named, typed output column of a relation or query.
type Column struct {
	Name string
	Type types.Kind
}

// Schema is an ordered list of columns.
type Schema []Column

// Kinds returns the column kinds.
func (s Schema) Kinds() []types.Kind {
	ks := make([]types.Kind, len(s))
	for i := range s {
		ks[i] = s[i].Type
	}
	return ks
}

// Names returns the column names.
func (s Schema) Names() []string {
	ns := make([]string, len(s))
	for i := range s {
		ns[i] = s[i].Name
	}
	return ns
}

// RTEKind distinguishes range-table entry kinds.
type RTEKind uint8

// Range-table entry kinds.
const (
	RTERelation RTEKind = iota // base table
	RTESubquery                // derived table (subquery or unfolded view)
)

// RTE is a range-table entry: one FROM item of a query node.
type RTE struct {
	Kind  RTEKind
	Alias string // always set after analysis; unique within the query

	// RTERelation:
	RelName string
	// RTESubquery:
	Subquery *Query

	// Cols is the visible schema of the entry.
	Cols Schema

	// ProvCols marks which columns (by position) carry provenance, with
	// their exported provenance attribute names. Set on entries annotated
	// PROVENANCE (attrs) in SQL (§IV-A3), and on subquery entries whose
	// subquery was already rewritten. Nil means "not rewritten yet".
	ProvCols []ProvCol
	// HasExternalProv records that ProvCols came from an explicit SQL
	// annotation rather than from rewriting.
	HasExternalProv bool
	// BaseRelation marks the entry to be rewritten with rule R1 regardless
	// of its kind (BASERELATION keyword, §IV-A4).
	BaseRelation bool
}

// ProvCol identifies one provenance column of an RTE: the position in the
// entry's visible schema and the provenance attribute name it exports.
type ProvCol struct {
	Col  int
	Name string
}

// JoinKind enumerates join types in the join tree.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinRight
	JoinFull
	JoinCross
)

func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "INNER JOIN"
	case JoinLeft:
		return "LEFT OUTER JOIN"
	case JoinRight:
		return "RIGHT OUTER JOIN"
	case JoinFull:
		return "FULL OUTER JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return "JOIN"
	}
}

// FromItem is a node of the join tree: either a reference to a range-table
// entry or a join of two subtrees.
type FromItem interface{ fromItem() }

// FromRef references range-table entry RT.
type FromRef struct {
	RT int
}

func (*FromRef) fromItem() {}

// FromJoin joins two from-items. Cond is nil for CROSS joins.
type FromJoin struct {
	Kind  JoinKind
	Left  FromItem
	Right FromItem
	Cond  Expr
}

func (*FromJoin) fromItem() {}

// TargetEntry is one output column of a query node: an expression plus the
// exported column name.
type TargetEntry struct {
	Expr Expr
	Name string
}

// SetOpKind enumerates set operations.
type SetOpKind uint8

// Set operation kinds.
const (
	SetUnion SetOpKind = iota
	SetIntersect
	SetExcept
)

func (k SetOpKind) String() string {
	switch k {
	case SetUnion:
		return "UNION"
	case SetIntersect:
		return "INTERSECT"
	case SetExcept:
		return "EXCEPT"
	default:
		return "?"
	}
}

// SetOpNode is a node of the set-operation tree. Leaves are *SetOpLeaf
// referencing range-table entries; inner nodes are *SetOpNode.
type SetOpNode struct {
	Op    SetOpKind
	All   bool // bag semantics (UNION ALL etc.)
	Left  SetOpItem
	Right SetOpItem
}

// SetOpItem is either *SetOpNode or *SetOpLeaf.
type SetOpItem interface{ setOpItem() }

func (*SetOpNode) setOpItem() {}

// SetOpLeaf references the range-table entry holding one input of the set
// operation tree.
type SetOpLeaf struct {
	RT int
}

func (*SetOpLeaf) setOpItem() {}

// SortItem is one ORDER BY entry, referring to a target-list position.
type SortItem struct {
	Expr Expr
	Desc bool
}

// SortKey is one ordering key of a physical sort: a position in the
// operator's input row plus direction. NULLs sort last ascending, first
// descending (PostgreSQL's default), on both engines.
type SortKey struct {
	Pos  int
	Desc bool
}

// Query is an analyzed query node. Exactly one of two shapes applies:
//
//   - Plain node: TargetList/RangeTable/From/Where/GroupBy/Having describe
//     an (A)SPJ query.
//   - Set-operation node: SetOp is non-nil; RangeTable holds the branch
//     subqueries; TargetList is pass-through Vars typed from the first
//     branch.
type Query struct {
	TargetList []TargetEntry
	RangeTable []*RTE
	From       []FromItem // items are implicitly cross-joined, then Where applies
	Where      Expr
	GroupBy    []Expr
	Having     Expr
	HasAggs    bool
	Distinct   bool

	SetOp *SetOpNode

	OrderBy []SortItem
	Limit   Expr
	Offset  Expr

	// ProvenanceRequested marks the node for provenance rewrite
	// (SELECT PROVENANCE). Cleared once rewritten.
	ProvenanceRequested bool

	// ProvCols, set by the rewriter, lists the positions in TargetList
	// that are provenance attributes, with their names (the P-list of the
	// paper's Fig. 3/7).
	ProvCols []ProvCol

	// JoinBack, set by the rewriter on the node rule R5 builds, names the
	// pair that node joins.
	JoinBack *JoinBack
}

// JoinBack tags the top node of rule R5, α_{G,agg}(T) ⋈_G Π_{G,P}(T+):
// range-table entry Agg is the aggregation, entry Prov its rewritten
// duplicate, and AggCols[i] / ProvCols[i] are where the i-th grouping
// expression sits in either entry's output. While Reason is empty the
// optimizer keeps the pair intact and the planner evaluates T+ once for
// both sides; Reason says why a pair keeps the two-sided plan.
type JoinBack struct {
	Agg, Prov         int
	AggCols, ProvCols []int
	Reason            string
}

// Shared reports whether the pair is still to be evaluated by one
// operator (a nil tag is not).
func (jb *JoinBack) Shared() bool { return jb != nil && jb.Reason == "" }

// Shareable reports whether one evaluation of T+ can serve both sides of
// q's join-back, T+ being T row for row: both entries read one
// select-project-join block over the same base relations with the same
// FROM and WHERE, and q still joins them on the tagged grouping columns.
// It returns why not, or "" with what is left of q's join condition and
// WHERE clause besides the grouping-key equalities, and whether the join
// is R5's left join (an aggregation without GROUP BY).
func (jb *JoinBack) Shareable(q *Query) (residual []Expr, left bool, reason string) {
	a, d := q.RangeTable[jb.Agg].Subquery, q.RangeTable[jb.Prov].Subquery
	for _, rte := range append(append([]*RTE{}, a.RangeTable...), d.RangeTable...) {
		if rte.Kind != RTERelation {
			return nil, false, "nested_input"
		}
	}
	if len(a.RangeTable) != len(d.RangeTable) || !EqualExpr(a.Where, d.Where) || !equalFrom(a.From, d.From) {
		return nil, false, "diverged"
	}
	for i, rte := range a.RangeTable {
		if d.RangeTable[i].RelName != rte.RelName {
			return nil, false, "diverged"
		}
	}
	// The pair sits in the implicit join list, or (an inner join the
	// optimizer has not flattened, or the left join) in one explicit join.
	pair := []FromItem{&FromRef{RT: jb.Agg}, &FromRef{RT: jb.Prov}}
	conds := Conjuncts(q.Where)
	if j, ok := q.From[0].(*FromJoin); ok && len(q.From) == 1 && j.Kind <= JoinLeft &&
		(equalFrom([]FromItem{j.Left, j.Right}, pair) || equalFrom([]FromItem{j.Right, j.Left}, pair)) {
		if left = j.Kind == JoinLeft; left {
			residual, conds = conds, Conjuncts(j.Cond) // WHERE filters the left join's result
		} else {
			conds = append(conds, Conjuncts(j.Cond)...)
		}
	} else if !equalFrom(q.From, pair) && !equalFrom(q.From, []FromItem{pair[1], pair[0]}) {
		return nil, false, "diverged"
	}
	if left != (len(a.GroupBy) == 0) || len(jb.AggCols) != len(a.GroupBy) {
		return nil, false, "diverged"
	}
	for i, g := range a.GroupBy {
		av, pv := &Var{RT: jb.Agg, Col: jb.AggCols[i]}, &Var{RT: jb.Prov, Col: jb.ProvCols[i]}
		k := slices.IndexFunc(conds, func(c Expr) bool {
			return EqualExpr(c, &DistinctFrom{Not: true, Left: av, Right: pv}) ||
				EqualExpr(c, &DistinctFrom{Not: true, Left: pv, Right: av})
		})
		if k < 0 || !EqualExpr(a.TargetList[av.Col].Expr, g) || !EqualExpr(d.TargetList[pv.Col].Expr, g) {
			return nil, false, "diverged"
		}
		conds = slices.Delete(conds, k, k+1)
	}
	for _, c := range conds {
		if k, ok := c.(*Const); ok && k.Val.K == types.KindBool && !k.Val.Null && k.Val.B {
			continue // the left join's TRUE
		}
		if left {
			return nil, false, "diverged"
		}
		residual = append(residual, c)
	}
	return residual, left, ""
}

func equalFrom(a, b []FromItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		switch x := a[i].(type) {
		case *FromRef:
			y, ok := b[i].(*FromRef)
			if !ok || x.RT != y.RT {
				return false
			}
		case *FromJoin:
			y, ok := b[i].(*FromJoin)
			if !ok || x.Kind != y.Kind || !EqualExpr(x.Cond, y.Cond) ||
				!equalFrom([]FromItem{x.Left, x.Right}, []FromItem{y.Left, y.Right}) {
				return false
			}
		}
	}
	return true
}

// Schema derives the output schema of the query node.
func (q *Query) Schema() Schema {
	s := make(Schema, len(q.TargetList))
	for i, te := range q.TargetList {
		s[i] = Column{Name: te.Name, Type: TypeOf(te.Expr)}
	}
	return s
}

// IsSetOp reports whether the node is a set-operation node.
func (q *Query) IsSetOp() bool { return q.SetOp != nil }

// ---------------------------------------------------------------------------
// Expressions

// Expr is a typed, resolved scalar expression.
type Expr interface {
	exprNode()
	// Type returns the result kind of the expression.
	Type() types.Kind
}

// Var references column Col of range-table entry RT of the enclosing query.
type Var struct {
	RT   int
	Col  int
	Name string // source column name, for display and deparse
	Typ  types.Kind
}

func (*Var) exprNode()          {}
func (v *Var) Type() types.Kind { return v.Typ }

// Const is a literal.
type Const struct {
	Val types.Value
}

func (*Const) exprNode()          {}
func (c *Const) Type() types.Kind { return c.Val.K }

// BinOp is a binary operator: arithmetic (+ - * / %), comparison
// (= <> < <= > >=), logic (AND OR), LIKE, string concat (||).
type BinOp struct {
	Op    string
	Left  Expr
	Right Expr
	Typ   types.Kind
}

func (*BinOp) exprNode()          {}
func (b *BinOp) Type() types.Kind { return b.Typ }

// UnOp is NOT or unary minus.
type UnOp struct {
	Op   string
	Expr Expr
	Typ  types.Kind
}

func (*UnOp) exprNode()          {}
func (u *UnOp) Type() types.Kind { return u.Typ }

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	Expr Expr
	Not  bool
}

func (*IsNull) exprNode()        {}
func (*IsNull) Type() types.Kind { return types.KindBool }

// DistinctFrom is x IS [NOT] DISTINCT FROM y. The rewriter uses the NOT
// form as the null-safe equality for grouping joins (rule R5) and
// set-operation joins (rules R6-R9).
type DistinctFrom struct {
	Left  Expr
	Right Expr
	Not   bool
}

func (*DistinctFrom) exprNode()        {}
func (*DistinctFrom) Type() types.Kind { return types.KindBool }

// FuncCall is a scalar function call.
type FuncCall struct {
	Name string
	Args []Expr
	Typ  types.Kind
}

func (*FuncCall) exprNode()          {}
func (f *FuncCall) Type() types.Kind { return f.Typ }

// AggFn enumerates the aggregate functions.
type AggFn uint8

// Aggregate functions.
const (
	AggCount AggFn = iota // COUNT(x) and COUNT(*)
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (f AggFn) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "agg"
	}
}

// AggRef is an aggregate invocation inside a target list or HAVING.
type AggRef struct {
	Fn       AggFn
	Arg      Expr // nil for COUNT(*)
	Star     bool
	Distinct bool
	Typ      types.Kind
}

func (*AggRef) exprNode()          {}
func (a *AggRef) Type() types.Kind { return a.Typ }

// CaseWhen is one arm of a CaseExpr.
type CaseWhen struct {
	Cond   Expr
	Result Expr
}

// CaseExpr is a searched CASE (operands are lowered during analysis).
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr // may be nil (NULL)
	Typ   types.Kind
}

func (*CaseExpr) exprNode()          {}
func (c *CaseExpr) Type() types.Kind { return c.Typ }

// Cast converts the operand to a target kind.
type Cast struct {
	Expr Expr
	To   types.Kind
}

func (*Cast) exprNode()          {}
func (c *Cast) Type() types.Kind { return c.To }

// SubLinkKind enumerates sublink forms.
type SubLinkKind uint8

// Sublink kinds.
const (
	SubScalar SubLinkKind = iota
	SubExists
	SubAny // covers IN (op "=") and quantified comparisons
	SubAll
)

// SubLink is an expression subquery (§IV-E). Test is the left operand for
// SubAny/SubAll; Op the comparison operator. Negation is expressed by a
// wrapping UnOp NOT.
type SubLink struct {
	Kind  SubLinkKind
	Test  Expr
	Op    string
	Query *Query
	Typ   types.Kind

	// PlanID is assigned by the planner to identify the subplan.
	PlanID int
}

func (*SubLink) exprNode()          {}
func (s *SubLink) Type() types.Kind { return s.Typ }

// SubLinkValue is the planner-provided runtime of one sublink: a
// materialized (cached) uncorrelated subquery.
type SubLinkValue interface {
	// Scalar returns the single value of a scalar subquery (NULL when the
	// subquery returns no rows; an error when it returns more than one).
	Scalar() (types.Value, error)
	// Exists reports whether the subquery returns at least one row.
	Exists() (bool, error)
	// CompareAny evaluates test op ANY(subquery) under SQL semantics.
	CompareAny(test types.Value, op string) (types.Tri, error)
	// CompareAll evaluates test op ALL(subquery) under SQL semantics.
	CompareAll(test types.Value, op string) (types.Tri, error)
}

// Binder resolves the parts of an expression that depend on plan
// context, for the expression compilers of both engines: a Var's
// position in the input row and a sublink's runtime.
type Binder interface {
	BindVar(v *Var) (int, error)
	BindSubLink(s *SubLink) (SubLinkValue, error)
}

// TypeOf is a convenience for Expr.Type tolerant of nil.
func TypeOf(e Expr) types.Kind {
	if e == nil {
		return types.KindNull
	}
	return e.Type()
}

// ---------------------------------------------------------------------------
// Expression utilities

// VisitExprs walks all expressions of the query node itself (not of
// subqueries in the range table), calling f on each expression tree root.
func (q *Query) VisitExprs(f func(Expr)) {
	for i := range q.TargetList {
		f(q.TargetList[i].Expr)
	}
	if q.Where != nil {
		f(q.Where)
	}
	for _, g := range q.GroupBy {
		f(g)
	}
	if q.Having != nil {
		f(q.Having)
	}
	for i := range q.OrderBy {
		f(q.OrderBy[i].Expr)
	}
	for _, fi := range q.From {
		visitFromConds(fi, f)
	}
}

func visitFromConds(fi FromItem, f func(Expr)) {
	j, ok := fi.(*FromJoin)
	if !ok {
		return
	}
	if j.Cond != nil {
		f(j.Cond)
	}
	visitFromConds(j.Left, f)
	visitFromConds(j.Right, f)
}

// WalkExpr applies f to every node of the expression tree (pre-order).
// It does not descend into sublink subqueries.
func WalkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch n := e.(type) {
	case *BinOp:
		WalkExpr(n.Left, f)
		WalkExpr(n.Right, f)
	case *UnOp:
		WalkExpr(n.Expr, f)
	case *IsNull:
		WalkExpr(n.Expr, f)
	case *DistinctFrom:
		WalkExpr(n.Left, f)
		WalkExpr(n.Right, f)
	case *FuncCall:
		for _, a := range n.Args {
			WalkExpr(a, f)
		}
	case *AggRef:
		WalkExpr(n.Arg, f)
	case *CaseExpr:
		for _, w := range n.Whens {
			WalkExpr(w.Cond, f)
			WalkExpr(w.Result, f)
		}
		WalkExpr(n.Else, f)
	case *Cast:
		WalkExpr(n.Expr, f)
	case *SubLink:
		WalkExpr(n.Test, f)
	}
}

// MapExpr rebuilds the expression tree bottom-up, replacing each node with
// f(node) after its children have been mapped. f receives an already-copied
// node and may return it or a replacement. Sublink subqueries are not
// descended into.
func MapExpr(e Expr, f func(Expr) Expr) Expr { return mapper{f: f}.expr(e) }

// Replace rebuilds the expression tree top-down: a node for which repl
// returns a replacement is replaced, unvisited below; every other node is
// copied with its children replaced in turn. Sublink subqueries are not
// descended into.
func Replace(e Expr, repl func(Expr) Expr) Expr { return mapper{f: repl, topDown: true}.expr(e) }

type mapper struct {
	f       func(Expr) Expr
	topDown bool
}

func (m mapper) expr(e Expr) Expr {
	if e == nil {
		return nil
	}
	if m.topDown {
		if r := m.f(e); r != nil {
			return r
		}
	}
	var c Expr
	switch n := e.(type) {
	case *Var:
		x := *n
		c = &x
	case *Const:
		x := *n
		c = &x
	case *BinOp:
		x := *n
		x.Left, x.Right = m.expr(n.Left), m.expr(n.Right)
		c = &x
	case *UnOp:
		x := *n
		x.Expr = m.expr(n.Expr)
		c = &x
	case *IsNull:
		x := *n
		x.Expr = m.expr(n.Expr)
		c = &x
	case *DistinctFrom:
		x := *n
		x.Left, x.Right = m.expr(n.Left), m.expr(n.Right)
		c = &x
	case *FuncCall:
		x := *n
		x.Args = make([]Expr, len(n.Args))
		for i, a := range n.Args {
			x.Args[i] = m.expr(a)
		}
		c = &x
	case *AggRef:
		x := *n
		x.Arg = m.expr(n.Arg)
		c = &x
	case *CaseExpr:
		x := *n
		x.Whens = make([]CaseWhen, len(n.Whens))
		for i, w := range n.Whens {
			x.Whens[i] = CaseWhen{Cond: m.expr(w.Cond), Result: m.expr(w.Result)}
		}
		x.Else = m.expr(n.Else)
		c = &x
	case *Cast:
		x := *n
		x.Expr = m.expr(n.Expr)
		c = &x
	case *SubLink:
		x := *n
		x.Test = m.expr(n.Test)
		c = &x
	default:
		panic(fmt.Sprintf("algebra.MapExpr: unknown node %T", e))
	}
	if m.topDown {
		return c
	}
	return m.f(c)
}

// EditExpr is MapExpr in place: every child slot of the tree is set to its
// edited self, bottom-up, and f's result for the root is returned. No node
// is copied, and a replacement f returns is not visited. It is only for a
// tree no other tree shares a node with: a compiled tree reaches each
// node once.
func EditExpr(e Expr, f func(Expr) Expr) Expr {
	switch n := e.(type) {
	case nil:
		return nil
	case *Var, *Const:
	case *BinOp:
		n.Left, n.Right = EditExpr(n.Left, f), EditExpr(n.Right, f)
	case *UnOp:
		n.Expr = EditExpr(n.Expr, f)
	case *IsNull:
		n.Expr = EditExpr(n.Expr, f)
	case *DistinctFrom:
		n.Left, n.Right = EditExpr(n.Left, f), EditExpr(n.Right, f)
	case *FuncCall:
		for i, a := range n.Args {
			n.Args[i] = EditExpr(a, f)
		}
	case *AggRef:
		n.Arg = EditExpr(n.Arg, f)
	case *CaseExpr:
		for i := range n.Whens {
			w := &n.Whens[i]
			w.Cond, w.Result = EditExpr(w.Cond, f), EditExpr(w.Result, f)
		}
		n.Else = EditExpr(n.Else, f)
	case *Cast:
		n.Expr = EditExpr(n.Expr, f)
	case *SubLink:
		n.Test = EditExpr(n.Test, f)
	default:
		panic(fmt.Sprintf("algebra.EditExpr: unknown node %T", e))
	}
	return f(e)
}

// CopyExpr deep-copies an expression tree (sublink queries are shared).
func CopyExpr(e Expr) Expr {
	return MapExpr(e, func(x Expr) Expr { return x })
}

// ContainsAgg reports whether the expression contains an aggregate.
func ContainsAgg(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if _, ok := x.(*AggRef); ok {
			found = true
		}
	})
	return found
}

// ContainsSubLink reports whether the expression contains a sublink.
func ContainsSubLink(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if _, ok := x.(*SubLink); ok {
			found = true
		}
	})
	return found
}

// EqualExpr reports structural equality of two expressions (used to match
// GROUP BY expressions against target entries). Sublinks never compare
// equal.
func EqualExpr(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case *Var:
		y, ok := b.(*Var)
		return ok && x.RT == y.RT && x.Col == y.Col
	case *Const:
		y, ok := b.(*Const)
		return ok && !types.Distinct(x.Val, y.Val)
	case *BinOp:
		y, ok := b.(*BinOp)
		return ok && x.Op == y.Op && EqualExpr(x.Left, y.Left) && EqualExpr(x.Right, y.Right)
	case *UnOp:
		y, ok := b.(*UnOp)
		return ok && x.Op == y.Op && EqualExpr(x.Expr, y.Expr)
	case *IsNull:
		y, ok := b.(*IsNull)
		return ok && x.Not == y.Not && EqualExpr(x.Expr, y.Expr)
	case *DistinctFrom:
		y, ok := b.(*DistinctFrom)
		return ok && x.Not == y.Not && EqualExpr(x.Left, y.Left) && EqualExpr(x.Right, y.Right)
	case *FuncCall:
		y, ok := b.(*FuncCall)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !EqualExpr(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *AggRef:
		y, ok := b.(*AggRef)
		return ok && x.Fn == y.Fn && x.Star == y.Star && x.Distinct == y.Distinct && EqualExpr(x.Arg, y.Arg)
	case *Cast:
		y, ok := b.(*Cast)
		return ok && x.To == y.To && EqualExpr(x.Expr, y.Expr)
	case *CaseExpr:
		y, ok := b.(*CaseExpr)
		if !ok || len(x.Whens) != len(y.Whens) || !EqualExpr(x.Else, y.Else) {
			return false
		}
		for i := range x.Whens {
			if !EqualExpr(x.Whens[i].Cond, y.Whens[i].Cond) || !EqualExpr(x.Whens[i].Result, y.Whens[i].Result) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Conjuncts splits an expression into its top-level AND conjuncts.
func Conjuncts(e Expr) []Expr {
	var out []Expr
	EachConjunct(e, func(c Expr) { out = append(out, c) })
	return out
}

// EachConjunct calls f on every top-level AND conjunct of e, in the order
// Conjuncts lists them, without building the list.
func EachConjunct(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	if b, ok := e.(*BinOp); ok && b.Op == "AND" {
		EachConjunct(b.Left, f)
		EachConjunct(b.Right, f)
		return
	}
	f(e)
}

// AndAll combines expressions with AND; nil for empty input.
func AndAll(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &BinOp{Op: "AND", Left: out, Right: e, Typ: types.KindBool}
		}
	}
	return out
}

// VarsUsed collects the distinct RT indices referenced by the expression.
func VarsUsed(e Expr) Bits {
	var s Bits
	WalkExpr(e, func(x Expr) {
		if v, ok := x.(*Var); ok {
			s.Add(v.RT)
		}
	})
	return s
}

// CopyQuery deep-copies a query node, including range-table subqueries.
// Expression sublink subqueries are also copied.
type copier struct{}

// CopyQuery returns a deep copy of q.
func CopyQuery(q *Query) *Query {
	if q == nil {
		return nil
	}
	c := &Query{
		HasAggs:             q.HasAggs,
		Distinct:            q.Distinct,
		ProvenanceRequested: q.ProvenanceRequested,
	}
	c.TargetList = make([]TargetEntry, len(q.TargetList))
	for i, te := range q.TargetList {
		c.TargetList[i] = TargetEntry{Expr: copyExprDeep(te.Expr), Name: te.Name}
	}
	c.RangeTable = make([]*RTE, len(q.RangeTable))
	for i, rte := range q.RangeTable {
		r := *rte
		r.Subquery = CopyQuery(rte.Subquery)
		r.Cols = append(Schema(nil), rte.Cols...)
		r.ProvCols = append([]ProvCol(nil), rte.ProvCols...)
		c.RangeTable[i] = &r
	}
	c.From = make([]FromItem, len(q.From))
	for i, fi := range q.From {
		c.From[i] = copyFromItem(fi)
	}
	c.Where = copyExprDeep(q.Where)
	c.GroupBy = make([]Expr, len(q.GroupBy))
	for i, g := range q.GroupBy {
		c.GroupBy[i] = copyExprDeep(g)
	}
	if len(q.GroupBy) == 0 {
		c.GroupBy = nil
	}
	c.Having = copyExprDeep(q.Having)
	if q.SetOp != nil {
		c.SetOp = copySetOp(q.SetOp).(*SetOpNode)
	}
	c.OrderBy = make([]SortItem, len(q.OrderBy))
	for i, s := range q.OrderBy {
		c.OrderBy[i] = SortItem{Expr: copyExprDeep(s.Expr), Desc: s.Desc}
	}
	if len(q.OrderBy) == 0 {
		c.OrderBy = nil
	}
	c.Limit = copyExprDeep(q.Limit)
	c.Offset = copyExprDeep(q.Offset)
	c.ProvCols = append([]ProvCol(nil), q.ProvCols...)
	if q.JoinBack != nil {
		jb := *q.JoinBack
		jb.AggCols = append([]int(nil), jb.AggCols...)
		jb.ProvCols = append([]int(nil), jb.ProvCols...)
		c.JoinBack = &jb
	}
	return c
}

func copyExprDeep(e Expr) Expr {
	if e == nil {
		return nil
	}
	return MapExpr(e, func(x Expr) Expr {
		if s, ok := x.(*SubLink); ok {
			s.Query = CopyQuery(s.Query) // s is already the mapper's copy
		}
		return x
	})
}

func copyFromItem(fi FromItem) FromItem {
	switch n := fi.(type) {
	case *FromRef:
		c := *n
		return &c
	case *FromJoin:
		return &FromJoin{
			Kind:  n.Kind,
			Left:  copyFromItem(n.Left),
			Right: copyFromItem(n.Right),
			Cond:  copyExprDeep(n.Cond),
		}
	default:
		panic(fmt.Sprintf("algebra.copyFromItem: unknown node %T", fi))
	}
}

func copySetOp(it SetOpItem) SetOpItem {
	switch n := it.(type) {
	case *SetOpLeaf:
		c := *n
		return &c
	case *SetOpNode:
		return &SetOpNode{Op: n.Op, All: n.All, Left: copySetOp(n.Left), Right: copySetOp(n.Right)}
	default:
		panic(fmt.Sprintf("algebra.copySetOp: unknown node %T", it))
	}
}

// String renders a compact description of the query node for debugging.
func (q *Query) String() string {
	var sb strings.Builder
	if q.IsSetOp() {
		fmt.Fprintf(&sb, "SetOpQuery{%d branches}", len(q.RangeTable))
		return sb.String()
	}
	fmt.Fprintf(&sb, "Query{targets=%d, rtes=%d", len(q.TargetList), len(q.RangeTable))
	if q.HasAggs {
		sb.WriteString(", aggs")
	}
	if len(q.GroupBy) > 0 {
		fmt.Fprintf(&sb, ", groupby=%d", len(q.GroupBy))
	}
	sb.WriteString("}")
	return sb.String()
}
