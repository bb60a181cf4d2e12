package sql

import (
	"strings"

	"perm/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any parsed scalar expression.
type Expr interface{ expr() }

// ---------------------------------------------------------------------------
// Statements

// SelectStmt is a SELECT query. Either the set-operation fields (Op,
// Left, Right) are populated, or the plain select fields are.
type SelectStmt struct {
	// Set operation form: Left Op Right. When Op is SetNone the plain
	// select fields below apply.
	Op    SetOpKind
	All   bool // UNION ALL / INTERSECT ALL / EXCEPT ALL
	Left  *SelectStmt
	Right *SelectStmt

	// Plain select form.
	Provenance bool // SELECT PROVENANCE — the SQL-PLE keyword of §IV-A2
	Distinct   bool
	Targets    []SelectTarget
	From       []TableExpr
	Where      Expr
	GroupBy    []Expr
	Having     Expr

	// These apply to the whole statement (outermost set operation too).
	OrderBy []OrderItem
	Limit   Expr // nil when absent
	Offset  Expr
	Into    string // SELECT ... INTO <table>: materialize result
}

func (*SelectStmt) stmt() {}

// SetOpKind enumerates set operations connecting two selects.
type SetOpKind uint8

// Set operation kinds.
const (
	SetNone SetOpKind = iota
	SetUnion
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
		return "NONE"
	}
}

// SelectTarget is one item of the select list. A star target has Star set
// (optionally qualified by a table alias).
type SelectTarget struct {
	Expr  Expr
	Alias string
	Star  bool
	Table string // for "t.*"
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableExpr is an item in the FROM clause.
type TableExpr interface{ tableExpr() }

// TableName references a base table or view, with the SQL-PLE annotations
// of §IV-A3/4.
type TableName struct {
	Name  string
	Alias string
	// ProvAttrs, when non-nil, is the PROVENANCE (attr, ...) annotation:
	// the listed attributes carry external provenance and the rewriter
	// must treat this item as already rewritten.
	ProvAttrs []string
	// BaseRelation marks the item to be treated as a base relation by the
	// rewriter (BASERELATION keyword), limiting provenance scope.
	BaseRelation bool
}

func (*TableName) tableExpr() {}

// SubqueryExpr is a derived table in FROM, with the same SQL-PLE
// annotations as TableName.
type SubqueryExpr struct {
	Query        *SelectStmt
	Alias        string
	ProvAttrs    []string
	BaseRelation bool
}

func (*SubqueryExpr) tableExpr() {}

// JoinKind enumerates join types.
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
		return "JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinRight:
		return "RIGHT JOIN"
	case JoinFull:
		return "FULL JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return "JOIN"
	}
}

// JoinExpr is an explicit join in the FROM clause.
type JoinExpr struct {
	Kind  JoinKind
	Left  TableExpr
	Right TableExpr
	On    Expr     // nil for CROSS JOIN
	Using []string // USING (col, ...) alternative to ON
}

func (*JoinExpr) tableExpr() {}

// CreateTableStmt is CREATE TABLE with column definitions.
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Cols        []ColumnDef
}

func (*CreateTableStmt) stmt() {}

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name string
	Type types.Kind
}

// CreateViewStmt is CREATE VIEW name AS select.
type CreateViewStmt struct {
	Name      string
	OrReplace bool
	Query     *SelectStmt
}

func (*CreateViewStmt) stmt() {}

// DropStmt drops a table or view.
type DropStmt struct {
	View     bool
	Name     string
	IfExists bool
}

func (*DropStmt) stmt() {}

// InsertStmt is INSERT INTO name [(cols)] VALUES (...), (...) | select.
type InsertStmt struct {
	Table  string
	Cols   []string
	Values [][]Expr    // literal rows, when Query is nil
	Query  *SelectStmt // INSERT ... SELECT
}

func (*InsertStmt) stmt() {}

// DeleteStmt is DELETE FROM name [WHERE cond].
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*DeleteStmt) stmt() {}

// ExplainStmt is EXPLAIN [REWRITE|ANALYZE] select: REWRITE shows the
// provenance-rewritten query text, ANALYZE executes the query and shows
// the physical plan annotated with per-operator runtime statistics, and
// plain EXPLAIN shows the physical plan without executing.
type ExplainStmt struct {
	Rewrite bool
	Analyze bool
	Query   *SelectStmt
	Source  string // the SELECT's source text, first token to last
}

func (*ExplainStmt) stmt() {}

// CancelStmt is CANCEL <query_id>: request cooperative cancellation of
// an in-flight query (any session's) by the ID shown in
// perm_stat_activity. The ID may be written bare (CANCEL q12) or as a
// string literal (CANCEL 'q12').
type CancelStmt struct {
	ID string
}

func (*CancelStmt) stmt() {}

// ---------------------------------------------------------------------------
// Expressions

// ColumnRef references a column, optionally qualified by table alias.
type ColumnRef struct {
	Table  string // "" when unqualified
	Column string
}

func (*ColumnRef) expr() {}

// Lit is a literal value.
type Lit struct {
	Val types.Value
}

func (*Lit) expr() {}

// BinExpr is a binary operation. Op is one of: + - * / % = <> < <= > >=
// AND OR LIKE || .
type BinExpr struct {
	Op    string
	Left  Expr
	Right Expr
}

func (*BinExpr) expr() {}

// UnaryExpr is NOT x, -x, or +x.
type UnaryExpr struct {
	Op   string // "NOT", "-", "+"
	Expr Expr
}

func (*UnaryExpr) expr() {}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	Expr Expr
	Not  bool
}

func (*IsNullExpr) expr() {}

// DistinctExpr is x IS [NOT] DISTINCT FROM y (null-safe comparison).
type DistinctExpr struct {
	Left  Expr
	Right Expr
	Not   bool
}

func (*DistinctExpr) expr() {}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	Expr Expr
	Lo   Expr
	Hi   Expr
	Not  bool
}

func (*BetweenExpr) expr() {}

// InListExpr is x [NOT] IN (v1, v2, ...).
type InListExpr struct {
	Expr Expr
	List []Expr
	Not  bool
}

func (*InListExpr) expr() {}

// FuncExpr is a function call, including aggregates. Star marks COUNT(*).
type FuncExpr struct {
	Name     string
	Args     []Expr
	Distinct bool
	Star     bool
}

func (*FuncExpr) expr() {}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct {
	Cond   Expr
	Result Expr
}

func (*CaseExpr) expr() {}

// CastExpr is CAST(x AS type).
type CastExpr struct {
	Expr Expr
	Type types.Kind
}

func (*CastExpr) expr() {}

// ExtractExpr is EXTRACT(field FROM x) with field YEAR/MONTH/DAY.
type ExtractExpr struct {
	Field string
	Expr  Expr
}

func (*ExtractExpr) expr() {}

// SubLinkKind enumerates expression-subquery forms (§IV-E "sublinks").
type SubLinkKind uint8

// Sublink kinds.
const (
	SubScalar SubLinkKind = iota // (SELECT ...) used as a value
	SubExists                    // EXISTS (SELECT ...)
	SubIn                        // x IN (SELECT ...)
	SubAny                       // x op ANY (SELECT ...)
	SubAll                       // x op ALL (SELECT ...)
)

// SubqueryRef is a sublink: a subquery used inside an expression.
type SubqueryRef struct {
	Kind  SubLinkKind
	Test  Expr   // left operand for IN/ANY/ALL; nil otherwise
	Op    string // comparison operator for ANY/ALL ("=" for IN)
	Not   bool   // NOT IN / NOT EXISTS
	Query *SelectStmt
}

func (*SubqueryRef) expr() {}

// TypeFromName maps a SQL type name to a kind.
func TypeFromName(name string) (types.Kind, bool) {
	switch strings.ToLower(name) {
	case "int", "integer", "bigint", "smallint", "int4", "int8":
		return types.KindInt, true
	case "float", "double", "real", "decimal", "numeric", "float8", "float4":
		return types.KindFloat, true
	case "text", "varchar", "char", "character", "string":
		return types.KindString, true
	case "bool", "boolean":
		return types.KindBool, true
	case "date":
		return types.KindDate, true
	case "interval":
		return types.KindInterval, true
	default:
		return types.KindNull, false
	}
}
