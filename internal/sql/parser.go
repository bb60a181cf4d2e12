package sql

import (
	"fmt"
	"strconv"
	"strings"

	"perm/internal/types"
)

// Parser is a recursive-descent parser with buffered lookahead.
type Parser struct {
	lex   *Lexer
	tok   Token
	queue []Token // buffered lookahead tokens
	src   string
	end   int // offset just past the last token consumed
}

// NewParser returns a parser over src positioned at the first token.
func NewParser(src string) (*Parser, error) {
	p := &Parser{lex: NewLexer(src), src: src}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

// Parse parses a single statement from src. Trailing semicolons are allowed.
func Parse(src string) (Statement, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("empty statement")
	}
	if len(stmts) > 1 {
		return nil, fmt.Errorf("expected a single statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated list of statements.
func ParseAll(src string) ([]Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	var stmts []Statement
	for {
		for p.tok.Kind == TokOp && p.tok.Text == ";" {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if p.tok.Kind == TokEOF {
			return stmts, nil
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if p.tok.Kind != TokEOF && !(p.tok.Kind == TokOp && p.tok.Text == ";") {
			return nil, p.errorf("expected ';' or end of input, found %s", p.tok)
		}
	}
}

func (p *Parser) advance() error {
	if len(p.queue) > 0 {
		p.end = p.tok.End
		p.tok = p.queue[0]
		p.queue = p.queue[1:]
		return nil
	}
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.end = p.tok.End
	p.tok = t
	return nil
}

// peekTok returns the next token without consuming it.
func (p *Parser) peekTok() (Token, error) { return p.peekN(0) }

// peekN returns the i-th lookahead token (0 = the token after p.tok).
func (p *Parser) peekN(i int) (Token, error) {
	for len(p.queue) <= i {
		t, err := p.lex.Next()
		if err != nil {
			return Token{}, err
		}
		p.queue = append(p.queue, t)
		if t.Kind == TokEOF {
			break
		}
	}
	if i < len(p.queue) {
		return p.queue[i], nil
	}
	return Token{Kind: TokEOF}, nil
}

// peeksAtSelect reports whether the parenthesized group starting at the
// current "(" token opens a SELECT (possibly behind further parentheses),
// distinguishing derived tables from parenthesized join expressions.
func (p *Parser) peeksAtSelect() (bool, error) {
	for i := 0; ; i++ {
		t, err := p.peekN(i)
		if err != nil {
			return false, err
		}
		if t.Kind == TokOp && t.Text == "(" {
			continue
		}
		return t.Kind == TokKeyword && t.Text == "SELECT", nil
	}
}

// parserState snapshots the parser for bounded backtracking. The only
// construct needing it is the FROM-clause ambiguity between a derived
// table "((SELECT ...) UNION ...)" and a parenthesized join
// "((SELECT ...) AS x JOIN y)".
type parserState struct {
	lexPos int
	end    int
	tok    Token
	queue  []Token
}

func (p *Parser) save() parserState {
	return parserState{
		lexPos: p.lex.pos,
		end:    p.end,
		tok:    p.tok,
		queue:  append([]Token(nil), p.queue...),
	}
}

func (p *Parser) restore(st parserState) {
	p.lex.pos = st.lexPos
	p.end = st.end
	p.tok = st.tok
	p.queue = st.queue
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	return &Error{Pos: p.tok.Pos, Msg: fmt.Sprintf(format, args...), Src: p.src}
}

func (p *Parser) isKeyword(kw string) bool {
	return p.tok.Kind == TokKeyword && p.tok.Text == kw
}

func (p *Parser) isOp(op string) bool {
	return p.tok.Kind == TokOp && p.tok.Text == op
}

// accept consumes the token if it is the given keyword and reports whether
// it did.
func (p *Parser) accept(kw string) (bool, error) {
	if p.isKeyword(kw) {
		return true, p.advance()
	}
	return false, nil
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errorf("expected %s, found %s", kw, p.tok)
	}
	return p.advance()
}

func (p *Parser) expectOp(op string) error {
	if !p.isOp(op) {
		return p.errorf("expected %q, found %s", op, p.tok)
	}
	return p.advance()
}

func (p *Parser) expectIdent() (string, error) {
	// Non-reserved use of some keywords as identifiers is intentionally not
	// supported; quote them instead.
	if p.tok.Kind != TokIdent {
		return "", p.errorf("expected identifier, found %s", p.tok)
	}
	name := p.tok.Text
	return name, p.advance()
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("SELECT") || p.isOp("("):
		return p.parseSelectStmt()
	case p.isKeyword("CREATE"):
		return p.parseCreate()
	case p.isKeyword("DROP"):
		return p.parseDrop()
	case p.isKeyword("INSERT"):
		return p.parseInsert()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	case p.isKeyword("EXPLAIN"):
		return p.parseExplain()
	case p.isKeyword("CANCEL"):
		return p.parseCancel()
	default:
		return nil, p.errorf("expected a statement, found %s", p.tok)
	}
}

func (p *Parser) parseExplain() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	rewrite, err := p.accept("REWRITE")
	if err != nil {
		return nil, err
	}
	analyze := false
	if !rewrite {
		analyze, err = p.accept("ANALYZE")
		if err != nil {
			return nil, err
		}
	}
	start := p.tok.Pos
	sel, err := p.parseSelectStmt()
	if err != nil {
		return nil, err
	}
	return &ExplainStmt{Rewrite: rewrite, Analyze: analyze, Query: sel, Source: p.src[start:p.end]}, nil
}

func (p *Parser) parseCancel() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	// Query IDs (q12) lex as identifiers; accept a string literal too so
	// clients can always quote.
	if p.tok.Kind != TokIdent && p.tok.Kind != TokString {
		return nil, p.errorf("expected a query ID after CANCEL, found %s", p.tok)
	}
	id := p.tok.Text
	if err := p.advance(); err != nil {
		return nil, err
	}
	return &CancelStmt{ID: id}, nil
}

// ---------------------------------------------------------------------------
// SELECT

// parseSelectStmt parses a full select with set operations, ORDER BY and
// LIMIT at the outermost level.
func (p *Parser) parseSelectStmt() (*SelectStmt, error) {
	sel, err := p.parseSetOpTree(0)
	if err != nil {
		return nil, err
	}
	// ORDER BY / LIMIT / OFFSET bind to the whole set-operation tree.
	if p.isKeyword("ORDER") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.isKeyword("ASC") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if p.isKeyword("DESC") {
				item.Desc = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.isKeyword("LIMIT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isKeyword("ALL") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.Limit = e
		}
	}
	if p.isKeyword("OFFSET") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Offset = e
	}
	return sel, nil
}

// setOpPrec gives UNION/EXCEPT lower precedence than INTERSECT, as in
// standard SQL.
func setOpPrec(k SetOpKind) int {
	if k == SetIntersect {
		return 2
	}
	return 1
}

func (p *Parser) parseSetOpTree(minPrec int) (*SelectStmt, error) {
	left, err := p.parseSelectPrimary()
	if err != nil {
		return nil, err
	}
	for {
		var op SetOpKind
		switch {
		case p.isKeyword("UNION"):
			op = SetUnion
		case p.isKeyword("INTERSECT"):
			op = SetIntersect
		case p.isKeyword("EXCEPT"):
			op = SetExcept
		default:
			return left, nil
		}
		prec := setOpPrec(op)
		if prec < minPrec {
			return left, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		all := false
		if p.isKeyword("ALL") {
			all = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		} else if p.isKeyword("DISTINCT") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		right, err := p.parseSetOpTree(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &SelectStmt{Op: op, All: all, Left: left, Right: right}
	}
}

// parseSelectPrimary parses a simple SELECT or a parenthesized select.
func (p *Parser) parseSelectPrimary() (*SelectStmt, error) {
	if p.isOp("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		sel, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return sel, nil
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{}
	if ok, err := p.accept("PROVENANCE"); err != nil {
		return nil, err
	} else if ok {
		sel.Provenance = true
	}
	if ok, err := p.accept("DISTINCT"); err != nil {
		return nil, err
	} else if ok {
		sel.Distinct = true
	}
	if _, err := p.accept("ALL"); err != nil {
		return nil, err
	}
	// Select list.
	for {
		t, err := p.parseSelectTarget()
		if err != nil {
			return nil, err
		}
		sel.Targets = append(sel.Targets, t)
		if !p.isOp(",") {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.isKeyword("INTO") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		sel.Into = name
	}
	if p.isKeyword("FROM") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			te, err := p.parseTableExpr()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, te)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.isKeyword("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.isKeyword("GROUP") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.isKeyword("HAVING") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	return sel, nil
}

func (p *Parser) parseSelectTarget() (SelectTarget, error) {
	if p.isOp("*") {
		if err := p.advance(); err != nil {
			return SelectTarget{}, err
		}
		return SelectTarget{Star: true}, nil
	}
	// Qualified star: ident '.' '*'
	if p.tok.Kind == TokIdent {
		nxt, err := p.peekTok()
		if err != nil {
			return SelectTarget{}, err
		}
		if nxt.Kind == TokOp && nxt.Text == "." {
			// Look two ahead is awkward with one-token lookahead; parse the
			// qualifier, then check for '*'.
			table := p.tok.Text
			if err := p.advance(); err != nil { // consume ident
				return SelectTarget{}, err
			}
			if err := p.advance(); err != nil { // consume '.'
				return SelectTarget{}, err
			}
			if p.isOp("*") {
				if err := p.advance(); err != nil {
					return SelectTarget{}, err
				}
				return SelectTarget{Star: true, Table: table}, nil
			}
			col, err := p.expectIdent()
			if err != nil {
				return SelectTarget{}, err
			}
			e, err := p.parsePostfixFrom(&ColumnRef{Table: table, Column: col})
			if err != nil {
				return SelectTarget{}, err
			}
			return p.finishTarget(e)
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectTarget{}, err
	}
	return p.finishTarget(e)
}

func (p *Parser) finishTarget(e Expr) (SelectTarget, error) {
	t := SelectTarget{Expr: e}
	if p.isKeyword("AS") {
		if err := p.advance(); err != nil {
			return t, err
		}
		alias, err := p.expectIdent()
		if err != nil {
			return t, err
		}
		t.Alias = alias
		return t, nil
	}
	if p.tok.Kind == TokIdent {
		t.Alias = p.tok.Text
		return t, p.advance()
	}
	return t, nil
}

// parsePostfixFrom continues expression parsing after a primary that was
// already consumed (used by the qualified-star lookahead path). It applies
// the same operator climbing as parseExpr.
func (p *Parser) parsePostfixFrom(e Expr) (Expr, error) {
	return p.parseBinaryRHS(e, 0)
}

// ---------------------------------------------------------------------------
// FROM clause

func (p *Parser) parseTableExpr() (TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var kind JoinKind
		switch {
		case p.isKeyword("JOIN") || p.isKeyword("INNER"):
			kind = JoinInner
		case p.isKeyword("LEFT"):
			kind = JoinLeft
		case p.isKeyword("RIGHT"):
			kind = JoinRight
		case p.isKeyword("FULL"):
			kind = JoinFull
		case p.isKeyword("CROSS"):
			kind = JoinCross
		default:
			return left, nil
		}
		// Consume join keywords: [INNER|LEFT|RIGHT|FULL|CROSS] [OUTER] JOIN
		if !p.isKeyword("JOIN") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if _, err := p.accept("OUTER"); err != nil {
				return nil, err
			}
		}
		if err := p.expectKeyword("JOIN"); err != nil {
			return nil, err
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		join := &JoinExpr{Kind: kind, Left: left, Right: right}
		if kind != JoinCross {
			switch {
			case p.isKeyword("ON"):
				if err := p.advance(); err != nil {
					return nil, err
				}
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				join.On = cond
			case p.isKeyword("USING"):
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectOp("("); err != nil {
					return nil, err
				}
				for {
					col, err := p.expectIdent()
					if err != nil {
						return nil, err
					}
					join.Using = append(join.Using, col)
					if !p.isOp(",") {
						break
					}
					if err := p.advance(); err != nil {
						return nil, err
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			default:
				return nil, p.errorf("expected ON or USING after JOIN, found %s", p.tok)
			}
		}
		left = join
	}
}

func (p *Parser) parseTablePrimary() (TableExpr, error) {
	if p.isOp("(") {
		// Subquery (possibly a parenthesized set operation) or
		// parenthesized join expression.
		isSelect, err := p.peeksAtSelect()
		if err != nil {
			return nil, err
		}
		if isSelect {
			// Try the derived-table interpretation first; on failure fall
			// back to a parenthesized join whose first item is a subquery.
			st := p.save()
			sub, err := p.tryParseDerivedTable()
			if err == nil {
				return sub, nil
			}
			p.restore(st)
		}
		// Parenthesized table expression (joins).
		if err := p.advance(); err != nil {
			return nil, err
		}
		te, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return te, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	tn := &TableName{Name: name}
	if err := p.parseFromItemSuffix(&tn.Alias, &tn.ProvAttrs, &tn.BaseRelation); err != nil {
		return nil, err
	}
	return tn, nil
}

// tryParseDerivedTable parses "(" select ")" [suffix]; the caller
// restores the parser state when it fails.
func (p *Parser) tryParseDerivedTable() (TableExpr, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	q, err := p.parseSelectStmt()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	sub := &SubqueryExpr{Query: q}
	if err := p.parseFromItemSuffix(&sub.Alias, &sub.ProvAttrs, &sub.BaseRelation); err != nil {
		return nil, err
	}
	return sub, nil
}

// parseFromItemSuffix parses [AS alias | alias] [BASERELATION]
// [PROVENANCE (attr, ...)] in any of the orders the paper's examples use:
// the annotations follow "the text of the from-clause item" (§IV-A3), and
// the BASERELATION example places the keyword before the alias.
func (p *Parser) parseFromItemSuffix(alias *string, provAttrs *[]string, baseRel *bool) error {
	for {
		switch {
		case p.isKeyword("AS"):
			if err := p.advance(); err != nil {
				return err
			}
			a, err := p.expectIdent()
			if err != nil {
				return err
			}
			*alias = a
		case p.tok.Kind == TokIdent && *alias == "":
			*alias = p.tok.Text
			if err := p.advance(); err != nil {
				return err
			}
		case p.isKeyword("BASERELATION"):
			*baseRel = true
			if err := p.advance(); err != nil {
				return err
			}
		case p.isKeyword("PROVENANCE"):
			if err := p.advance(); err != nil {
				return err
			}
			if err := p.expectOp("("); err != nil {
				return err
			}
			for {
				a, err := p.expectIdent()
				if err != nil {
					return err
				}
				*provAttrs = append(*provAttrs, a)
				if !p.isOp(",") {
					break
				}
				if err := p.advance(); err != nil {
					return err
				}
			}
			if err := p.expectOp(")"); err != nil {
				return err
			}
			if *provAttrs == nil {
				*provAttrs = []string{}
			}
		default:
			return nil
		}
	}
}

// ---------------------------------------------------------------------------
// DDL / DML

func (p *Parser) parseCreate() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	switch {
	case p.isKeyword("TABLE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		stmt := &CreateTableStmt{}
		if p.isKeyword("IF") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("NOT"); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			stmt.IfNotExists = true
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		stmt.Name = name
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		for {
			if p.isKeyword("PRIMARY") {
				// PRIMARY KEY (cols) — accepted and ignored (no constraints).
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectKeyword("KEY"); err != nil {
					return nil, err
				}
				if err := p.skipParens(); err != nil {
					return nil, err
				}
			} else {
				col, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				typName := p.tok.Text
				if p.tok.Kind != TokIdent && p.tok.Kind != TokKeyword {
					return nil, p.errorf("expected type name, found %s", p.tok)
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
				kind, ok := TypeFromName(typName)
				if !ok {
					return nil, p.errorf("unknown type %q", typName)
				}
				// optional (n) or (n,m) length spec — ignored
				if p.isOp("(") {
					if err := p.skipParens(); err != nil {
						return nil, err
					}
				}
				// optional NOT NULL / PRIMARY KEY — accepted and ignored
				for {
					switch {
					case p.isKeyword("NOT"):
						if err := p.advance(); err != nil {
							return nil, err
						}
						if err := p.expectKeyword("NULL"); err != nil {
							return nil, err
						}
					case p.isKeyword("PRIMARY"):
						if err := p.advance(); err != nil {
							return nil, err
						}
						if err := p.expectKeyword("KEY"); err != nil {
							return nil, err
						}
					default:
						goto colDone
					}
				}
			colDone:
				stmt.Cols = append(stmt.Cols, ColumnDef{Name: col, Type: kind})
			}
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return stmt, nil
	case p.isKeyword("VIEW"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		q, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		return &CreateViewStmt{Name: name, Query: q}, nil
	case p.isKeyword("OR"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.Kind != TokIdent || p.tok.Text != "replace" {
			return nil, p.errorf("expected REPLACE after CREATE OR")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		q, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		return &CreateViewStmt{Name: name, Query: q, OrReplace: true}, nil
	default:
		return nil, p.errorf("expected TABLE or VIEW after CREATE, found %s", p.tok)
	}
}

// skipParens skips a balanced parenthesized token run starting at '('.
func (p *Parser) skipParens() error {
	if err := p.expectOp("("); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		if p.tok.Kind == TokEOF {
			return p.errorf("unbalanced parentheses")
		}
		if p.isOp("(") {
			depth++
		} else if p.isOp(")") {
			depth--
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
	return nil
}

func (p *Parser) parseDrop() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	stmt := &DropStmt{}
	switch {
	case p.isKeyword("TABLE"):
	case p.isKeyword("VIEW"):
		stmt.View = true
	default:
		return nil, p.errorf("expected TABLE or VIEW after DROP")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.isKeyword("IF") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt.Name = name
	return stmt, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: name}
	if p.isOp("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			stmt.Cols = append(stmt.Cols, col)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if p.isKeyword("VALUES") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.isOp(",") {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			stmt.Values = append(stmt.Values, row)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		return stmt, nil
	}
	q, err := p.parseSelectStmt()
	if err != nil {
		return nil, err
	}
	stmt.Query = q
	return stmt, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: name}
	if p.isKeyword("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

// Precedence levels, loosest to tightest:
//
//	1 OR
//	2 AND
//	3 NOT (prefix, handled in unary)
//	4 comparison (= <> < <= > >= LIKE IN BETWEEN IS)
//	5 + - ||
//	6 * / %
//	7 unary - +
func (p *Parser) parseExpr() (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return p.parseBinaryRHS(lhs, 0)
}

func (p *Parser) binPrec() (int, string) {
	if p.tok.Kind == TokKeyword {
		switch p.tok.Text {
		case "OR":
			return 1, "OR"
		case "AND":
			return 2, "AND"
		case "LIKE", "IN", "BETWEEN", "IS", "NOT":
			return 4, p.tok.Text
		}
		return 0, ""
	}
	if p.tok.Kind != TokOp {
		return 0, ""
	}
	switch p.tok.Text {
	case "=", "<>", "<", "<=", ">", ">=":
		return 4, p.tok.Text
	case "+", "-", "||":
		return 5, p.tok.Text
	case "*", "/", "%":
		return 6, p.tok.Text
	}
	return 0, ""
}

func (p *Parser) parseBinaryRHS(lhs Expr, minPrec int) (Expr, error) {
	for {
		prec, op := p.binPrec()
		if prec == 0 || prec < minPrec {
			return lhs, nil
		}
		// Special comparison-level forms.
		if prec == 4 {
			var err error
			lhs, err = p.parseComparison(lhs)
			if err != nil {
				return nil, err
			}
			continue
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		rhs, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		for {
			nprec, _ := p.binPrec()
			if nprec <= prec {
				break
			}
			rhs, err = p.parseBinaryRHS(rhs, nprec)
			if err != nil {
				return nil, err
			}
		}
		lhs = &BinExpr{Op: op, Left: lhs, Right: rhs}
	}
}

// parseComparison handles the comparison level: cmp ops, [NOT] LIKE,
// [NOT] IN, [NOT] BETWEEN, IS [NOT] NULL/DISTINCT FROM, and quantified
// comparisons (op ANY/ALL (subquery)).
func (p *Parser) parseComparison(lhs Expr) (Expr, error) {
	not := false
	if p.isKeyword("NOT") {
		// Only valid before LIKE/IN/BETWEEN at this level.
		if err := p.advance(); err != nil {
			return nil, err
		}
		not = true
		if !p.isKeyword("LIKE") && !p.isKeyword("IN") && !p.isKeyword("BETWEEN") {
			return nil, p.errorf("expected LIKE, IN or BETWEEN after NOT, found %s", p.tok)
		}
	}
	switch {
	case p.isKeyword("IS"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		isNot := false
		if p.isKeyword("NOT") {
			isNot = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		switch {
		case p.isKeyword("NULL"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &IsNullExpr{Expr: lhs, Not: isNot}, nil
		case p.isKeyword("DISTINCT"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("FROM"); err != nil {
				return nil, err
			}
			rhs, err := p.parseAdditiveOperand()
			if err != nil {
				return nil, err
			}
			return &DistinctExpr{Left: lhs, Right: rhs, Not: isNot}, nil
		case p.isKeyword("TRUE") || p.isKeyword("FALSE"):
			val := p.isKeyword("TRUE")
			if err := p.advance(); err != nil {
				return nil, err
			}
			cmp := Expr(&BinExpr{Op: "=", Left: lhs, Right: &Lit{Val: types.NewBool(val)}})
			if isNot {
				cmp = &UnaryExpr{Op: "NOT", Expr: cmp}
			}
			return cmp, nil
		default:
			return nil, p.errorf("expected NULL, DISTINCT, TRUE or FALSE after IS")
		}
	case p.isKeyword("LIKE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		rhs, err := p.parseAdditiveOperand()
		if err != nil {
			return nil, err
		}
		var e Expr = &BinExpr{Op: "LIKE", Left: lhs, Right: rhs}
		if not {
			e = &UnaryExpr{Op: "NOT", Expr: e}
		}
		return e, nil
	case p.isKeyword("BETWEEN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		lo, err := p.parseAdditiveOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditiveOperand()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Expr: lhs, Lo: lo, Hi: hi, Not: not}, nil
	case p.isKeyword("IN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		if p.isKeyword("SELECT") {
			q, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &SubqueryRef{Kind: SubIn, Test: lhs, Op: "=", Not: not, Query: q}, nil
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &InListExpr{Expr: lhs, List: list, Not: not}, nil
	default:
		// plain comparison operator, possibly quantified
		op := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isKeyword("ANY") || p.isKeyword("SOME") || p.isKeyword("ALL") {
			kind := SubAny
			if p.isKeyword("ALL") {
				kind = SubAll
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			q, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &SubqueryRef{Kind: kind, Test: lhs, Op: op, Query: q}, nil
		}
		rhs, err := p.parseAdditiveOperand()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: op, Left: lhs, Right: rhs}, nil
	}
}

// parseAdditiveOperand parses an operand at additive precedence or tighter
// (the right-hand side of a comparison).
func (p *Parser) parseAdditiveOperand() (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return p.parseBinaryRHS(lhs, 5)
}

func (p *Parser) parseUnary() (Expr, error) {
	switch {
	case p.isKeyword("NOT"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		// NOT binds looser than comparisons: parse a full comparison-level
		// expression beneath it.
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		inner, err = p.parseBinaryRHS(inner, 4)
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Expr: inner}, nil
	case p.isOp("-"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := inner.(*Lit); ok && lit.Val.K == types.KindInt {
			return &Lit{Val: types.NewInt(-lit.Val.I)}, nil
		}
		if lit, ok := inner.(*Lit); ok && lit.Val.K == types.KindFloat {
			return &Lit{Val: types.NewFloat(-lit.Val.F())}, nil
		}
		return &UnaryExpr{Op: "-", Expr: inner}, nil
	case p.isOp("+"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.parseUnary()
	default:
		return p.parsePrimary()
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.Kind == TokNumber:
		text := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if strings.ContainsAny(text, ".eE") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, p.errorf("invalid number %q", text)
			}
			return &Lit{Val: types.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(text, 64)
			if ferr != nil {
				return nil, p.errorf("invalid number %q", text)
			}
			return &Lit{Val: types.NewFloat(f)}, nil
		}
		return &Lit{Val: types.NewInt(i)}, nil
	case p.tok.Kind == TokString:
		s := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Lit{Val: types.NewString(s)}, nil
	case p.isKeyword("NULL"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Lit{Val: types.NullValue}, nil
	case p.isKeyword("TRUE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Lit{Val: types.NewBool(true)}, nil
	case p.isKeyword("FALSE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Lit{Val: types.NewBool(false)}, nil
	case p.isKeyword("DATE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.Kind != TokString {
			return nil, p.errorf("expected string after DATE, found %s", p.tok)
		}
		v, err := types.ParseDate(p.tok.Text)
		if err != nil {
			return nil, p.errorf("%v", err)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Lit{Val: v}, nil
	case p.isKeyword("INTERVAL"):
		return p.parseInterval()
	case p.isKeyword("CASE"):
		return p.parseCase()
	case p.isKeyword("CAST"):
		return p.parseCast()
	case p.isKeyword("EXTRACT"):
		return p.parseExtract()
	case p.isKeyword("SUBSTRING"):
		return p.parseSubstring()
	case p.isKeyword("EXISTS"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		q, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &SubqueryRef{Kind: SubExists, Query: q}, nil
	case p.isOp("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isKeyword("SELECT") {
			q, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &SubqueryRef{Kind: SubScalar, Query: q}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.tok.Kind == TokIdent:
		name := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isOp("(") {
			return p.parseFuncCall(name)
		}
		if p.isOp(".") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Column: col}, nil
		}
		return &ColumnRef{Column: name}, nil
	default:
		return nil, p.errorf("expected expression, found %s", p.tok)
	}
}

func (p *Parser) parseFuncCall(name string) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	fe := &FuncExpr{Name: strings.ToLower(name)}
	if p.isOp("*") {
		fe.Star = true
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return fe, nil
	}
	if p.isOp(")") {
		return fe, p.advance()
	}
	if p.isKeyword("DISTINCT") {
		fe.Distinct = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fe.Args = append(fe.Args, e)
		if !p.isOp(",") {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return fe, nil
}

// parseInterval parses INTERVAL '<n>' YEAR|MONTH|DAY (the TPC-H form).
func (p *Parser) parseInterval() (Expr, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.Kind != TokString {
		return nil, p.errorf("expected string after INTERVAL, found %s", p.tok)
	}
	numText := strings.TrimSpace(p.tok.Text)
	if err := p.advance(); err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(numText)
	if err != nil {
		// Allow forms like '3 months' inside the string.
		fields := strings.Fields(numText)
		if len(fields) == 2 {
			if m, err2 := strconv.Atoi(fields[0]); err2 == nil {
				v, err3 := intervalFromUnit(m, fields[1])
				if err3 != nil {
					return nil, p.errorf("%v", err3)
				}
				return &Lit{Val: v}, nil
			}
		}
		return nil, p.errorf("invalid interval literal %q", numText)
	}
	unit := p.tok.Text
	if p.tok.Kind != TokKeyword && p.tok.Kind != TokIdent {
		return nil, p.errorf("expected interval unit, found %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	v, err := intervalFromUnit(n, unit)
	if err != nil {
		return nil, p.errorf("%v", err)
	}
	return &Lit{Val: v}, nil
}

func intervalFromUnit(n int, unit string) (types.Value, error) {
	switch strings.ToUpper(strings.TrimSuffix(strings.ToUpper(unit), "S")) {
	case "YEAR":
		return types.NewInterval(int32(12*n), 0), nil
	case "MONTH":
		return types.NewInterval(int32(n), 0), nil
	case "DAY":
		return types.NewInterval(0, int32(n)), nil
	default:
		return types.NullValue, fmt.Errorf("unsupported interval unit %q", unit)
	}
}

func (p *Parser) parseCase() (Expr, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	ce := &CaseExpr{}
	if !p.isKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.isKeyword("WHEN") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{Cond: cond, Result: res})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN arm")
	}
	if p.isKeyword("ELSE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}

func (p *Parser) parseCast() (Expr, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	typName := p.tok.Text
	if p.tok.Kind != TokIdent && p.tok.Kind != TokKeyword {
		return nil, p.errorf("expected type name, found %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	kind, ok := TypeFromName(typName)
	if !ok {
		return nil, p.errorf("unknown type %q", typName)
	}
	if p.isOp("(") {
		if err := p.skipParens(); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &CastExpr{Expr: e, Type: kind}, nil
}

func (p *Parser) parseExtract() (Expr, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	field := p.tok.Text
	if !p.isKeyword("YEAR") && !p.isKeyword("MONTH") && !p.isKeyword("DAY") {
		return nil, p.errorf("expected YEAR, MONTH or DAY in EXTRACT, found %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &ExtractExpr{Field: field, Expr: e}, nil
}

// parseSubstring parses SUBSTRING(x FROM a FOR b) and SUBSTRING(x, a, b),
// lowering both to a substring function call.
func (p *Parser) parseSubstring() (Expr, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	fe := &FuncExpr{Name: "substring", Args: []Expr{x}}
	switch {
	case p.isKeyword("FROM"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fe.Args = append(fe.Args, a)
		if p.isKeyword("FOR") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			b, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fe.Args = append(fe.Args, b)
		}
	case p.isOp(","):
		for p.isOp(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fe.Args = append(fe.Args, a)
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return fe, nil
}
