package sql

import "strings"

// Normalize returns the parameterized form of a statement text, the
// identity of its query shape, by walking the statement's tokens:
//
//   - number and string literals become '?', and a '-' directly before a
//     number folds into it wherever it cannot subtract (see unaryAfter),
//     so -5 and 42 normalize alike;
//   - IN followed by a parenthesized list of literals becomes "in (?)"
//     whatever its arity: IN (1,2) and IN (1,2,3) differ only in how many
//     values the client batched;
//   - keywords and unquoted identifiers are lowercased, and a quoted
//     identifier is kept as written, quotes and case included;
//   - any gap between two tokens (whitespace or comments) becomes one
//     space, and operators are written as lexed, so != reads <>.
//
// From a lexical error on, the rest of the text is appended unchanged,
// so every input normalizes.
//
// The compiled-query cache keys on the raw text, not on this form: its
// artifacts are optimized trees with the literals folded in (constant
// folding, stats-driven join orders), so serving them across literals
// would be wrong. Normalize exists for identity: the statement store, the
// slow-query log and EXPLAIN ANALYZE fingerprint statements with it so one
// query shape aggregates across its parameter values.
func Normalize(text string) string {
	var sb strings.Builder
	sb.Grow(len(text))
	l := Lexer{src: text}
	end := 0      // offset just past the last token written
	unary := true // a '-' here would negate, not subtract
	for {
		l.skipSpaceAndComments()
		if l.pos == len(text) {
			return sb.String()
		}
		if sb.Len() > 0 && l.pos > end {
			sb.WriteByte(' ')
		}
		start := l.pos
		tok, err := l.Next()
		switch {
		case err != nil:
			sb.WriteString(text[start:])
			return sb.String()
		case tok.Kind == TokNumber || tok.Kind == TokString,
			unary && isOp(tok, "-") && numberAt(&l, tok.End):
			sb.WriteByte('?')
			tok.Kind = TokNumber
		case tok.Kind == TokKeyword && tok.Text == "IN" && literalList(&l):
			sb.WriteString("in (?)")
			tok = Token{Kind: TokOp, Text: ")"}
		case tok.Kind == TokKeyword:
			for i := 0; i < len(tok.Text); i++ {
				sb.WriteByte(tok.Text[i] + ('a' - 'A')) // keywords are A-Z only
			}
		case tok.Kind == TokIdent && text[start] == '"':
			sb.WriteString(text[start:tok.End])
		default:
			sb.WriteString(tok.Text)
		}
		end = l.pos
		unary = unaryAfter(tok)
	}
}

// unaryAfter reports whether a '-' right after tok negates rather than
// subtracts: after an operator other than ')' and '.', and after a
// keyword that does not end an operand (NULL, TRUE, FALSE, END).
func unaryAfter(tok Token) bool {
	switch tok.Kind {
	case TokOp:
		return tok.Text != ")" && tok.Text != "."
	case TokKeyword:
		switch tok.Text {
		case "NULL", "TRUE", "FALSE", "END":
			return false
		}
		return true
	}
	return false
}

func isOp(tok Token, op string) bool { return tok.Kind == TokOp && tok.Text == op }

// numberAt consumes the next token if it is a number starting at pos.
func numberAt(l *Lexer, pos int) bool {
	p := *l
	tok, err := p.Next()
	if err != nil || tok.Kind != TokNumber || tok.Pos != pos {
		return false
	}
	*l = p
	return true
}

// literalList consumes a parenthesized, comma-separated list of literals
// — "(1, -2, 'x')" — if one comes next, and reports whether it did.
func literalList(l *Lexer) bool {
	p := *l
	if tok, err := p.Next(); err != nil || !isOp(tok, "(") {
		return false
	}
	for {
		tok, err := p.Next()
		if err != nil {
			return false
		}
		if tok.Kind != TokNumber && tok.Kind != TokString && !(isOp(tok, "-") && numberAt(&p, tok.End)) {
			return false
		}
		if tok, err = p.Next(); err != nil {
			return false
		}
		if isOp(tok, ")") {
			*l = p
			return true
		}
		if !isOp(tok, ",") {
			return false
		}
	}
}
