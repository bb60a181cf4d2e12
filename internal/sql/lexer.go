// Package sql implements the SQL dialect of the Perm engine: a lexer, an
// abstract syntax tree and a recursive-descent parser.
//
// The dialect is the SQL subset needed by the paper's workloads — SELECT
// with joins (including explicit OUTER joins), WHERE, GROUP BY, HAVING,
// ORDER BY, LIMIT, set operations (UNION/INTERSECT/EXCEPT [ALL]),
// uncorrelated expression subqueries (IN, EXISTS, scalar, ANY/ALL),
// aggregates (incl. DISTINCT), CASE, LIKE, BETWEEN, EXTRACT, date and
// interval literals — plus DDL/DML (CREATE TABLE, CREATE VIEW, DROP,
// INSERT, SELECT INTO) and the Perm SQL-PLE extensions of the paper:
//
//	SELECT PROVENANCE ...                   -- §IV-A2
//	FROM item PROVENANCE (attr, ...)        -- §IV-A3 external/incremental
//	FROM item BASERELATION                  -- §IV-A4 limited scope
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexical tokens.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp // operators and punctuation
)

// Token is a lexical token with its source span (byte offsets). Text is a
// substring of the source wherever it can be: keywords are upper-cased,
// unquoted identifiers lower-cased, and != reads as <>.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int // offset of the token's first byte
	End  int // offset just past its last byte
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// keywords maps each reserved word to itself, so a keyword token's text
// is the map's string and lexing one allocates nothing. Identifiers
// matching these (case insensitively) lex as TokKeyword.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range strings.Fields(`
		SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET AS
		AND OR NOT NULL TRUE FALSE IN EXISTS BETWEEN LIKE IS
		DISTINCT ALL ANY SOME CASE WHEN THEN ELSE END CAST
		JOIN INNER LEFT RIGHT FULL OUTER CROSS ON USING NATURAL
		UNION INTERSECT EXCEPT
		CREATE TABLE VIEW DROP INSERT INTO VALUES ASC DESC
		DATE INTERVAL EXTRACT YEAR MONTH DAY SUBSTRING FOR
		PROVENANCE BASERELATION PRIMARY KEY IF
		EXPLAIN REWRITE ANALYZE DELETE UPDATE SET CANCEL
		NULLS FIRST LAST`) {
		m[kw] = kw
	}
	return m
}()

// keyword returns the keyword a word spells in any case. The word is
// upper-cased into a fixed buffer (no keyword is longer), so the lookup
// allocates nothing; a word with a byte other than a letter, such as
// most column names, is no keyword and skips the lookup.
func keyword(word string) (string, bool) {
	var buf [16]byte
	if len(word) > len(buf) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		} else if c < 'A' || c > 'Z' {
			return "", false
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// Lexer turns SQL text into tokens.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Error is a syntax error with position information.
type Error struct {
	Pos int
	Msg string
	Src string
}

func (e *Error) Error() string {
	line, col := 1, 1
	for i := 0; i < e.Pos && i < len(e.Src); i++ {
		if e.Src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Sprintf("syntax error at line %d column %d: %s", line, col, e.Msg)
}

func (l *Lexer) errorf(pos int, format string, args ...interface{}) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...), Src: l.src}
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos, End: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case identClass[c]&identStart != 0:
		return l.lexIdent(start), nil
	case isDigit(c) || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		return l.lexNumber(start), nil
	case c == '\'':
		return l.lexString(start)
	case c == '"':
		return l.lexQuotedIdent(start)
	default:
		return l.lexOp(start)
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.pos += 2
			for l.pos+1 < len(l.src) && !(l.src[l.pos] == '*' && l.src[l.pos+1] == '/') {
				l.pos++
			}
			l.pos += 2
			if l.pos > len(l.src) {
				l.pos = len(l.src)
			}
		default:
			return
		}
	}
}

// identClass classifies every byte, read as a Latin-1 rune, for
// identifiers: a letter or '_' starts one, and those, digits and '$'
// continue it.
var identClass = func() (t [256]uint8) {
	for c := range t {
		r := rune(c)
		if r == '_' || unicode.IsLetter(r) {
			t[c] |= identStart
		}
		if r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r) {
			t[c] |= identPart
		}
	}
	return t
}()

const (
	identStart = 1 << iota
	identPart
)

func (l *Lexer) lexIdent(start int) Token {
	for l.pos < len(l.src) && identClass[l.src[l.pos]]&identPart != 0 {
		l.pos++
	}
	word := l.src[start:l.pos]
	if kw, ok := keyword(word); ok {
		return Token{Kind: TokKeyword, Text: kw, Pos: start, End: l.pos}
	}
	return Token{Kind: TokIdent, Text: strings.ToLower(word), Pos: start, End: l.pos}
}

func (l *Lexer) lexQuotedIdent(start int) (Token, error) {
	text, ok := l.lexQuoted('"')
	if !ok {
		return Token{}, l.errorf(start, "unterminated quoted identifier")
	}
	return Token{Kind: TokIdent, Text: text, Pos: start, End: l.pos}, nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (l *Lexer) lexNumber(start int) Token {
	seenDot, seenExp := false, false
scan:
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			break scan
		}
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start, End: l.pos}
}

func (l *Lexer) lexString(start int) (Token, error) {
	text, ok := l.lexQuoted('\'')
	if !ok {
		return Token{}, l.errorf(start, "unterminated string literal")
	}
	return Token{Kind: TokString, Text: text, Pos: start, End: l.pos}, nil
}

// lexQuoted reads the body of a run delimited by quote q, starting at the
// opening quote, where a doubled q stands for one. A body without a
// doubled q is returned as a substring of the source.
func (l *Lexer) lexQuoted(q byte) (string, bool) {
	l.pos++ // opening quote
	begin := l.pos
	var unescaped []byte // nil until the first doubled quote
	for l.pos < len(l.src) {
		if l.src[l.pos] != q {
			l.pos++
			continue
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == q {
			unescaped = append(unescaped, l.src[begin:l.pos+1]...)
			l.pos += 2
			begin = l.pos
			continue
		}
		body := l.src[begin:l.pos]
		l.pos++ // closing quote
		if unescaped != nil {
			body = string(append(unescaped, body...))
		}
		return body, true
	}
	return "", false
}

func (l *Lexer) lexOp(start int) (Token, error) {
	if l.pos+2 <= len(l.src) {
		switch op := l.src[l.pos : l.pos+2]; op {
		case "<>", "<=", ">=", "||", "!=":
			l.pos += 2
			if op == "!=" {
				op = "<>"
			}
			return Token{Kind: TokOp, Text: op, Pos: start, End: l.pos}, nil
		}
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '*', '+', '-', '/', '%', '<', '>', '=', ';', '.':
		l.pos++
		return Token{Kind: TokOp, Text: l.src[start:l.pos], Pos: start, End: l.pos}, nil
	}
	return Token{}, l.errorf(start, "unexpected character %q", c)
}

// Tokenize lexes the whole input; the last token is TokEOF.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
