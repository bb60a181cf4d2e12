package sql

import (
	"strings"
	"testing"

	"perm/internal/tpch"
)

// fig10Texts returns the supported TPC-H queries of Fig. 10 as q and q+.
func fig10Texts() []string {
	var texts []string
	r := tpch.NewRand(42)
	for _, n := range tpch.SupportedQueries() {
		q := tpch.MustQGen(n, r)
		texts = append(texts, q.Text, q.Provenance().Text)
	}
	return texts
}

var normSink string

// TestLexAllocs pins the lexer's allocation-free path: over every Fig. 10
// text, lexing token by token allocates nothing and Normalize allocates
// only its output.
func TestLexAllocs(t *testing.T) {
	for _, text := range fig10Texts() {
		lex := testing.AllocsPerRun(20, func() {
			l := Lexer{src: text}
			for {
				tok, err := l.Next()
				if err != nil {
					t.Fatal(err)
				}
				if tok.Kind == TokEOF {
					return
				}
			}
		})
		norm := testing.AllocsPerRun(20, func() { normSink = Normalize(text) })
		if lex != 0 || norm > 1 {
			t.Errorf("lexing allocates %v (want 0), Normalize %v (want <= 1) on\n%s", lex, norm, text)
		}
	}
}

// FuzzNormalize checks that Normalize accepts any input and, for input
// that lexes, depends only on the tokens: re-spacing every gap between
// tokens (whitespace or comments) or changing every literal's value
// leaves the normalized text unchanged.
func FuzzNormalize(f *testing.F) {
	for _, text := range fig10Texts() {
		f.Add(text)
	}
	for _, text := range []string{
		"SELECT * FROM shop WHERE name = 'Merdies'",
		"select *   from\n\tshop",
		"SELECT 'it''s' FROM t2",
		"SELECT a FROM t WHERE b > -2.5e3",
		"INSERT INTO t VALUES (-1, -2)",
		"SELECT a -5, a - -5, CASE WHEN a THEN -1 END -3 FROM t",
		"SELECT a FROM t WHERE b IN(-1, 'x') AND c IN (c, 2)",
		`SELECT "A", a != b /* c */ FROM t -- d`,
		"SELECT 'open",
		"SELECT @ FROM t",
	} {
		f.Add(text)
	}
	seps := []string{" ", "\n\t", "/**/"}
	f.Fuzz(func(t *testing.T, text string) {
		want := Normalize(text)
		toks, err := Tokenize(text)
		if err != nil {
			return
		}
		var spaced, relit strings.Builder
		end := 0
		for i, tok := range toks {
			if tok.Kind == TokEOF {
				spaced.WriteString(text[end:])
				relit.WriteString(text[end:])
				break
			}
			gap := text[end:tok.Pos]
			relit.WriteString(gap)
			if gap != "" {
				gap = seps[i%len(seps)]
			}
			spaced.WriteString(gap)
			spaced.WriteString(text[tok.Pos:tok.End])
			// A number that has both a fraction and an exponent ends
			// wherever the one it replaces ended; one that starts with
			// its point also starts where it did (after "a", ".5" is a
			// number and "0.5" would extend the identifier).
			switch {
			case tok.Kind == TokNumber && tok.Text[0] == '.':
				relit.WriteString(".5e1")
			case tok.Kind == TokNumber:
				relit.WriteString("0.5e1")
			case tok.Kind == TokString:
				relit.WriteString("'x''y'")
			default:
				relit.WriteString(text[tok.Pos:tok.End])
			}
			end = tok.End
		}
		if got := Normalize(spaced.String()); got != want {
			t.Errorf("re-spaced %q normalizes to %q, want %q (from %q)", spaced.String(), got, want, text)
		}
		if got := Normalize(relit.String()); got != want {
			t.Errorf("re-literaled %q normalizes to %q, want %q (from %q)", relit.String(), got, want, text)
		}
	})
}
