package qcache

import (
	"fmt"
	"hash/fnv"
	"testing"

	"perm/internal/sql"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT * FROM shop WHERE name = 'Merdies'", "select * from shop where name = ?"},
		{"select *   from\n\tshop", "select * from shop"},
		{"SELECT a + 10 FROM t WHERE b < 2.5e3", "select a + ? from t where b < ?"},
		{"SELECT 'it''s' FROM t2", "select ? from t2"}, // digit inside identifier survives
		{"  SELECT 1  ", "select ?"},
		// Comments are gaps; != lexes as <>; a quoted identifier keeps
		// its quotes and case.
		{"/* hint */ SELECT a\nFROM t -- note\nWHERE b = 2", "select a from t where b = ?"},
		{`SELECT "A", a != b FROM t`, `select "A", a <> b from t`},
		// From a lexical error on, the text is kept as it is.
		{"SELECT a FROM t WHERE b = 'open", "select a from t where b = 'open"},
		{"SELECT @x, 1 FROM t", "select @x, 1 FROM t"},
	}
	for _, c := range cases {
		if got := sql.Normalize(c.in); got != c.want {
			t.Fatalf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestNormalizeNegativeLiterals pins the unary-minus fold: a sign
// directly before a number after an opener, separator or operator is
// part of the literal, while binary subtraction keeps its operator.
func TestNormalizeNegativeLiterals(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT a FROM t WHERE b = -5", "select a from t where b = ?"},
		{"SELECT a FROM t WHERE b > -2.5e3", "select a from t where b > ?"},
		{"INSERT INTO t VALUES (-1, -2)", "insert into t values (?, ?)"},
		{"SELECT a - 5 FROM t", "select a - ? from t"},
		{"SELECT a -5 FROM t", "select a -? from t"}, // still subtraction
		{"SELECT a - -5 FROM t", "select a - ? from t"},
		// After a keyword the sign negates, unless the keyword ends an
		// operand (NULL, TRUE, FALSE, END).
		{"SELECT -1", "select ?"},
		{"SELECT a FROM t WHERE b BETWEEN -2 AND -1", "select a from t where b between ? and ?"},
		{"SELECT CASE WHEN a THEN -1 ELSE -2 END -3 FROM t", "select case when a then ? else ? end -? from t"},
		{"SELECT a FROM t WHERE b IS NULL -1", "select a from t where b is null -?"},
		{"SELECT TRUE -1, FALSE -1", "select true -?, false -?"},
	}
	for _, c := range cases {
		if got := sql.Normalize(c.in); got != c.want {
			t.Fatalf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if Fingerprint("SELECT a FROM t WHERE b = -5") != Fingerprint("SELECT a FROM t WHERE b = 17") {
		t.Fatal("negative and positive literal variants fingerprint differently")
	}
	if Fingerprint("SELECT -1") != Fingerprint("SELECT 1") {
		t.Fatal("a sign after SELECT splits the fingerprint")
	}
}

// TestNormalizeInListArity pins the IN-list collapse: lists of literals
// normalize to one placeholder regardless of arity, while lists
// containing anything but literals are preserved.
func TestNormalizeInListArity(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT a FROM t WHERE b IN (1, 2)", "select a from t where b in (?)"},
		{"SELECT a FROM t WHERE b IN (1,2,3)", "select a from t where b in (?)"},
		{"SELECT a FROM t WHERE b IN(-1, 'x')", "select a from t where b in (?)"},
		{"SELECT a FROM t WHERE b IN (c, 2)", "select a from t where b in (c, ?)"},
		{"SELECT a FROM t WHERE b IN (SELECT a FROM s)", "select a from t where b in (select a from s)"},
		{"SELECT inv FROM t WHERE inv = 3", "select inv from t where inv = ?"}, // "in" prefix of identifier
	}
	for _, c := range cases {
		if got := sql.Normalize(c.in); got != c.want {
			t.Fatalf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	a := Fingerprint("SELECT a FROM t WHERE b IN (1, 2)")
	b := Fingerprint("SELECT a FROM t WHERE b IN (4, 5, 6, 7)")
	if a != b {
		t.Fatalf("IN-list arity variants fingerprint differently: %s vs %s", a, b)
	}
}

// TestFingerprint pins the parameterization property: same shape,
// different literals → same fingerprint; different shape → different.
func TestFingerprint(t *testing.T) {
	a := Fingerprint("SELECT name FROM shop WHERE numempl > 3")
	b := Fingerprint("select name from  shop where numempl > 100")
	if a != b {
		t.Fatalf("literal-only variants fingerprint differently: %s vs %s", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("fingerprint %q is not 16 hex digits", a)
	}
	if c := Fingerprint("SELECT name FROM sales WHERE numempl > 3"); c == a {
		t.Fatalf("distinct statements share fingerprint %s", a)
	}
	for _, same := range []string{
		"SELECT name FROM shop WHERE numempl > 3 -- x",
		"SELECT name FROM shop WHERE numempl > 3 /* id 42 */",
	} {
		if Fingerprint(same) != a {
			t.Errorf("%q fingerprints apart from its statement without a comment", same)
		}
	}
	if Fingerprint("SELECT a FROM t WHERE b != 1") != Fingerprint("SELECT a FROM t WHERE b <> 1") {
		t.Error("!= and <> fingerprint apart")
	}
	if Fingerprint(`SELECT "A" FROM t`) == Fingerprint(`SELECT "a" FROM t`) {
		t.Error(`quoted identifiers "A" and "a" share a fingerprint`)
	}
	// The format: FNV-1a of the normalized text as 16 lower-case hex
	// digits, so fingerprints recorded elsewhere stay comparable.
	for _, norm := range []string{"", "select ?", "select a from t where b in (?)"} {
		h := fnv.New64a()
		h.Write([]byte(norm))
		if got, want := FingerprintNormalized(norm), fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Errorf("FingerprintNormalized(%q) = %s, want %s", norm, got, want)
		}
	}
}
