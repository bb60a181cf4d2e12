package sql

import (
	"reflect"
	"strings"
	"testing"

	"perm/internal/types"
)

func TestTokenize(t *testing.T) {
	toks, err := Tokenize(`SELECT a, "Quoted Id" FROM t WHERE x <> 'it''s' -- comment
		AND y >= 1.5e2 /* block */ ;`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "Quoted Id", "FROM", "t", "WHERE",
		"x", "<>", "it's", "AND", "y", ">=", "1.5e2", ";", ""}
	if len(texts) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(texts), texts, len(want))
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != TokKeyword || kinds[1] != TokIdent || kinds[3] != TokIdent ||
		kinds[9] != TokString || kinds[13] != TokNumber {
		t.Errorf("token kinds wrong: %v", kinds)
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", `"unterminated`, "a ? b"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) should fail", src)
		}
	}
}

func TestLexerNormalizesNotEqual(t *testing.T) {
	toks, err := Tokenize("a != b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Text != "<>" {
		t.Errorf("!= should normalize to <>, got %q", toks[1].Text)
	}
}

func parseSelect(t *testing.T, src string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStmt", src, stmt)
	}
	return sel
}

func TestParseSimpleSelect(t *testing.T) {
	sel := parseSelect(t, "SELECT a, b AS bee, t.c FROM t WHERE a > 1")
	if len(sel.Targets) != 3 {
		t.Fatalf("targets = %d", len(sel.Targets))
	}
	if sel.Targets[1].Alias != "bee" {
		t.Errorf("alias = %q", sel.Targets[1].Alias)
	}
	cr, ok := sel.Targets[2].Expr.(*ColumnRef)
	if !ok || cr.Table != "t" || cr.Column != "c" {
		t.Errorf("qualified ref = %#v", sel.Targets[2].Expr)
	}
	if sel.Where == nil {
		t.Error("where missing")
	}
}

func TestParseProvenanceKeyword(t *testing.T) {
	sel := parseSelect(t, "SELECT PROVENANCE a FROM t")
	if !sel.Provenance {
		t.Error("PROVENANCE flag not set")
	}
	sel = parseSelect(t, "SELECT a FROM t")
	if sel.Provenance {
		t.Error("PROVENANCE flag set spuriously")
	}
}

func TestParseFromAnnotations(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM v PROVENANCE (pid, pprice)")
	tn := sel.From[0].(*TableName)
	if len(tn.ProvAttrs) != 2 || tn.ProvAttrs[0] != "pid" || tn.ProvAttrs[1] != "pprice" {
		t.Errorf("ProvAttrs = %v", tn.ProvAttrs)
	}

	sel = parseSelect(t, "SELECT a FROM (SELECT sum(x) AS a FROM s) BASERELATION AS sub")
	sub := sel.From[0].(*SubqueryExpr)
	if !sub.BaseRelation || sub.Alias != "sub" {
		t.Errorf("BASERELATION subquery = %+v", sub)
	}

	// Paper's §IV-A3 placement: annotation after the alias.
	sel = parseSelect(t, "SELECT a FROM totalitemprice PROVENANCE (pid, pprice)")
	tn = sel.From[0].(*TableName)
	if tn.Name != "totalitemprice" || len(tn.ProvAttrs) != 2 {
		t.Errorf("annotated table = %+v", tn)
	}
}

func TestParseJoins(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y
		JOIN c USING (z) CROSS JOIN d`)
	j1, ok := sel.From[0].(*JoinExpr)
	if !ok || j1.Kind != JoinCross {
		t.Fatalf("outermost join = %#v", sel.From[0])
	}
	j2 := j1.Left.(*JoinExpr)
	if j2.Kind != JoinInner || len(j2.Using) != 1 || j2.Using[0] != "z" {
		t.Errorf("USING join = %+v", j2)
	}
	j3 := j2.Left.(*JoinExpr)
	if j3.Kind != JoinLeft || j3.On == nil {
		t.Errorf("left join = %+v", j3)
	}
}

func TestParseSetOps(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t UNION ALL SELECT b FROM s INTERSECT SELECT c FROM u")
	// INTERSECT binds tighter: t UNION ALL (s INTERSECT u).
	if sel.Op != SetUnion || !sel.All {
		t.Fatalf("top op = %v all=%v", sel.Op, sel.All)
	}
	right := sel.Right
	if right.Op != SetIntersect {
		t.Errorf("right op = %v, want INTERSECT", right.Op)
	}

	sel = parseSelect(t, "(SELECT a FROM t EXCEPT SELECT b FROM s) UNION SELECT c FROM u")
	if sel.Op != SetUnion || sel.Left.Op != SetExcept {
		t.Errorf("bracketed tree wrong: %v / %v", sel.Op, sel.Left.Op)
	}
}

func TestParseOrderLimit(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t ORDER BY a DESC, 2 LIMIT 10 OFFSET 5")
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order by = %+v", sel.OrderBy)
	}
	if sel.Limit == nil || sel.Offset == nil {
		t.Error("limit/offset missing")
	}
}

func TestParseGroupByHaving(t *testing.T) {
	sel := parseSelect(t, "SELECT a, sum(b) FROM t GROUP BY a HAVING sum(b) > 10")
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Errorf("group/having = %v / %v", sel.GroupBy, sel.Having)
	}
	fe := sel.Targets[1].Expr.(*FuncExpr)
	if fe.Name != "sum" {
		t.Errorf("agg name = %q", fe.Name)
	}
}

func TestParseExpressions(t *testing.T) {
	sel := parseSelect(t, `SELECT
		CASE WHEN a = 1 THEN 'one' ELSE 'many' END,
		CASE a WHEN 1 THEN 'x' END,
		a BETWEEN 1 AND 10,
		b NOT LIKE 'x%',
		c IN (1, 2, 3),
		d NOT IN (SELECT e FROM s),
		EXISTS (SELECT 1 FROM s),
		f IS NOT NULL,
		g IS DISTINCT FROM h,
		CAST(a AS float),
		EXTRACT(YEAR FROM d),
		substring(s FROM 1 FOR 2),
		-a + 2 * 3
	FROM t`)
	if len(sel.Targets) != 13 {
		t.Fatalf("targets = %d", len(sel.Targets))
	}
	if _, ok := sel.Targets[0].Expr.(*CaseExpr); !ok {
		t.Error("searched CASE not parsed")
	}
	if ce, ok := sel.Targets[1].Expr.(*CaseExpr); !ok || ce.Operand == nil {
		t.Error("operand CASE not parsed")
	}
	if be, ok := sel.Targets[2].Expr.(*BetweenExpr); !ok || be.Not {
		t.Error("BETWEEN not parsed")
	}
	if ue, ok := sel.Targets[3].Expr.(*UnaryExpr); !ok || ue.Op != "NOT" {
		t.Error("NOT LIKE not parsed as negation")
	}
	if il, ok := sel.Targets[4].Expr.(*InListExpr); !ok || len(il.List) != 3 {
		t.Error("IN list not parsed")
	}
	if sq, ok := sel.Targets[5].Expr.(*SubqueryRef); !ok || !sq.Not || sq.Kind != SubIn {
		t.Error("NOT IN subquery not parsed")
	}
	if sq, ok := sel.Targets[6].Expr.(*SubqueryRef); !ok || sq.Kind != SubExists {
		t.Error("EXISTS not parsed")
	}
	if in, ok := sel.Targets[7].Expr.(*IsNullExpr); !ok || !in.Not {
		t.Error("IS NOT NULL not parsed")
	}
	if df, ok := sel.Targets[8].Expr.(*DistinctExpr); !ok || df.Not {
		t.Error("IS DISTINCT FROM not parsed")
	}
	if ca, ok := sel.Targets[9].Expr.(*CastExpr); !ok || ca.Type != types.KindFloat {
		t.Error("CAST not parsed")
	}
	if ex, ok := sel.Targets[10].Expr.(*ExtractExpr); !ok || ex.Field != "YEAR" {
		t.Error("EXTRACT not parsed")
	}
	if fe, ok := sel.Targets[11].Expr.(*FuncExpr); !ok || fe.Name != "substring" || len(fe.Args) != 3 {
		t.Error("SUBSTRING not parsed")
	}
}

func TestParsePrecedence(t *testing.T) {
	sel := parseSelect(t, "SELECT a + b * c FROM t")
	be := sel.Targets[0].Expr.(*BinExpr)
	if be.Op != "+" {
		t.Fatalf("top op = %q, want +", be.Op)
	}
	if inner, ok := be.Right.(*BinExpr); !ok || inner.Op != "*" {
		t.Error("* must bind tighter than +")
	}

	sel = parseSelect(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or := sel.Where.(*BinExpr)
	if or.Op != "OR" {
		t.Fatalf("top where op = %q, want OR", or.Op)
	}
	and, ok := or.Right.(*BinExpr)
	if !ok || and.Op != "AND" {
		t.Error("AND must bind tighter than OR")
	}

	sel = parseSelect(t, "SELECT * FROM t WHERE NOT a = 1 AND b = 2")
	topAnd := sel.Where.(*BinExpr)
	if topAnd.Op != "AND" {
		t.Fatalf("NOT must bind tighter than AND; top = %q", topAnd.Op)
	}
	if _, ok := topAnd.Left.(*UnaryExpr); !ok {
		t.Error("left side must be NOT(...)")
	}
}

func TestParseLiterals(t *testing.T) {
	sel := parseSelect(t, `SELECT 1, -2, 2.5, 'str', NULL, TRUE, FALSE,
		date '1995-06-17', interval '3' month, interval '90' day FROM t`)
	lits := make([]types.Value, 0)
	for _, tg := range sel.Targets {
		if l, ok := tg.Expr.(*Lit); ok {
			lits = append(lits, l.Val)
		}
	}
	if len(lits) != 10 {
		t.Fatalf("got %d literals", len(lits))
	}
	if lits[0].I != 1 || lits[1].I != -2 || lits[2].F() != 2.5 || lits[3].Str() != "str" {
		t.Error("scalar literals wrong")
	}
	if !lits[4].Null || !lits[5].B || lits[6].B {
		t.Error("null/bool literals wrong")
	}
	if lits[7].K != types.KindDate || lits[7].String() != "1995-06-17" {
		t.Errorf("date literal = %v", lits[7])
	}
	mo, _ := lits[8].IntervalParts()
	if mo != 3 {
		t.Errorf("interval months = %d", mo)
	}
	_, dy := lits[9].IntervalParts()
	if dy != 90 {
		t.Errorf("interval days = %d", dy)
	}
}

func TestParseDDL(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE t (a int NOT NULL, b varchar(10), c decimal(12,2), PRIMARY KEY (a))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if len(ct.Cols) != 3 {
		t.Fatalf("cols = %d", len(ct.Cols))
	}
	if ct.Cols[0].Type != types.KindInt || ct.Cols[1].Type != types.KindString ||
		ct.Cols[2].Type != types.KindFloat {
		t.Errorf("column types = %+v", ct.Cols)
	}

	stmt, err = Parse("CREATE TABLE IF NOT EXISTS t (a int)")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.(*CreateTableStmt).IfNotExists {
		t.Error("IF NOT EXISTS not parsed")
	}

	stmt, err = Parse("CREATE VIEW v AS SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*CreateViewStmt).Name != "v" {
		t.Error("view name wrong")
	}

	stmt, err = Parse("DROP VIEW IF EXISTS v")
	if err != nil {
		t.Fatal(err)
	}
	ds := stmt.(*DropStmt)
	if !ds.View || !ds.IfExists {
		t.Errorf("drop = %+v", ds)
	}
}

func TestParseInsertDelete(t *testing.T) {
	stmt, err := Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if len(ins.Cols) != 2 || len(ins.Values) != 2 {
		t.Errorf("insert = %+v", ins)
	}

	stmt, err = Parse("INSERT INTO t SELECT a, b FROM s")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*InsertStmt).Query == nil {
		t.Error("INSERT ... SELECT not parsed")
	}

	stmt, err = Parse("DELETE FROM t WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*DeleteStmt).Where == nil {
		t.Error("DELETE WHERE not parsed")
	}
}

func TestParseSelectInto(t *testing.T) {
	sel := parseSelect(t, "SELECT a INTO saved FROM t")
	if sel.Into != "saved" {
		t.Errorf("INTO = %q", sel.Into)
	}
}

func TestParseExplain(t *testing.T) {
	stmt, err := Parse("EXPLAIN REWRITE SELECT PROVENANCE a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	ex := stmt.(*ExplainStmt)
	if !ex.Rewrite || !ex.Query.Provenance {
		t.Errorf("explain = %+v", ex)
	}
	// Source is the SELECT's own text: no EXPLAIN prefix, no trailing
	// comment or semicolon, whatever comes between the keywords.
	for src, want := range map[string]string{
		"EXPLAIN REWRITE SELECT PROVENANCE a FROM t":                              "SELECT PROVENANCE a FROM t",
		"explain /* c */ analyze (SELECT a FROM t) UNION SELECT b FROM s -- x\n;": "(SELECT a FROM t) UNION SELECT b FROM s",
		"EXPLAIN SELECT a FROM (SELECT a FROM t) AS x JOIN u ON a = b;":           "SELECT a FROM (SELECT a FROM t) AS x JOIN u ON a = b",
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := stmt.(*ExplainStmt).Source; got != want {
			t.Errorf("Source of %q = %q, want %q", src, got, want)
		}
	}
}

func TestParseAllMultiple(t *testing.T) {
	stmts, err := ParseAll("CREATE TABLE t (a int); INSERT INTO t VALUES (1); SELECT a FROM t;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t JOIN s",    // missing ON
		"SELECT a b c FROM t",       // junk after alias
		"CREATE TABLE t",            // missing columns
		"CREATE TABLE t (a unkown)", // bad type
		"INSERT t VALUES (1)",       // missing INTO
		"SELECT CASE END FROM t",    // CASE without WHEN
		"SELECT a FROM t ORDER",     // incomplete
		"SELECT (SELECT a FROM s FROM t",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("SELECT a\nFROM t WHERE ???")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should report line 2: %v", err)
	}
}

func TestParseQuantifiedComparison(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t WHERE a > ANY (SELECT b FROM s) AND a <= ALL (SELECT c FROM u)")
	and := sel.Where.(*BinExpr)
	anyRef, ok := and.Left.(*SubqueryRef)
	if !ok || anyRef.Kind != SubAny || anyRef.Op != ">" {
		t.Errorf("ANY = %#v", and.Left)
	}
	allRef, ok := and.Right.(*SubqueryRef)
	if !ok || allRef.Kind != SubAll || allRef.Op != "<=" {
		t.Errorf("ALL = %#v", and.Right)
	}
}

func TestParseScalarSubquery(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t WHERE a > (SELECT max(b) FROM s)")
	cmp := sel.Where.(*BinExpr)
	if sq, ok := cmp.Right.(*SubqueryRef); !ok || sq.Kind != SubScalar {
		t.Errorf("scalar subquery = %#v", cmp.Right)
	}
}

func TestTypeFromName(t *testing.T) {
	cases := map[string]types.Kind{
		"int": types.KindInt, "INTEGER": types.KindInt, "bigint": types.KindInt,
		"float": types.KindFloat, "decimal": types.KindFloat, "numeric": types.KindFloat,
		"text": types.KindString, "varchar": types.KindString,
		"bool": types.KindBool, "date": types.KindDate,
	}
	for name, want := range cases {
		got, ok := TypeFromName(name)
		if !ok || got != want {
			t.Errorf("TypeFromName(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := TypeFromName("blob"); ok {
		t.Error("blob should be unknown")
	}
}

// FuzzParse: the parser is a byte boundary (every statement text a client
// sends reaches it), so on any input it returns an error or a statement,
// never panics, and never both fails and succeeds.
func FuzzParse(f *testing.F) {
	for _, text := range fig10Texts() {
		f.Add(text)
	}
	for _, text := range []string{
		"SELECT PROVENANCE a, count(*) FROM t GROUP BY a HAVING count(*) > 1 ORDER BY 2 DESC LIMIT 3",
		"SELECT a FROM t LEFT JOIN u ON t.a = u.b UNION ALL SELECT c FROM v EXCEPT SELECT 1",
		"SELECT * FROM (SELECT a FROM t) AS s WHERE a IN (SELECT b FROM u) AND EXISTS (SELECT 1)",
		"INSERT INTO t VALUES (1, 'x'), (NULL, -2.5)",
		"EXPLAIN ANALYZE SELECT CASE WHEN a IS NULL THEN 0 ELSE a END FROM t",
		"SELECT (((a", "SELECT a FROM", ";;", "",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		stmt, err := Parse(text)
		if (err == nil) == (stmt == nil || reflect.ValueOf(stmt).IsNil()) {
			t.Fatalf("Parse(%q) = %v, %v: want exactly one of a statement and an error", text, stmt, err)
		}
	})
}
