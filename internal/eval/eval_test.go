package eval

import (
	"strings"
	"testing"
	"testing/quick"

	"perm/internal/algebra"
	"perm/internal/types"
)

// testBinder binds vars positionally (RT ignored, Col = position).
type testBinder struct{}

func (testBinder) BindVar(v *algebra.Var) (int, error) { return v.Col, nil }
func (testBinder) BindSubLink(*algebra.SubLink) (SubLinkValue, error) {
	return fakeSubLink{}, nil
}

type fakeSubLink struct{}

func (fakeSubLink) Scalar() (types.Value, error) { return types.NewInt(42), nil }
func (fakeSubLink) Exists() (bool, error)        { return true, nil }
func (fakeSubLink) CompareAny(test types.Value, op string) (types.Tri, error) {
	return types.TriTrue, nil
}
func (fakeSubLink) CompareAll(test types.Value, op string) (types.Tri, error) {
	return types.TriFalse, nil
}

func v(col int, k types.Kind) *algebra.Var {
	return &algebra.Var{Col: col, Typ: k}
}

func c(val types.Value) *algebra.Const { return &algebra.Const{Val: val} }

func evalExpr(t *testing.T, e algebra.Expr, row types.Row) types.Value {
	t.Helper()
	f, err := Compile(e, testBinder{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out, err := f(&Ctx{Row: row})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return out
}

func TestVarAndConst(t *testing.T) {
	row := types.Row{types.NewInt(7), types.NewString("x")}
	if got := evalExpr(t, v(0, types.KindInt), row); got.I != 7 {
		t.Errorf("var = %v", got)
	}
	if got := evalExpr(t, c(types.NewBool(true)), row); !got.B {
		t.Errorf("const = %v", got)
	}
}

func TestComparisonNullSemantics(t *testing.T) {
	row := types.Row{types.NewInt(1), types.NewNull(types.KindInt)}
	eq := &algebra.BinOp{Op: "=", Left: v(0, types.KindInt), Right: v(1, types.KindInt), Typ: types.KindBool}
	if got := evalExpr(t, eq, row); !got.Null {
		t.Errorf("1 = NULL should be NULL, got %v", got)
	}
	df := &algebra.DistinctFrom{Left: v(0, types.KindInt), Right: v(1, types.KindInt)}
	if got := evalExpr(t, df, row); !got.B {
		t.Errorf("1 IS DISTINCT FROM NULL should be true, got %v", got)
	}
	isn := &algebra.IsNull{Expr: v(1, types.KindInt)}
	if got := evalExpr(t, isn, row); !got.B {
		t.Errorf("NULL IS NULL should be true")
	}
}

func TestShortCircuit(t *testing.T) {
	// FALSE AND (1/0 = 1) must not evaluate the division.
	div := &algebra.BinOp{Op: "/",
		Left: c(types.NewInt(1)), Right: c(types.NewInt(0)), Typ: types.KindInt}
	boom := &algebra.BinOp{Op: "=", Left: div, Right: c(types.NewInt(1)), Typ: types.KindBool}
	and := &algebra.BinOp{Op: "AND", Left: c(types.NewBool(false)), Right: boom, Typ: types.KindBool}
	if got := evalExpr(t, and, nil); got.Null || got.B {
		t.Errorf("FALSE AND boom = %v, want false", got)
	}
	or := &algebra.BinOp{Op: "OR", Left: c(types.NewBool(true)), Right: boom, Typ: types.KindBool}
	if got := evalExpr(t, or, nil); !got.B {
		t.Errorf("TRUE OR boom = %v, want true", got)
	}
}

func TestCaseEvaluation(t *testing.T) {
	ce := &algebra.CaseExpr{
		Whens: []algebra.CaseWhen{
			{Cond: &algebra.BinOp{Op: "<", Left: v(0, types.KindInt), Right: c(types.NewInt(5)), Typ: types.KindBool},
				Result: c(types.NewString("small"))},
		},
		Else: c(types.NewString("big")),
		Typ:  types.KindString,
	}
	if got := evalExpr(t, ce, types.Row{types.NewInt(1)}); got.Str() != "small" {
		t.Errorf("case = %v", got)
	}
	if got := evalExpr(t, ce, types.Row{types.NewInt(9)}); got.Str() != "big" {
		t.Errorf("case = %v", got)
	}
	// NULL condition falls through to ELSE.
	if got := evalExpr(t, ce, types.Row{types.NewNull(types.KindInt)}); got.Str() != "big" {
		t.Errorf("case null cond = %v", got)
	}
	// No ELSE → typed NULL.
	ce.Else = nil
	if got := evalExpr(t, ce, types.Row{types.NewInt(9)}); !got.Null {
		t.Errorf("case without else = %v", got)
	}
}

func TestScalarFunctions(t *testing.T) {
	cases := []struct {
		name string
		args []algebra.Expr
		want string
	}{
		{"upper", []algebra.Expr{c(types.NewString("abc"))}, "ABC"},
		{"lower", []algebra.Expr{c(types.NewString("AbC"))}, "abc"},
		{"length", []algebra.Expr{c(types.NewString("abcd"))}, "4"},
		{"substring", []algebra.Expr{c(types.NewString("hello")), c(types.NewInt(2)), c(types.NewInt(3))}, "ell"},
		{"substring", []algebra.Expr{c(types.NewString("hello")), c(types.NewInt(4))}, "lo"},
		{"abs", []algebra.Expr{c(types.NewInt(-5))}, "5"},
		{"round", []algebra.Expr{c(types.NewFloat(2.567)), c(types.NewInt(1))}, "2.6"},
		{"floor", []algebra.Expr{c(types.NewFloat(2.9))}, "2"},
		{"ceil", []algebra.Expr{c(types.NewFloat(2.1))}, "3"},
		{"sqrt", []algebra.Expr{c(types.NewFloat(9))}, "3"},
		{"power", []algebra.Expr{c(types.NewFloat(2)), c(types.NewFloat(10))}, "1024"},
		{"concat", []algebra.Expr{c(types.NewString("a")), c(types.NewInt(1))}, "a1"},
		{"coalesce", []algebra.Expr{c(types.NullValue), c(types.NewInt(3))}, "3"},
		{"extract_year", []algebra.Expr{c(types.DateFromYMD(1998, 7, 4))}, "1998"},
		{"extract_month", []algebra.Expr{c(types.DateFromYMD(1998, 7, 4))}, "7"},
		{"extract_day", []algebra.Expr{c(types.DateFromYMD(1998, 7, 4))}, "4"},
	}
	for _, tc := range cases {
		fc := &algebra.FuncCall{Name: tc.name, Args: tc.args}
		if got := evalExpr(t, fc, nil); got.String() != tc.want {
			t.Errorf("%s(...) = %q, want %q", tc.name, got.String(), tc.want)
		}
	}
	// NULL propagation for non-coalesce functions.
	fc := &algebra.FuncCall{Name: "upper", Args: []algebra.Expr{c(types.NullValue)}}
	if got := evalExpr(t, fc, nil); !got.Null {
		t.Errorf("upper(NULL) = %v", got)
	}
}

func TestSubLinkKinds(t *testing.T) {
	scalar := &algebra.SubLink{Kind: algebra.SubScalar, Typ: types.KindInt}
	if got := evalExpr(t, scalar, nil); got.I != 42 {
		t.Errorf("scalar sublink = %v", got)
	}
	exists := &algebra.SubLink{Kind: algebra.SubExists, Typ: types.KindBool}
	if got := evalExpr(t, exists, nil); !got.B {
		t.Errorf("exists sublink = %v", got)
	}
	anyL := &algebra.SubLink{Kind: algebra.SubAny, Op: "=",
		Test: c(types.NewInt(1)), Typ: types.KindBool}
	if got := evalExpr(t, anyL, nil); !got.B {
		t.Errorf("any sublink = %v", got)
	}
	allL := &algebra.SubLink{Kind: algebra.SubAll, Op: "=",
		Test: c(types.NewInt(1)), Typ: types.KindBool}
	if got := evalExpr(t, allL, nil); got.B {
		t.Errorf("all sublink = %v", got)
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_x", false},
		{"hello", "", false},
		{"", "", true},
		{"", "%", true},
		{"abc", "%%", true},
		{"abc", "a%b%c", true},
		{"abc", "a%c%b", false},
		{"special requests here", "%special%requests%", true},
		{"specialrequests", "%special%requests%", true},
		{"requests special", "%special%requests%", false},
		{"PROMO BRUSHED TIN", "PROMO%", true},
		{"x", "_", true},
		{"xy", "_", false},
	}
	for _, tc := range cases {
		if got := MatchLike(tc.s, tc.p); got != tc.want {
			t.Errorf("MatchLike(%q, %q) = %v, want %v", tc.s, tc.p, got, tc.want)
		}
	}
}

// TestMatchLikeProperties property-tests the LIKE matcher against a
// simple specification.
func TestMatchLikeProperties(t *testing.T) {
	// s LIKE s is always true for %-free, _-free strings.
	ident := func(s string) bool {
		clean := strings.NewReplacer("%", "", "_", "").Replace(s)
		return MatchLike(clean, clean)
	}
	if err := quick.Check(ident, nil); err != nil {
		t.Error("identity:", err)
	}
	// "%"+s+"%" matches any superstring.
	contains := func(pre, s, post string) bool {
		clean := strings.NewReplacer("%", "", "_", "").Replace(s)
		return MatchLike(pre+clean+post, "%"+clean+"%")
	}
	if err := quick.Check(contains, nil); err != nil {
		t.Error("contains:", err)
	}
	// A lone % matches everything.
	all := func(s string) bool { return MatchLike(s, "%") }
	if err := quick.Check(all, nil); err != nil {
		t.Error("%:", err)
	}
}

func TestCast(t *testing.T) {
	ce := &algebra.Cast{Expr: c(types.NewInt(42)), To: types.KindString}
	if got := evalExpr(t, ce, nil); got.Str() != "42" {
		t.Errorf("cast = %v", got)
	}
	ce = &algebra.Cast{Expr: c(types.NewString("1995-06-17")), To: types.KindDate}
	if got := evalExpr(t, ce, nil); got.String() != "1995-06-17" {
		t.Errorf("cast to date = %v", got)
	}
}

func TestCompileErrors(t *testing.T) {
	// Unmapped aggregate must fail at compile time.
	ar := &algebra.AggRef{Fn: algebra.AggSum, Arg: c(types.NewInt(1)), Typ: types.KindInt}
	if _, err := Compile(ar, testBinder{}); err == nil {
		t.Error("compiling a raw AggRef should fail")
	}
	if _, err := Compile(nil, testBinder{}); err == nil {
		t.Error("compiling nil should fail")
	}
}

func TestNotOperator(t *testing.T) {
	not := &algebra.UnOp{Op: "NOT", Expr: c(types.NewNull(types.KindBool)), Typ: types.KindBool}
	if got := evalExpr(t, not, nil); !got.Null {
		t.Errorf("NOT NULL = %v, want NULL", got)
	}
}
