package vexec

// Kernel equivalence: every select, arithmetic, CASE, hash and aggregate
// kernel is run against a deliberately naive lane-at-a-time reference
// (refEval, refHash, refAcc below — the shape the engine's inner loops had
// before they were specialised) over random vectors × {no NULLs, sparse
// NULLs, all NULL} × {nil, sparse, empty selection}. The reference is the
// specification: three-valued logic, the three-way comparison outcome (a
// NaN compares equal to everything), AND/OR that evaluate their right
// operand only where the left one decides nothing.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/types"
	"perm/internal/vector"
)

// ---------------------------------------------------------------------------
// Test data

// Column positions of the test batch.
const (
	cI1, cI2 = 0, 1
	cF1, cF2 = 2, 3
	cS1, cS2 = 4, 5
	cB1, cB2 = 6, 7
	cD1, cD2 = 8, 9
)

var testKinds = []types.Kind{
	types.KindInt, types.KindInt, types.KindFloat, types.KindFloat,
	types.KindString, types.KindString, types.KindBool, types.KindBool,
	types.KindDate, types.KindDate,
}

var (
	floatPool  = []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -1.5, math.Inf(1), math.Inf(-1), 2, 3, -3}
	stringPool = []string{"", "a", "ab", "abc", "b", "PROMO x", "x%y", "a_c", "abcdefghij", "abcdefghijk"}
)

type nullMode int

const (
	noNulls nullMode = iota
	sparseNulls
	allNulls
)

// randomBatch draws n rows: small value domains, so equalities, zero
// divisors, NaNs, −0.0 and empty strings all occur.
func randomBatch(r *rand.Rand, n int, nulls nullMode) *vector.Batch {
	cols := make([]*vector.Vec, len(testKinds))
	for c, k := range testKinds {
		v := vector.NewVec(k, n)
		for i := 0; i < n; i++ {
			switch k {
			case types.KindInt:
				v.I[i] = int64(r.Intn(7) - 3)
			case types.KindDate:
				v.I[i] = int64(r.Intn(6))
			case types.KindFloat:
				v.F[i] = floatPool[r.Intn(len(floatPool))]
			case types.KindString:
				v.S[i] = stringPool[r.Intn(len(stringPool))]
			case types.KindBool:
				v.B[i] = r.Intn(2) == 0
			}
			if nulls == allNulls || (nulls == sparseNulls && r.Intn(5) == 0) {
				v.Nulls.Set(i)
			}
		}
		cols[c] = v
	}
	return &vector.Batch{N: n, Cols: cols}
}

type selMode int

const (
	nilSel selMode = iota
	sparseSel
	emptySel
)

func randomSel(r *rand.Rand, n int, mode selMode) []int {
	switch mode {
	case nilSel:
		return nil
	case emptySel:
		return []int{}
	}
	sel := []int{}
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			sel = append(sel, i)
		}
	}
	return sel
}

// colBinder binds Vars positionally.
type colBinder struct{}

func (colBinder) BindVar(v *algebra.Var) (int, error) { return v.Col, nil }
func (colBinder) BindSubLink(*algebra.SubLink) (algebra.SubLinkValue, error) {
	return nil, fmt.Errorf("no sublinks in kernel tests")
}

// ---------------------------------------------------------------------------
// Expression construction

func col(c int) algebra.Expr {
	return &algebra.Var{Col: c, Typ: testKinds[c], Name: fmt.Sprintf("c%d", c)}
}
func lit(v types.Value) algebra.Expr { return &algebra.Const{Val: v} }
func intLit(i int64) algebra.Expr    { return lit(types.NewInt(i)) }
func fltLit(f float64) algebra.Expr  { return lit(types.NewFloat(f)) }
func strLit(s string) algebra.Expr   { return lit(types.NewString(s)) }

func bin(op string, typ types.Kind, l, r algebra.Expr) algebra.Expr {
	return &algebra.BinOp{Op: op, Left: l, Right: r, Typ: typ}
}
func cmp(op string, l, r algebra.Expr) algebra.Expr { return bin(op, types.KindBool, l, r) }
func and(l, r algebra.Expr) algebra.Expr            { return bin("AND", types.KindBool, l, r) }
func or(l, r algebra.Expr) algebra.Expr             { return bin("OR", types.KindBool, l, r) }
func not(e algebra.Expr) algebra.Expr {
	return &algebra.UnOp{Op: "NOT", Expr: e, Typ: types.KindBool}
}
func neg(e algebra.Expr) algebra.Expr {
	return &algebra.UnOp{Op: "-", Expr: e, Typ: algebra.TypeOf(e)}
}

// arith types the result like the analyzer: int for an int pair, float for
// any other numeric pair.
func arith(op string, l, r algebra.Expr) algebra.Expr {
	typ := types.KindFloat
	if algebra.TypeOf(l) == types.KindInt && algebra.TypeOf(r) == types.KindInt {
		typ = types.KindInt
	}
	return bin(op, typ, l, r)
}

func caseOf(typ types.Kind, els algebra.Expr, arms ...algebra.Expr) algebra.Expr {
	c := &algebra.CaseExpr{Typ: typ, Else: els}
	for i := 0; i+1 < len(arms); i += 2 {
		c.Whens = append(c.Whens, algebra.CaseWhen{Cond: arms[i], Result: arms[i+1]})
	}
	return c
}

var cmpOps = []string{"=", "<>", "<", "<=", ">", ">="}

// testExpr is one corpus entry. mayErr marks expressions the reference can
// fail on (a division): the kernel must then fail on exactly the same
// inputs. On every other expression neither side may fail.
type testExpr struct {
	e      algebra.Expr
	mayErr bool
}

func corpus() []testExpr {
	var out []testExpr
	add := func(es ...algebra.Expr) {
		for _, e := range es {
			out = append(out, testExpr{e: e})
		}
	}
	nan := fltLit(math.NaN())
	// Comparisons: every operator × every kind class and operand shape,
	// including int⋄float, NaN and −0.0 constants, and the empty string.
	pairs := [][2]algebra.Expr{
		{col(cI1), col(cI2)}, {col(cI1), intLit(0)}, {intLit(1), col(cI1)},
		{col(cF1), col(cF2)}, {col(cF1), fltLit(1.5)}, {col(cF1), nan}, {col(cF1), fltLit(math.Copysign(0, -1))},
		{col(cI1), col(cF1)}, {col(cF1), col(cI1)}, {col(cI1), fltLit(0.5)}, {fltLit(-1.5), col(cI2)}, {col(cF1), intLit(2)},
		{col(cS1), col(cS2)}, {col(cS1), strLit("")}, {col(cS1), strLit("ab")}, {strLit("abc"), col(cS2)},
		{col(cB1), col(cB2)}, {col(cB1), lit(types.NewBool(true))},
		{col(cD1), col(cD2)}, {col(cD1), lit(types.NewDate(2))},
		{col(cI1), lit(types.NewNull(types.KindInt))},
		{arith("+", col(cI1), col(cI2)), arith("*", col(cI2), intLit(2))},
	}
	for _, op := range cmpOps {
		for _, p := range pairs {
			add(cmp(op, p[0], p[1]))
		}
	}
	// Ranges: both bounds in every strictness, either order, with a
	// conjunct in between, per class.
	for _, lo := range []string{">", ">="} {
		for _, hi := range []string{"<", "<="} {
			add(
				and(cmp(lo, col(cI1), intLit(-1)), cmp(hi, col(cI1), intLit(2))),
				and(cmp(hi, col(cF1), fltLit(2)), cmp(lo, col(cF1), fltLit(-1.5))),
				and(cmp(lo, col(cF1), nan), cmp(hi, col(cF1), fltLit(2))),
				and(cmp(lo, col(cS1), strLit("a")), cmp(hi, col(cS1), strLit("abc"))),
				and(and(cmp(lo, col(cD1), lit(types.NewDate(1))), cmp("<>", col(cI1), intLit(0))), cmp(hi, col(cD1), lit(types.NewDate(4)))),
				not(and(cmp(lo, col(cI1), intLit(-1)), cmp(hi, col(cI1), intLit(2)))),
				and(cmp(lo, col(cI1), fltLit(-0.5)), cmp(hi, col(cI1), fltLit(1.5))), // not fusable: widening
			)
		}
	}
	// LIKE: the compiled pattern shapes, the general matcher, a pattern
	// vector, a NULL pattern.
	for _, p := range []string{"", "%", "%%", "a%", "%c", "%b%", "abc", "a_c", "%x\\%y", "a%c", "PROMO%", "_", "%_%"} {
		add(bin("LIKE", types.KindBool, col(cS1), strLit(p)), not(bin("LIKE", types.KindBool, col(cS1), strLit(p))))
	}
	add(bin("LIKE", types.KindBool, col(cS1), col(cS2)), bin("LIKE", types.KindBool, col(cS1), lit(types.NewNull(types.KindString))))
	// IS NULL and IS DISTINCT FROM, over columns and computed operands.
	for _, notForm := range []bool{false, true} {
		add(
			&algebra.IsNull{Expr: col(cI1), Not: notForm},
			&algebra.IsNull{Expr: arith("+", col(cI1), col(cF1)), Not: notForm},
			&algebra.IsNull{Expr: cmp("<", col(cI1), col(cI2)), Not: notForm},
			&algebra.DistinctFrom{Left: col(cI1), Right: col(cI2), Not: notForm},
			&algebra.DistinctFrom{Left: col(cI1), Right: col(cF1), Not: notForm},
			&algebra.DistinctFrom{Left: col(cF1), Right: col(cF2), Not: notForm},
			&algebra.DistinctFrom{Left: col(cS1), Right: col(cS2), Not: notForm},
			&algebra.DistinctFrom{Left: col(cB1), Right: col(cB2), Not: notForm},
			&algebra.DistinctFrom{Left: col(cD1), Right: lit(types.NewDate(3)), Not: notForm},
		)
	}
	// Connectives over predicates that can be TRUE, FALSE and NULL.
	preds := []algebra.Expr{
		cmp("<", col(cI1), col(cI2)), cmp("=", col(cS1), strLit("a")), col(cB1),
		cmp(">=", col(cF1), fltLit(0)), &algebra.IsNull{Expr: col(cD1)}, lit(types.NewBool(true)), lit(types.NewBool(false)),
	}
	for _, a := range preds {
		add(a, not(a))
		for _, b := range preds {
			add(and(a, b), or(a, b), not(and(a, b)), not(or(a, b)), and(not(a), b), or(a, not(b)))
			add(and(a, or(b, preds[0])), or(and(a, b), preds[1]), and(and(a, b), preds[3]), or(or(a, b), preds[2]))
		}
	}
	// Arithmetic: every operator and shape, int and float, mixed kinds.
	for _, op := range []string{"+", "-", "*"} {
		add(
			arith(op, col(cI1), col(cI2)), arith(op, col(cI1), intLit(3)), arith(op, intLit(3), col(cI2)),
			arith(op, col(cF1), col(cF2)), arith(op, col(cF1), fltLit(0.5)), arith(op, fltLit(2), col(cF2)),
			arith(op, col(cI1), col(cF1)), arith(op, col(cF1), col(cI2)), arith(op, col(cI1), fltLit(1.5)), arith(op, intLit(1), col(cF1)),
			arith(op, col(cI1), lit(types.NewNull(types.KindInt))),
		)
	}
	add(neg(col(cI1)), neg(col(cF1)), neg(arith("*", col(cF1), col(cI1))),
		arith("*", col(cF1), arith("-", intLit(1), col(cF2))),
		arith("/", col(cI1), intLit(2)), arith("%", col(cI1), intLit(2)), arith("/", col(cF1), fltLit(4)))
	for _, e := range []algebra.Expr{
		arith("/", col(cI1), col(cI2)), arith("%", col(cI1), col(cI2)), arith("/", intLit(6), col(cI2)), arith("%", intLit(7), col(cI2)),
		arith("/", col(cF1), col(cF2)), arith("/", col(cI1), col(cF2)), arith("/", fltLit(1), col(cF1)),
		arith("/", col(cI1), intLit(0)), arith("%", col(cI1), intLit(0)), arith("/", col(cF1), fltLit(0)),
	} {
		out = append(out, testExpr{e: e, mayErr: true})
	}
	// A guarded division never fires on the lanes its guard excluded.
	quot := arith("/", col(cI1), col(cI2))
	nonZero := cmp("<>", col(cI2), intLit(0))
	add(
		and(nonZero, cmp(">", quot, intLit(0))),
		or(cmp("=", col(cI2), intLit(0)), cmp(">", quot, intLit(0))),
		and(and(&algebra.IsNull{Expr: col(cI2), Not: true}, nonZero), cmp("=", arith("%", col(cI1), col(cI2)), intLit(0))),
		not(or(not(nonZero), cmp("<=", quot, intLit(0)))),
		caseOf(types.KindInt, intLit(0), nonZero, quot),
	)
	// CASE: plain, nested, int arms under a float CASE, NULL arms, no ELSE,
	// boolean-valued (used as a predicate), over strings and dates.
	small := cmp("<", col(cI1), intLit(0))
	add(
		caseOf(types.KindInt, intLit(0), small, intLit(1)),
		caseOf(types.KindInt, nil, small, col(cI2)),
		caseOf(types.KindFloat, intLit(0), cmp("LIKE", col(cS1), strLit("PROMO%")), arith("*", col(cF1), arith("-", intLit(1), col(cF2)))),
		caseOf(types.KindFloat, col(cF2), small, col(cI1), cmp("=", col(cI1), intLit(0)), fltLit(0.5)),
		caseOf(types.KindString, strLit("hi"), small, strLit("lo"), cmp("=", col(cI1), intLit(0)), col(cS1)),
		caseOf(types.KindDate, col(cD2), cmp(">", col(cD1), col(cD2)), col(cD1)),
		caseOf(types.KindInt, lit(types.NullValue), small, lit(types.NullValue), cmp(">", col(cI1), intLit(1)), col(cI1)),
		caseOf(types.KindInt, intLit(-1), small, caseOf(types.KindInt, intLit(10), cmp("<", col(cI2), intLit(0)), intLit(20)), col(cB1), intLit(30)),
		caseOf(types.KindBool, col(cB2), small, col(cB1)),
		and(caseOf(types.KindBool, lit(types.NewBool(false)), small, col(cB1)), cmp(">", col(cI2), intLit(-2))),
		arith("+", caseOf(types.KindInt, intLit(0), small, intLit(1)), col(cI2)),
	)
	return out
}

// ---------------------------------------------------------------------------
// The naive reference

// refCompare is the three-way outcome of two non-NULL values.
func refCompare(a, b types.Value) int {
	switch {
	case a.K == types.KindString:
		return strings.Compare(a.Str(), b.Str())
	case a.K == types.KindBool:
		switch {
		case a.B == b.B:
			return 0
		case b.B:
			return -1
		}
		return 1
	case a.K == types.KindFloat || b.K == types.KindFloat:
		x, y := a.AsFloat(), b.AsFloat()
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	default:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
}

func refCmpHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	default:
		return c >= 0
	}
}

var nullBool = types.NewNull(types.KindBool)

// refEval evaluates e on one lane.
func refEval(e algebra.Expr, cols []*vector.Vec, i int) (types.Value, error) {
	switch n := e.(type) {
	case *algebra.Var:
		return cols[n.Col].Value(i), nil
	case *algebra.Const:
		return n.Val, nil
	case *algebra.IsNull:
		v, err := refEval(n.Expr, cols, i)
		return types.NewBool(v.Null != n.Not), err
	case *algebra.DistinctFrom:
		l, err := refEval(n.Left, cols, i)
		if err != nil {
			return l, err
		}
		r, err := refEval(n.Right, cols, i)
		if err != nil {
			return r, err
		}
		distinct := l.Null != r.Null
		if !l.Null && !r.Null {
			distinct = refCompare(l, r) != 0
		}
		return types.NewBool(distinct != n.Not), nil
	case *algebra.UnOp:
		v, err := refEval(n.Expr, cols, i)
		if err != nil || v.Null {
			return types.NewNull(n.Typ), err
		}
		if n.Op == "NOT" {
			return types.NewBool(!v.B), nil
		}
		if v.K == types.KindInt {
			return types.NewInt(-v.I), nil
		}
		return types.NewFloat(-v.F()), nil
	case *algebra.CaseExpr:
		for _, w := range n.Whens {
			c, err := refEval(w.Cond, cols, i)
			if err != nil {
				return c, err
			}
			if c.IsTrue() {
				return refCaseResult(w.Result, n.Typ, cols, i)
			}
		}
		if n.Else == nil {
			return types.NewNull(n.Typ), nil
		}
		return refCaseResult(n.Else, n.Typ, cols, i)
	case *algebra.BinOp:
		return refBinOp(n, cols, i)
	}
	return types.NullValue, fmt.Errorf("refEval: %T", e)
}

func refCaseResult(e algebra.Expr, typ types.Kind, cols []*vector.Vec, i int) (types.Value, error) {
	v, err := refEval(e, cols, i)
	if err != nil {
		return v, err
	}
	return types.Coerce(v, typ)
}

func refBinOp(n *algebra.BinOp, cols []*vector.Vec, i int) (types.Value, error) {
	l, err := refEval(n.Left, cols, i)
	if err != nil {
		return l, err
	}
	if n.Op == "AND" || n.Op == "OR" {
		decides := n.Op == "OR" // the value that decides the connective alone
		if !l.Null && l.B == decides {
			return types.NewBool(decides), nil
		}
		r, err := refEval(n.Right, cols, i)
		if err != nil {
			return r, err
		}
		switch {
		case !r.Null && r.B == decides:
			return types.NewBool(decides), nil
		case l.Null || r.Null:
			return nullBool, nil
		}
		return types.NewBool(!decides), nil
	}
	r, err := refEval(n.Right, cols, i)
	if err != nil {
		return r, err
	}
	if l.Null || r.Null {
		return types.NewNull(n.Typ), nil
	}
	switch n.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		return types.NewBool(refCmpHolds(n.Op, refCompare(l, r))), nil
	case "LIKE":
		return types.NewBool(types.MatchLike(l.Str(), r.Str())), nil
	}
	if n.Typ == types.KindInt {
		a, b := l.I, r.I
		switch n.Op {
		case "+":
			return types.NewInt(a + b), nil
		case "-":
			return types.NewInt(a - b), nil
		case "*":
			return types.NewInt(a * b), nil
		}
		if b == 0 {
			return types.NullValue, fmt.Errorf("division by zero")
		}
		if n.Op == "/" {
			return types.NewInt(a / b), nil
		}
		return types.NewInt(a % b), nil
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch n.Op {
	case "+":
		return types.NewFloat(a + b), nil
	case "-":
		return types.NewFloat(a - b), nil
	case "*":
		return types.NewFloat(a * b), nil
	}
	if b == 0 {
		return types.NullValue, fmt.Errorf("division by zero")
	}
	return types.NewFloat(a / b), nil
}

// sameLane reports whether lane i of v holds the reference value want.
func sameLane(v *vector.Vec, i int, want types.Value) bool {
	if want.Null || v.Nulls.Get(i) {
		return want.Null && v.Nulls.Get(i)
	}
	switch v.Kind {
	case types.KindBool:
		return v.B[i] == want.B
	case types.KindFloat:
		f := want.AsFloat()
		return math.Float64bits(v.F[i]) == math.Float64bits(f) || (v.F[i] != v.F[i] && f != f)
	case types.KindString:
		return v.S[i] == want.Str()
	default:
		return v.I[i] == want.I
	}
}

func sameLanes(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Expression kernels against the reference

// checkExpr compiles e and compares its kernels with the reference on one
// batch and selection.
func checkExpr(t *testing.T, te testExpr, b *vector.Batch, sel []int) {
	t.Helper()
	ce, err := CompileExpr(te.e, colBinder{})
	if err != nil {
		t.Fatalf("%s does not compile: %v", describe(te.e), err)
	}
	lanes := resolveSel(b, sel)
	want := make([]types.Value, b.N)
	var refErr error
	var wantTrue, wantFalse []int
	for _, i := range lanes {
		v, err := refEval(te.e, b.Cols, i)
		if err != nil {
			refErr = err
			break
		}
		want[i] = v
		if v.K == types.KindBool && !v.Null {
			if v.B {
				wantTrue = append(wantTrue, i)
			} else {
				wantFalse = append(wantFalse, i)
			}
		}
	}
	if refErr != nil && !te.mayErr {
		t.Fatalf("%s: reference failed: %v", describe(te.e), refErr)
	}
	failed := func(what string, err error) bool {
		if (err != nil) != (refErr != nil) {
			t.Fatalf("%s: %s error = %v, reference error = %v", describe(te.e), what, err, refErr)
		}
		return err != nil
	}
	if ce.Kind() == types.KindBool {
		got, err := ce.selectTrue(b, sel)
		if !failed("select", err) {
			if got == nil && sel == nil {
				got = lanes
			}
			if !sameLanes(got, wantTrue) {
				t.Fatalf("%s: TRUE lanes %v, reference %v", describe(te.e), got, wantTrue)
			}
		}
		got, err = ce.selector().sel(b, sel, false)
		if !failed("select-false", err) {
			if got == nil && sel == nil {
				got = lanes
			}
			if !sameLanes(got, wantFalse) {
				t.Fatalf("%s: FALSE lanes %v, reference %v", describe(te.e), got, wantFalse)
			}
		}
	}
	v, err := ce.eval(b, sel)
	if failed("eval", err) {
		return
	}
	for _, i := range lanes {
		if !sameLane(v, i, want[i]) {
			t.Fatalf("%s: lane %d = %v, reference %v", describe(te.e), i, v.Value(i), want[i])
		}
	}
	ce.FreeResult(v)
}

// describe renders an expression for failure messages.
func describe(e algebra.Expr) string {
	switch n := e.(type) {
	case *algebra.Var:
		return n.Name
	case *algebra.Const:
		return n.Val.SQLLiteral()
	case *algebra.BinOp:
		return "(" + describe(n.Left) + " " + n.Op + " " + describe(n.Right) + ")"
	case *algebra.UnOp:
		return n.Op + " " + describe(n.Expr)
	case *algebra.IsNull:
		return fmt.Sprintf("%s IS NULL[not=%v]", describe(n.Expr), n.Not)
	case *algebra.DistinctFrom:
		return fmt.Sprintf("%s IS DISTINCT[not=%v] FROM %s", describe(n.Left), n.Not, describe(n.Right))
	case *algebra.CaseExpr:
		s := "CASE"
		for _, w := range n.Whens {
			s += " WHEN " + describe(w.Cond) + " THEN " + describe(w.Result)
		}
		if n.Else != nil {
			s += " ELSE " + describe(n.Else)
		}
		return s + " END"
	}
	return fmt.Sprintf("%T", e)
}

// TestKernelEquivalence runs the corpus over every NULL and selection
// mode. The subtests run in parallel, each on its own compiled
// expressions: under -race this is also the check that kernel scratch is
// per instance.
func TestKernelEquivalence(t *testing.T) {
	exprs := corpus()
	for _, nulls := range []nullMode{noNulls, sparseNulls, allNulls} {
		for _, mode := range []selMode{nilSel, sparseSel, emptySel} {
			nulls, mode := nulls, mode
			t.Run(fmt.Sprintf("nulls=%d/sel=%d", nulls, mode), func(t *testing.T) {
				t.Parallel()
				r := rand.New(rand.NewSource(int64(10*int(nulls) + int(mode))))
				for _, n := range []int{1, 70, 300, vector.BatchSize} {
					b := randomBatch(r, n, nulls)
					sel := randomSel(r, n, mode)
					for _, te := range exprs {
						checkExpr(t, te, b, sel)
					}
				}
			})
		}
	}
}

// TestKernelsReuseAcrossBatches drives one compiled expression over
// batches of changing size and selection: scratch is sized on first use
// and must follow.
func TestKernelsReuseAcrossBatches(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for _, te := range corpus() {
		if te.mayErr {
			continue
		}
		ce, err := CompileExpr(te.e, colBinder{})
		if err != nil {
			t.Fatal(err)
		}
		for round, n := range []int{3, vector.BatchSize, 40, 700} {
			b := randomBatch(r, n, nullMode(round%3))
			sel := randomSel(r, n, selMode(round%2))
			lanes := resolveSel(b, sel)
			v, err := ce.eval(b, sel)
			if err != nil {
				t.Fatalf("%s: %v", describe(te.e), err)
			}
			for _, i := range lanes {
				want, _ := refEval(te.e, b.Cols, i)
				if !sameLane(v, i, want) {
					t.Fatalf("%s round %d: lane %d = %v, reference %v", describe(te.e), round, i, v.Value(i), want)
				}
			}
			ce.FreeResult(v)
		}
	}
}

// TestSelectionSetOps checks the two list primitives the connectives and
// CASE are built on.
func TestSelectionSetOps(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		var a, sub, rest []int
		for i := 0; i < 64; i++ {
			if r.Intn(2) == 0 {
				a = append(a, i)
				if r.Intn(2) == 0 {
					sub = append(sub, i)
				} else {
					rest = append(rest, i)
				}
			}
		}
		if got := selDiff(a, sub, make([]int, 0, len(a))); !sameLanes(got, rest) {
			t.Fatalf("selDiff(%v, %v) = %v, want %v", a, sub, got, rest)
		}
		inPlace := append([]int(nil), a...)
		if got := selDiff(inPlace, sub, inPlace); !sameLanes(got, rest) {
			t.Fatalf("in-place selDiff(%v, %v) = %v, want %v", a, sub, got, rest)
		}
		if got := selUnion(sub, rest, make([]int, 0, len(a))); !sameLanes(got, a) {
			t.Fatalf("selUnion(%v, %v) = %v, want %v", sub, rest, got, a)
		}
	}
}

// ---------------------------------------------------------------------------
// Hashing and the hash index

// refHash is the lane-at-a-time form of keyHasher.rows.
func refHash(cols []*vector.Vec, i int) uint64 {
	h := uint64(hashSeed)
	for _, v := range cols {
		if v.Nulls.Get(i) {
			h = hashMix(h, hashNull)
			continue
		}
		switch v.Kind {
		case types.KindInt:
			h = hashMix(h, math.Float64bits(float64(v.I[i])))
		case types.KindFloat:
			h = hashMix(h, math.Float64bits(v.F[i]))
		case types.KindDate:
			h = hashMix(h, uint64(v.I[i]))
		case types.KindString:
			h = hashMix(h, hashString(v.S[i]))
		case types.KindBool:
			if v.B[i] {
				h = hashMix(h, 2)
			} else {
				h = hashMix(h, 1)
			}
		}
	}
	return h
}

func TestHashKernelEquivalence(t *testing.T) {
	var kh keyHasher
	for _, nulls := range []nullMode{noNulls, sparseNulls, allNulls} {
		for _, mode := range []selMode{nilSel, sparseSel, emptySel} {
			r := rand.New(rand.NewSource(int64(7*int(nulls) + int(mode))))
			b := randomBatch(r, 500, nulls)
			lanes := resolveSel(b, randomSel(r, b.N, mode))
			for _, cols := range [][]*vector.Vec{b.Cols, b.Cols[cS1 : cS1+1], b.Cols[cI1 : cF2+1], nil} {
				hs := kh.rows(cols, lanes)
				if len(hs) != len(lanes) {
					t.Fatalf("%d hashes for %d lanes", len(hs), len(lanes))
				}
				for k, i := range lanes {
					if want := refHash(cols, i); hs[k] != want {
						t.Fatalf("nulls=%d sel=%d lane %d: hash %x, reference %x", nulls, mode, i, hs[k], want)
					}
				}
			}
			// A row range hashes like the same rows listed.
			hs := append([]uint64(nil), kh.rowRange(b.Cols, 130, 400)...)
			for k, h := range hs {
				if want := refHash(b.Cols, 130+k); h != want {
					t.Fatalf("rowRange row %d: hash %x, reference %x", 130+k, h, want)
				}
			}
		}
	}
	// Equal numeric keys hash equal across int and float columns, and
	// strings that differ only past the eighth byte hash apart.
	iv, fv := vector.NewVec(types.KindInt, 4), vector.NewVec(types.KindFloat, 4)
	for i := range iv.I {
		iv.I[i], fv.F[i] = int64(i-1), float64(i-1)
	}
	hi := append([]uint64(nil), kh.rows([]*vector.Vec{iv}, identitySel[:4])...)
	hf := kh.rows([]*vector.Vec{fv}, identitySel[:4])
	for i := range hi {
		if hi[i] != hf[i] {
			t.Fatalf("int %d and float %v hash apart", iv.I[i], fv.F[i])
		}
	}
	if hashString("abcdefghij") == hashString("abcdefghijk") || hashString("") == hashString("\x00") {
		t.Fatal("hashString ignores a tail")
	}
}

// TestHashIndexAgainstMap grows an index id by id (as the group tables
// do) and builds one in bulk (as the joins do) from hashes drawn from a
// small domain, so chains and slot collisions occur, and compares chains
// with a map.
func TestHashIndexAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	hashes := make([]uint64, 5000)
	for i := range hashes {
		// Float64-boxed small integers: the input that clusters a table
		// indexed by low bits.
		hashes[i] = hashMix(hashSeed, math.Float64bits(float64(r.Intn(1500))))
	}
	want := map[uint64][]int32{}
	var grown hashIndex
	grown.reset(0)
	for id, h := range hashes {
		if got := grown.add(h); int(got) != id {
			t.Fatalf("add returned id %d, want %d", got, id)
		}
		want[h] = append(want[h], int32(id))
	}
	var built hashIndex
	built.build(hashes)
	for h, ids := range want {
		var asc []int32
		for id := built.head(h); id >= 0; id = built.next[id] {
			asc = append(asc, id)
		}
		var desc []int32
		for id := grown.head(h); id >= 0; id = grown.next[id] {
			desc = append(desc, id)
		}
		if len(asc) != len(ids) || len(desc) != len(ids) {
			t.Fatalf("hash %x: chains of %d and %d ids, want %d", h, len(asc), len(desc), len(ids))
		}
		for k, id := range ids {
			if asc[k] != id || desc[len(ids)-1-k] != id {
				t.Fatalf("hash %x: chains %v / %v, want %v", h, asc, desc, ids)
			}
		}
	}
	if built.head(12345) >= 0 || grown.head(12345) >= 0 {
		t.Fatal("absent hash has a chain")
	}
	var empty hashIndex
	if empty.head(1) != -1 {
		t.Fatal("zero index has a chain")
	}
}

// TestRowSetAgainstScan resolves rows to group ids through a rowSet and
// through a linear scan over the rows kept so far.
func TestRowSetAgainstScan(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var set rowSet
	var kh keyHasher
	set.reset()
	type kept struct {
		cols []*vector.Vec
		lane int
	}
	var seen []kept
	for round := 0; round < 6; round++ {
		b := randomBatch(r, 300, nullMode(round%3))
		keys := []*vector.Vec{b.Cols[cI1], b.Cols[cS1], b.Cols[cD1]}
		hs := kh.rows(keys, identitySel[:b.N])
		for i := 0; i < b.N; i++ {
			want := -1
			for id, k := range seen {
				if rowsEqual(keys, i, k.cols, k.lane) {
					want = id
					break
				}
			}
			got := set.find(keys, i, hs[i])
			if int(got) != want {
				t.Fatalf("round %d lane %d: found id %d, scan says %d", round, i, got, want)
			}
			if got < 0 {
				if id := set.insert(keys, i, hs[i]); int(id) != len(seen) {
					t.Fatalf("inserted id %d, want %d", id, len(seen))
				}
				seen = append(seen, kept{keys, i})
			}
		}
	}
	if set.rows.Len() != len(seen) || len(set.hashes) != len(seen) {
		t.Fatalf("set holds %d rows / %d hashes, want %d", set.rows.Len(), len(set.hashes), len(seen))
	}
}

// TestRuntimeFilterAdmitNeverDrops: a published filter admits every probe
// lane whose key occurs on the build side (NULLs under null-safe keys
// included), whatever the probe column's kind, and prunes something.
func TestRuntimeFilterAdmitNeverDrops(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, nullSafe := range []bool{false, true} {
		for _, c := range []struct{ build, probe int }{{cI1, cI2}, {cI1, cF1}, {cF1, cI1}, {cS1, cS2}, {cD1, cD2}, {cB1, cB2}} {
			build := randomBatch(r, 40, sparseNulls).Cols[c.build]
			probe := randomBatch(r, 600, sparseNulls).Cols[c.probe]
			if c.build == cI1 {
				for i := range build.I {
					build.I[i] *= 1000 // leave gaps for the range and the Bloom filter to prune
				}
			}
			rf := NewRuntimeFilter(nullSafe)
			rf.PublishFrom(build.Kind, []*vector.Vec{build})
			lanes := randomSel(r, probe.Len(), sparseSel)
			got := rf.admit(probe, lanes, make([]int, 0, len(lanes)), new(rfScratch))
			admitted := map[int]bool{}
			last := -1
			for _, i := range got {
				if i <= last {
					t.Fatalf("admitted lanes not increasing: %v", got)
				}
				admitted[i], last = true, i
			}
			// A probe lane has a partner when the join would find one: equal
			// under the comparison and equal in hash (NaN and −0.0 hash by
			// their bit pattern, so they only ever meet themselves).
			one, other := []*vector.Vec{probe}, []*vector.Vec{build}
			for _, i := range lanes {
				matches := false
				for j := 0; j < build.Len(); j++ {
					bn, pn := build.Nulls.Get(j), probe.Nulls.Get(i)
					if bn || pn {
						matches = matches || (nullSafe && bn && pn)
					} else if rowsEqual(one, i, other, j) && refHash(one, i) == refHash(other, j) {
						matches = true
					}
				}
				if matches && !admitted[i] {
					t.Fatalf("build %d probe %d nullSafe=%v: matching lane %d (%v) dropped", c.build, c.probe, nullSafe, i, probe.Value(i))
				}
			}
			if c.build == cI1 && c.probe == cI2 && len(got) == len(lanes) {
				t.Fatalf("filter over sparse keys pruned nothing of %d lanes", len(lanes))
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Aggregates

// refAcc is the lane-at-a-time accumulator: every state array for every
// aggregate, a function switch and a kind switch per lane.
type refAcc struct {
	spec          AggSpec
	argKind       types.Kind
	count, sumI   []int64
	sumF          []float64
	sawAny, mmSet []bool
	m             []types.Value
}

func (a *refAcc) accumulate(g int, arg *vector.Vec, i int) {
	if a.spec.Star {
		a.count[g]++
		return
	}
	if arg.Nulls.Get(i) {
		return
	}
	v := arg.Value(i)
	a.sawAny[g] = true
	switch a.spec.Fn {
	case algebra.AggCount:
		a.count[g]++
	case algebra.AggSum, algebra.AggAvg:
		a.count[g]++
		if v.K == types.KindInt {
			a.sumI[g] += v.I
		}
		a.sumF[g] += v.AsFloat()
	case algebra.AggMin:
		if !a.mmSet[g] || refLess(v, a.m[g]) {
			a.m[g], a.mmSet[g] = v, true
		}
	case algebra.AggMax:
		if !a.mmSet[g] || refLess(a.m[g], v) {
			a.m[g], a.mmSet[g] = v, true
		}
	}
}

// refLess is the strict order MIN/MAX replace on (a NaN never replaces
// and is never replaced).
func refLess(a, b types.Value) bool {
	switch a.K {
	case types.KindFloat:
		return a.F() < b.F()
	case types.KindString:
		return a.Str() < b.Str()
	case types.KindBool:
		return !a.B && b.B
	default:
		return a.I < b.I
	}
}

func (a *refAcc) finalize(g int) types.Value {
	switch a.spec.Fn {
	case algebra.AggCount:
		return types.NewInt(a.count[g])
	case algebra.AggSum:
		if !a.sawAny[g] {
			return types.NewNull(a.spec.ResultKind)
		}
		if a.spec.ResultKind == types.KindInt {
			return types.NewInt(a.sumI[g])
		}
		return types.NewFloat(a.sumF[g])
	case algebra.AggAvg:
		if !a.sawAny[g] {
			return types.NewNull(types.KindFloat)
		}
		return types.NewFloat(a.sumF[g] / float64(a.count[g]))
	default:
		if !a.mmSet[g] {
			return types.NewNull(a.spec.ResultKind)
		}
		return a.m[g]
	}
}

func sameValue(a, b types.Value) bool {
	if a.Null || b.Null {
		return a.Null && b.Null && a.K == b.K
	}
	if a.K == types.KindFloat && b.K == types.KindFloat {
		return a.I == b.I || (math.IsNaN(a.F()) && math.IsNaN(b.F()))
	}
	return types.Identical(a, b)
}

func TestAggregateKernelEquivalence(t *testing.T) {
	const groups = 9
	var specs []AggSpec
	for c, k := range testKinds {
		arg, err := CompileExpr(col(c), colBinder{})
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, AggSpec{Fn: algebra.AggCount, Arg: arg, ResultKind: types.KindInt},
			AggSpec{Fn: algebra.AggMin, Arg: arg, ResultKind: k}, AggSpec{Fn: algebra.AggMax, Arg: arg, ResultKind: k})
		if k.Numeric() {
			specs = append(specs, AggSpec{Fn: algebra.AggSum, Arg: arg, ResultKind: k},
				AggSpec{Fn: algebra.AggAvg, Arg: arg, ResultKind: types.KindFloat})
		}
	}
	specs = append(specs, AggSpec{Fn: algebra.AggCount, Star: true, ResultKind: types.KindInt})
	argCol := func(s AggSpec) int { return s.Arg.val.(*varKernel).pos }
	for _, nulls := range []nullMode{noNulls, sparseNulls, allNulls} {
		for _, mode := range []selMode{nilSel, sparseSel, emptySel} {
			r := rand.New(rand.NewSource(int64(5*int(nulls) + int(mode))))
			accs := make([]aggAcc, len(specs))
			refs := make([]refAcc, len(specs))
			for ai, s := range specs {
				accs[ai].spec, refs[ai].spec = s, s
				if s.Arg != nil {
					accs[ai].argKind, refs[ai].argKind = s.Arg.Kind(), s.Arg.Kind()
				}
				for g := 0; g < groups; g++ {
					accs[ai].addGroup()
				}
				refs[ai].count, refs[ai].sumI = make([]int64, groups), make([]int64, groups)
				refs[ai].sumF, refs[ai].m = make([]float64, groups), make([]types.Value, groups)
				refs[ai].sawAny, refs[ai].mmSet = make([]bool, groups), make([]bool, groups)
			}
			var sc aggScratch
			// Several batches into the same groups; group 8 never gets a row.
			for round := 0; round < 4; round++ {
				b := randomBatch(r, 400, nulls)
				if nulls == noNulls {
					// Finite floats: sums are then order-sensitive but not NaN.
					for i := range b.Cols[cF1].F {
						b.Cols[cF1].F[i] = r.Float64()*2000 - 1000
						b.Cols[cF2].F[i] = r.Float64() / 3
					}
				}
				lanes := resolveSel(b, randomSel(r, b.N, mode))
				gids := make([]int32, len(lanes))
				for k := range gids {
					gids[k] = int32(r.Intn(groups - 1))
				}
				for ai, s := range specs {
					var arg *vector.Vec
					if s.Arg != nil {
						arg = b.Cols[argCol(s)]
					}
					accs[ai].accumulate(arg, lanes, gids, &sc)
					for k, i := range lanes {
						refs[ai].accumulate(int(gids[k]), arg, i)
					}
				}
			}
			for ai, s := range specs {
				for g := 0; g < groups; g++ {
					got, want := accs[ai].finalize(g), refs[ai].finalize(g)
					if !sameValue(got, want) {
						t.Fatalf("nulls=%d sel=%d %v(arg kind %v) group %d: %v, reference %v",
							nulls, mode, s.Fn, accs[ai].argKind, g, got, want)
					}
				}
			}
			// The serialized state merges back to the same results (the
			// spill and parallel paths).
			for ai, s := range specs {
				merged := aggAcc{spec: s, argKind: accs[ai].argKind}
				for g := 0; g < groups; g++ {
					merged.addGroup()
				}
				state := newRecordBuf(aggStateKinds())
				for g := 0; g < groups; g++ {
					accs[ai].appendState(g, state)
				}
				for g := 0; g < groups; g++ {
					merged.mergeState(g, state, g)
					if got, want := merged.finalize(g), accs[ai].finalize(g); !sameValue(got, want) {
						t.Fatalf("%v group %d: merged state gives %v, want %v", s.Fn, g, got, want)
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Fuzzing the select kernels

// FuzzSelectKernels decodes a comparison (operator, operand class, shape,
// constants), a vector and a selection from the fuzzer's bytes and checks
// the typed select kernels — both answers — against the reference.
func FuzzSelectKernels(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), int64(0), int64(2), []byte{1, 2, 3, 0xff, 0, 7, 9, 200})
	f.Add(uint8(2), uint8(1), uint8(1), int64(-1), int64(1), []byte{0, 0, 0, 0, 5, 5, 5, 5, 250, 251})
	f.Add(uint8(5), uint8(2), uint8(2), int64(1), int64(3), []byte("selection vectors narrow"))
	f.Add(uint8(3), uint8(3), uint8(0), int64(2), int64(2), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(uint8(1), uint8(1), uint8(2), int64(0), int64(0), []byte{})
	f.Fuzz(func(t *testing.T, opByte, classByte, shape uint8, c1, c2 int64, data []byte) {
		if len(data) > vector.BatchSize {
			data = data[:vector.BatchSize]
		}
		n := len(data)
		// Two columns of the chosen class from the data bytes; a byte over
		// 240 makes its lane NULL, a byte divisible by 3 drops the lane from
		// the selection.
		kinds := [][2]int{{cI1, cI2}, {cF1, cF2}, {cS1, cS2}, {cD1, cD2}}[classByte%4]
		b := &vector.Batch{N: n, Cols: make([]*vector.Vec, len(testKinds))}
		for c, k := range testKinds {
			b.Cols[c] = vector.NewVec(k, n)
		}
		sel := []int{}
		for i, x := range data {
			y := data[(i+1)%n]
			for side, v := range []byte{x, y} {
				dst := b.Cols[kinds[side]]
				switch dst.Kind {
				case types.KindFloat:
					dst.F[i] = floatPool[int(v)%len(floatPool)]
				case types.KindString:
					dst.S[i] = stringPool[int(v)%len(stringPool)]
				default:
					dst.I[i] = int64(v%9) - 4
				}
				if v > 240 {
					dst.Nulls.Set(i)
				}
			}
			if x%3 != 0 {
				sel = append(sel, i)
			}
		}
		konst := func(c int64) algebra.Expr {
			switch testKinds[kinds[0]] {
			case types.KindFloat:
				return fltLit(floatPool[int(uint64(c)%uint64(len(floatPool)))])
			case types.KindString:
				return strLit(stringPool[int(uint64(c)%uint64(len(stringPool)))])
			case types.KindDate:
				return lit(types.NewDate(c % 5))
			}
			return intLit(c % 5)
		}
		op := cmpOps[opByte%6]
		var e algebra.Expr
		switch shape % 3 {
		case 0:
			e = cmp(op, col(kinds[0]), col(kinds[1]))
		case 1:
			e = cmp(op, col(kinds[0]), konst(c1))
		default:
			lo, hi := ">=", "<"
			if opByte&1 != 0 {
				lo = ">"
			}
			if opByte&2 != 0 {
				hi = "<="
			}
			e = and(cmp(lo, col(kinds[0]), konst(c1)), cmp(hi, col(kinds[0]), konst(c2)))
		}
		for _, s := range [][]int{nil, sel} {
			if n == 0 && s == nil {
				continue
			}
			checkExpr(t, testExpr{e: e}, b, s)
		}
	})
}
