// Package eval compiles analyzed expressions (algebra.Expr) into executable
// closures over rows. The planner binds Var nodes to row positions and
// sublinks to subplan runners; everything else evaluates directly with SQL
// three-valued logic and NULL propagation.
package eval

import (
	"fmt"
	"math"
	"strings"

	"perm/internal/algebra"
	"perm/internal/types"
)

// Ctx is the evaluation context: the current input row.
type Ctx struct {
	Row types.Row
}

// Func is a compiled expression.
type Func func(ctx *Ctx) (types.Value, error)

// Compile builds an executable closure for e.
func Compile(e algebra.Expr, b algebra.Binder) (Func, error) {
	switch n := e.(type) {
	case nil:
		return nil, fmt.Errorf("eval: nil expression")
	case *algebra.Var:
		pos, err := b.BindVar(n)
		if err != nil {
			return nil, err
		}
		return func(ctx *Ctx) (types.Value, error) {
			if pos >= len(ctx.Row) {
				return types.NullValue, fmt.Errorf("eval: row too short (%d <= %d)", len(ctx.Row), pos)
			}
			return ctx.Row[pos], nil
		}, nil
	case *algebra.Const:
		v := n.Val
		return func(*Ctx) (types.Value, error) { return v, nil }, nil
	case *algebra.BinOp:
		return compileBinOp(n, b)
	case *algebra.UnOp:
		return compileUnOp(n, b)
	case *algebra.IsNull:
		inner, err := Compile(n.Expr, b)
		if err != nil {
			return nil, err
		}
		not := n.Not
		return func(ctx *Ctx) (types.Value, error) {
			v, err := inner(ctx)
			if err != nil {
				return types.NullValue, err
			}
			return types.NewBool(v.Null != not), nil
		}, nil
	case *algebra.DistinctFrom:
		l, err := Compile(n.Left, b)
		if err != nil {
			return nil, err
		}
		r, err := Compile(n.Right, b)
		if err != nil {
			return nil, err
		}
		not := n.Not
		return func(ctx *Ctx) (types.Value, error) {
			lv, err := l(ctx)
			if err != nil {
				return types.NullValue, err
			}
			rv, err := r(ctx)
			if err != nil {
				return types.NullValue, err
			}
			return types.NewBool(types.Distinct(lv, rv) != not), nil
		}, nil
	case *algebra.FuncCall:
		return compileFunc(n, b)
	case *algebra.CaseExpr:
		return compileCase(n, b)
	case *algebra.Cast:
		inner, err := Compile(n.Expr, b)
		if err != nil {
			return nil, err
		}
		to := n.To
		return func(ctx *Ctx) (types.Value, error) {
			v, err := inner(ctx)
			if err != nil {
				return types.NullValue, err
			}
			return types.Coerce(v, to)
		}, nil
	case *algebra.AggRef:
		return nil, fmt.Errorf("eval: unmapped aggregate reference (planner bug)")
	case *algebra.SubLink:
		return compileSubLink(n, b)
	default:
		return nil, fmt.Errorf("eval: unsupported expression %T", e)
	}
}

// CompileAll compiles a slice of expressions.
func CompileAll(es []algebra.Expr, b algebra.Binder) ([]Func, error) {
	out := make([]Func, len(es))
	for i, e := range es {
		f, err := Compile(e, b)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

func compileBinOp(n *algebra.BinOp, b algebra.Binder) (Func, error) {
	l, err := Compile(n.Left, b)
	if err != nil {
		return nil, err
	}
	r, err := Compile(n.Right, b)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case "AND":
		return func(ctx *Ctx) (types.Value, error) {
			lv, err := l(ctx)
			if err != nil {
				return types.NullValue, err
			}
			lt := types.TriOf(lv)
			if lt == types.TriFalse {
				return types.NewBool(false), nil
			}
			rv, err := r(ctx)
			if err != nil {
				return types.NullValue, err
			}
			return lt.And(types.TriOf(rv)).Value(), nil
		}, nil
	case "OR":
		return func(ctx *Ctx) (types.Value, error) {
			lv, err := l(ctx)
			if err != nil {
				return types.NullValue, err
			}
			lt := types.TriOf(lv)
			if lt == types.TriTrue {
				return types.NewBool(true), nil
			}
			rv, err := r(ctx)
			if err != nil {
				return types.NullValue, err
			}
			return lt.Or(types.TriOf(rv)).Value(), nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		op := n.Op
		return func(ctx *Ctx) (types.Value, error) {
			lv, err := l(ctx)
			if err != nil {
				return types.NullValue, err
			}
			rv, err := r(ctx)
			if err != nil {
				return types.NullValue, err
			}
			if lv.Null || rv.Null {
				return types.NewNull(types.KindBool), nil
			}
			if !types.Comparable(lv.K, rv.K) {
				return types.NullValue, fmt.Errorf("cannot compare %s with %s", lv.K, rv.K)
			}
			c := types.Compare(lv, rv)
			return types.NewBool(types.CmpSatisfies(c, op)), nil
		}, nil
	case "LIKE":
		return func(ctx *Ctx) (types.Value, error) {
			lv, err := l(ctx)
			if err != nil {
				return types.NullValue, err
			}
			rv, err := r(ctx)
			if err != nil {
				return types.NullValue, err
			}
			if lv.Null || rv.Null {
				return types.NewNull(types.KindBool), nil
			}
			return types.NewBool(types.MatchLike(lv.Str(), rv.Str())), nil
		}, nil
	case "||":
		return func(ctx *Ctx) (types.Value, error) {
			lv, err := l(ctx)
			if err != nil {
				return types.NullValue, err
			}
			rv, err := r(ctx)
			if err != nil {
				return types.NullValue, err
			}
			if lv.Null || rv.Null {
				return types.NewNull(types.KindString), nil
			}
			return types.NewString(lv.String() + rv.String()), nil
		}, nil
	case "+", "-", "*", "/", "%":
		op := n.Op
		return func(ctx *Ctx) (types.Value, error) {
			lv, err := l(ctx)
			if err != nil {
				return types.NullValue, err
			}
			rv, err := r(ctx)
			if err != nil {
				return types.NullValue, err
			}
			switch op {
			case "+":
				return types.Add(lv, rv)
			case "-":
				return types.Sub(lv, rv)
			case "*":
				return types.Mul(lv, rv)
			case "/":
				return types.Div(lv, rv)
			default:
				return types.Mod(lv, rv)
			}
		}, nil
	default:
		return nil, fmt.Errorf("eval: unknown operator %q", n.Op)
	}
}

func compileUnOp(n *algebra.UnOp, b algebra.Binder) (Func, error) {
	inner, err := Compile(n.Expr, b)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case "NOT":
		return func(ctx *Ctx) (types.Value, error) {
			v, err := inner(ctx)
			if err != nil {
				return types.NullValue, err
			}
			return types.TriOf(v).Not().Value(), nil
		}, nil
	case "-":
		return func(ctx *Ctx) (types.Value, error) {
			v, err := inner(ctx)
			if err != nil {
				return types.NullValue, err
			}
			return types.Neg(v)
		}, nil
	default:
		return nil, fmt.Errorf("eval: unknown unary operator %q", n.Op)
	}
}

func compileCase(n *algebra.CaseExpr, b algebra.Binder) (Func, error) {
	type arm struct{ cond, res Func }
	arms := make([]arm, len(n.Whens))
	for i, w := range n.Whens {
		c, err := Compile(w.Cond, b)
		if err != nil {
			return nil, err
		}
		res, err := Compile(w.Result, b)
		if err != nil {
			return nil, err
		}
		arms[i] = arm{cond: c, res: res}
	}
	var elseF Func
	if n.Else != nil {
		f, err := Compile(n.Else, b)
		if err != nil {
			return nil, err
		}
		elseF = f
	}
	typ := n.Typ
	// A CASE has one result kind: an int arm under a float CASE yields a
	// float, like the vectorized kernel's widening scatter.
	widen := func(v types.Value, err error) (types.Value, error) {
		if err == nil && typ == types.KindFloat && v.K == types.KindInt && !v.Null {
			return types.NewFloat(float64(v.I)), nil
		}
		return v, err
	}
	return func(ctx *Ctx) (types.Value, error) {
		for _, a := range arms {
			cv, err := a.cond(ctx)
			if err != nil {
				return types.NullValue, err
			}
			if cv.IsTrue() {
				return widen(a.res(ctx))
			}
		}
		if elseF != nil {
			return widen(elseF(ctx))
		}
		return types.NewNull(typ), nil
	}, nil
}

func compileSubLink(n *algebra.SubLink, b algebra.Binder) (Func, error) {
	slv, err := b.BindSubLink(n)
	if err != nil {
		return nil, err
	}
	switch n.Kind {
	case algebra.SubScalar:
		return func(*Ctx) (types.Value, error) { return slv.Scalar() }, nil
	case algebra.SubExists:
		return func(*Ctx) (types.Value, error) {
			ok, err := slv.Exists()
			if err != nil {
				return types.NullValue, err
			}
			return types.NewBool(ok), nil
		}, nil
	case algebra.SubAny, algebra.SubAll:
		test, err := Compile(n.Test, b)
		if err != nil {
			return nil, err
		}
		all := n.Kind == algebra.SubAll
		op := n.Op
		return func(ctx *Ctx) (types.Value, error) {
			tv, err := test(ctx)
			if err != nil {
				return types.NullValue, err
			}
			var tri types.Tri
			if all {
				tri, err = slv.CompareAll(tv, op)
			} else {
				tri, err = slv.CompareAny(tv, op)
			}
			if err != nil {
				return types.NullValue, err
			}
			return tri.Value(), nil
		}, nil
	default:
		return nil, fmt.Errorf("eval: unknown sublink kind %d", n.Kind)
	}
}

// ---------------------------------------------------------------------------
// Scalar functions

func compileFunc(n *algebra.FuncCall, b algebra.Binder) (Func, error) {
	args, err := CompileAll(n.Args, b)
	if err != nil {
		return nil, err
	}
	name := n.Name
	return func(ctx *Ctx) (types.Value, error) {
		vals := make([]types.Value, len(args))
		for i, a := range args {
			v, err := a(ctx)
			if err != nil {
				return types.NullValue, err
			}
			vals[i] = v
		}
		return callScalar(name, vals)
	}, nil
}

func callScalar(name string, vals []types.Value) (types.Value, error) {
	// COALESCE is the only function that tolerates NULL arguments.
	if name == "coalesce" {
		for _, v := range vals {
			if !v.Null {
				return v, nil
			}
		}
		return types.NullValue, nil
	}
	for _, v := range vals {
		if v.Null {
			return types.NullValue, nil
		}
	}
	switch name {
	case "substring":
		s := vals[0].Str()
		start := int(vals[1].I)
		if start < 1 {
			start = 1
		}
		if start > len(s) {
			return types.NewString(""), nil
		}
		end := len(s)
		if len(vals) == 3 {
			if e := start - 1 + int(vals[2].I); e < end {
				end = e
			}
		}
		if end < start-1 {
			end = start - 1
		}
		return types.NewString(s[start-1 : end]), nil
	case "upper":
		return types.NewString(strings.ToUpper(vals[0].Str())), nil
	case "lower":
		return types.NewString(strings.ToLower(vals[0].Str())), nil
	case "length":
		return types.NewInt(int64(len(vals[0].Str()))), nil
	case "abs":
		switch vals[0].K {
		case types.KindInt:
			if vals[0].I < 0 {
				return types.NewInt(-vals[0].I), nil
			}
			return vals[0], nil
		default:
			return types.NewFloat(math.Abs(vals[0].AsFloat())), nil
		}
	case "round":
		f := vals[0].AsFloat()
		if len(vals) == 2 {
			scale := math.Pow(10, float64(vals[1].I))
			return types.NewFloat(math.Round(f*scale) / scale), nil
		}
		return types.NewFloat(math.Round(f)), nil
	case "floor":
		return types.NewFloat(math.Floor(vals[0].AsFloat())), nil
	case "ceil":
		return types.NewFloat(math.Ceil(vals[0].AsFloat())), nil
	case "sqrt":
		return types.NewFloat(math.Sqrt(vals[0].AsFloat())), nil
	case "power":
		return types.NewFloat(math.Pow(vals[0].AsFloat(), vals[1].AsFloat())), nil
	case "concat":
		var sb strings.Builder
		for _, v := range vals {
			sb.WriteString(v.String())
		}
		return types.NewString(sb.String()), nil
	case "extract_year":
		y, _, _ := vals[0].DateYMD()
		return types.NewInt(int64(y)), nil
	case "extract_month":
		_, m, _ := vals[0].DateYMD()
		return types.NewInt(int64(m)), nil
	case "extract_day":
		_, _, d := vals[0].DateYMD()
		return types.NewInt(int64(d)), nil
	default:
		return types.NullValue, fmt.Errorf("eval: unknown function %q", name)
	}
}
