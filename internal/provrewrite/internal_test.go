package provrewrite

import (
	"testing"

	"perm/internal/algebra"
	"perm/internal/types"
)

func TestCollectSublinkCtxPolarity(t *testing.T) {
	link := &algebra.SubLink{Kind: algebra.SubAny, Op: "=", Typ: types.KindBool}
	tru := &algebra.Const{Val: types.NewBool(true)}

	// NOT(NOT(link)) → positive.
	e := algebra.Expr(&algebra.UnOp{Op: "NOT", Typ: types.KindBool,
		Expr: &algebra.UnOp{Op: "NOT", Expr: link, Typ: types.KindBool}})
	refs := collectSublinkRefs(e)
	if len(refs) != 1 || refs[0].negated || refs[0].disjunctive {
		t.Errorf("double negation: %+v", refs)
	}

	// AND under NOT behaves like OR → disjunctive.
	e = &algebra.UnOp{Op: "NOT", Typ: types.KindBool,
		Expr: &algebra.BinOp{Op: "AND", Left: tru, Right: link, Typ: types.KindBool}}
	refs = collectSublinkRefs(e)
	if len(refs) != 1 || !refs[0].disjunctive || !refs[0].negated {
		t.Errorf("NOT(AND): %+v", refs)
	}

	// OR under NOT behaves like AND → conjunctive (not disjunctive).
	e = &algebra.UnOp{Op: "NOT", Typ: types.KindBool,
		Expr: &algebra.BinOp{Op: "OR", Left: tru, Right: link, Typ: types.KindBool}}
	refs = collectSublinkRefs(e)
	if len(refs) != 1 || refs[0].disjunctive || !refs[0].negated {
		t.Errorf("NOT(OR): %+v", refs)
	}
}

func TestProvNameNumbering(t *testing.T) {
	r := New()
	if got := r.relInstance("shop"); got != "shop" {
		t.Errorf("first instance = %q", got)
	}
	if got := r.relInstance("shop"); got != "shop_2" {
		t.Errorf("second instance = %q", got)
	}
	if got := r.provName("shop", "name"); got != "prov_shop_name" {
		t.Errorf("provName = %q", got)
	}
}
