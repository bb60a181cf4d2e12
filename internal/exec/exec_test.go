package exec

import (
	"fmt"
	"testing"

	"perm/internal/algebra"
	"perm/internal/eval"
	"perm/internal/types"
)

func rows(vals ...[]int64) []types.Row {
	out := make([]types.Row, len(vals))
	for i, r := range vals {
		row := make(types.Row, len(r))
		for j, v := range r {
			row[j] = types.NewInt(v)
		}
		out[i] = row
	}
	return out
}

func colFn(pos int) eval.Func {
	return func(ctx *eval.Ctx) (types.Value, error) { return ctx.Row[pos], nil }
}

func constBool(b bool) eval.Func {
	return func(*eval.Ctx) (types.Value, error) { return types.NewBool(b), nil }
}

func collectInts(t *testing.T, n Node) [][]int64 {
	t.Helper()
	out, err := Collect(n)
	if err != nil {
		t.Fatal(err)
	}
	res := make([][]int64, len(out))
	for i, r := range out {
		ints := make([]int64, len(r))
		for j, v := range r {
			if v.Null {
				ints[j] = -999
			} else {
				ints[j] = v.I
			}
		}
		res[i] = ints
	}
	return res
}

func wantRows(t *testing.T, got [][]int64, want [][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d %v", len(got), got, len(want), want)
	}
	used := make([]bool, len(want))
outer:
	for _, g := range got {
		for i, w := range want {
			if used[i] || len(g) != len(w) {
				continue
			}
			same := true
			for j := range g {
				if g[j] != w[j] {
					same = false
					break
				}
			}
			if same {
				used[i] = true
				continue outer
			}
		}
		t.Fatalf("unexpected row %v\ngot: %v\nwant: %v", g, got, want)
	}
}

func TestScanAndFilter(t *testing.T) {
	scan := NewScan(rows([]int64{1}, []int64{2}, []int64{3}))
	pred := func(ctx *eval.Ctx) (types.Value, error) {
		return types.NewBool(ctx.Row[0].I >= 2), nil
	}
	got := collectInts(t, NewFilter(scan, pred))
	wantRows(t, got, [][]int64{{2}, {3}})
}

func TestScanReopen(t *testing.T) {
	scan := NewScan(rows([]int64{1}))
	for i := 0; i < 2; i++ {
		got, err := Collect(scan)
		if err != nil || len(got) != 1 {
			t.Fatalf("pass %d: %v %v", i, got, err)
		}
	}
}

func TestProject(t *testing.T) {
	scan := NewScan(rows([]int64{1, 10}))
	double := func(ctx *eval.Ctx) (types.Value, error) {
		return types.NewInt(ctx.Row[1].I * 2), nil
	}
	got := collectInts(t, NewProject(scan, []eval.Func{double, colFn(0)}))
	wantRows(t, got, [][]int64{{20, 1}})
}

func TestNestedLoopJoinTypes(t *testing.T) {
	left := rows([]int64{1}, []int64{2}, []int64{3})
	right := rows([]int64{2, 20}, []int64{2, 21}, []int64{4, 40})
	cond := func(ctx *eval.Ctx) (types.Value, error) {
		if ctx.Row[0].Null || ctx.Row[1].Null {
			return types.NewNull(types.KindBool), nil
		}
		return types.NewBool(ctx.Row[0].I == ctx.Row[1].I), nil
	}
	intKinds := func(n int) []types.Kind {
		ks := make([]types.Kind, n)
		for i := range ks {
			ks[i] = types.KindInt
		}
		return ks
	}

	t.Run("inner", func(t *testing.T) {
		j := NewNestedLoopJoin(NewScan(left), NewScan(right), cond, algebra.JoinInner, intKinds(1), intKinds(2))
		wantRows(t, collectInts(t, j), [][]int64{{2, 2, 20}, {2, 2, 21}})
	})
	t.Run("left", func(t *testing.T) {
		j := NewNestedLoopJoin(NewScan(left), NewScan(right), cond, algebra.JoinLeft, intKinds(1), intKinds(2))
		wantRows(t, collectInts(t, j), [][]int64{
			{1, -999, -999}, {2, 2, 20}, {2, 2, 21}, {3, -999, -999}})
	})
	t.Run("right", func(t *testing.T) {
		j := NewNestedLoopJoin(NewScan(left), NewScan(right), cond, algebra.JoinRight, intKinds(1), intKinds(2))
		wantRows(t, collectInts(t, j), [][]int64{
			{2, 2, 20}, {2, 2, 21}, {-999, 4, 40}})
	})
	t.Run("full", func(t *testing.T) {
		j := NewNestedLoopJoin(NewScan(left), NewScan(right), cond, algebra.JoinFull, intKinds(1), intKinds(2))
		wantRows(t, collectInts(t, j), [][]int64{
			{1, -999, -999}, {2, 2, 20}, {2, 2, 21}, {3, -999, -999}, {-999, 4, 40}})
	})
	t.Run("cross", func(t *testing.T) {
		j := NewNestedLoopJoin(NewScan(left), NewScan(right), nil, algebra.JoinInner, intKinds(1), intKinds(2))
		if got := collectInts(t, j); len(got) != 9 {
			t.Fatalf("cross join rows = %d, want 9", len(got))
		}
	})
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	left := rows([]int64{1}, []int64{2}, []int64{2}, []int64{5})
	right := rows([]int64{2, 20}, []int64{5, 50}, []int64{7, 70})
	intKinds := []types.Kind{types.KindInt}
	rightKinds := []types.Kind{types.KindInt, types.KindInt}
	for _, jt := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinLeft, algebra.JoinRight, algebra.JoinFull} {
		jt := jt
		t.Run(fmt.Sprintf("type%d", jt), func(t *testing.T) {
			hj := NewHashJoin(NewScan(left), NewScan(right),
				[]eval.Func{colFn(0)}, []eval.Func{colFn(0)}, []bool{false},
				nil, jt, intKinds, rightKinds)
			cond := func(ctx *eval.Ctx) (types.Value, error) {
				if ctx.Row[0].Null || ctx.Row[1].Null {
					return types.NewNull(types.KindBool), nil
				}
				return types.NewBool(ctx.Row[0].I == ctx.Row[1].I), nil
			}
			nl := NewNestedLoopJoin(NewScan(left), NewScan(right), cond, jt, intKinds, rightKinds)
			wantRows(t, collectInts(t, hj), collectInts(t, nl))
		})
	}
}

func TestHashJoinNullSafety(t *testing.T) {
	null := types.Row{types.NewNull(types.KindInt)}
	left := []types.Row{null, {types.NewInt(1)}}
	right := []types.Row{null.Clone(), {types.NewInt(1)}}
	intKinds := []types.Kind{types.KindInt}

	// Plain equality: NULL keys never match.
	hj := NewHashJoin(NewScan(left), NewScan(right),
		[]eval.Func{colFn(0)}, []eval.Func{colFn(0)}, []bool{false},
		nil, algebra.JoinInner, intKinds, intKinds)
	got, err := Collect(hj)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("plain equality matched %d rows, want 1", len(got))
	}

	// Null-safe: NULL keys match each other (the rewriter's join-back).
	hj = NewHashJoin(NewScan(left), NewScan(right),
		[]eval.Func{colFn(0)}, []eval.Func{colFn(0)}, []bool{true},
		nil, algebra.JoinInner, intKinds, intKinds)
	got, err = Collect(hj)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("null-safe equality matched %d rows, want 2", len(got))
	}
}

func TestHashJoinResidual(t *testing.T) {
	left := rows([]int64{2, 1}, []int64{2, 9})
	right := rows([]int64{2, 5})
	// join on col0 = col0 with residual left.col1 < right.col1.
	residual := func(ctx *eval.Ctx) (types.Value, error) {
		return types.NewBool(ctx.Row[1].I < ctx.Row[3].I), nil
	}
	hj := NewHashJoin(NewScan(left), NewScan(right),
		[]eval.Func{colFn(0)}, []eval.Func{colFn(0)}, []bool{false},
		residual, algebra.JoinLeft,
		[]types.Kind{types.KindInt, types.KindInt},
		[]types.Kind{types.KindInt, types.KindInt})
	got := collectInts(t, hj)
	wantRows(t, got, [][]int64{{2, 1, 2, 5}, {2, 9, -999, -999}})
}

func TestHashAggGlobal(t *testing.T) {
	input := rows([]int64{1}, []int64{2}, []int64{3})
	agg := NewHashAgg(NewScan(input), nil, []AggSpec{
		{Fn: algebra.AggCount, Star: true, ResultKind: types.KindInt},
		{Fn: algebra.AggSum, Arg: colFn(0), ResultKind: types.KindInt},
		{Fn: algebra.AggAvg, Arg: colFn(0), ResultKind: types.KindFloat},
		{Fn: algebra.AggMin, Arg: colFn(0), ResultKind: types.KindInt},
		{Fn: algebra.AggMax, Arg: colFn(0), ResultKind: types.KindInt},
	})
	out, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("rows = %d", len(out))
	}
	r := out[0]
	if r[0].I != 3 || r[1].I != 6 || r[2].F() != 2.0 || r[3].I != 1 || r[4].I != 3 {
		t.Errorf("agg row = %v", r)
	}
}

func TestHashAggEmptyInput(t *testing.T) {
	agg := NewHashAgg(NewScan(nil), nil, []AggSpec{
		{Fn: algebra.AggCount, Star: true, ResultKind: types.KindInt},
		{Fn: algebra.AggSum, Arg: colFn(0), ResultKind: types.KindInt},
	})
	out, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][0].I != 0 || !out[0][1].Null {
		t.Fatalf("global agg over empty input = %v", out)
	}
	// Grouped aggregation over empty input: no rows.
	agg = NewHashAgg(NewScan(nil), []eval.Func{colFn(0)}, []AggSpec{
		{Fn: algebra.AggCount, Star: true, ResultKind: types.KindInt},
	})
	out, err = Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("grouped agg over empty input = %v", out)
	}
}

func TestHashAggGroupsAndDistinct(t *testing.T) {
	input := rows([]int64{1, 10}, []int64{1, 10}, []int64{1, 20}, []int64{2, 30})
	agg := NewHashAgg(NewScan(input), []eval.Func{colFn(0)}, []AggSpec{
		{Fn: algebra.AggCount, Arg: colFn(1), ResultKind: types.KindInt},
		{Fn: algebra.AggCount, Arg: colFn(1), Distinct: true, ResultKind: types.KindInt},
		{Fn: algebra.AggSum, Arg: colFn(1), Distinct: true, ResultKind: types.KindInt},
	})
	got := collectInts(t, agg)
	wantRows(t, got, [][]int64{{1, 3, 2, 30}, {2, 1, 1, 30}})
}

func TestHashAggNullGroups(t *testing.T) {
	input := []types.Row{
		{types.NewNull(types.KindInt)},
		{types.NewNull(types.KindInt)},
		{types.NewInt(1)},
	}
	agg := NewHashAgg(NewScan(input), []eval.Func{colFn(0)}, []AggSpec{
		{Fn: algebra.AggCount, Star: true, ResultKind: types.KindInt},
	})
	got := collectInts(t, agg)
	wantRows(t, got, [][]int64{{-999, 2}, {1, 1}})
}

func TestSortNullsOrdering(t *testing.T) {
	input := []types.Row{
		{types.NewInt(2)}, {types.NewNull(types.KindInt)}, {types.NewInt(1)},
	}
	s := NewSort(NewScan(input), []algebra.SortKey{{Pos: 0}})
	got := collectInts(t, s)
	// NULLS LAST ascending.
	if got[0][0] != 1 || got[1][0] != 2 || got[2][0] != -999 {
		t.Errorf("asc sort = %v", got)
	}
	s = NewSort(NewScan(input), []algebra.SortKey{{Pos: 0, Desc: true}})
	got = collectInts(t, s)
	// NULLS FIRST descending.
	if got[0][0] != -999 || got[1][0] != 2 || got[2][0] != 1 {
		t.Errorf("desc sort = %v", got)
	}
}

func TestSortStability(t *testing.T) {
	input := rows([]int64{1, 1}, []int64{1, 2}, []int64{1, 3})
	s := NewSort(NewScan(input), []algebra.SortKey{{Pos: 0}})
	got := collectInts(t, s)
	for i, r := range got {
		if r[1] != int64(i+1) {
			t.Fatalf("sort not stable: %v", got)
		}
	}
}

func TestLimitOffset(t *testing.T) {
	input := rows([]int64{1}, []int64{2}, []int64{3}, []int64{4})
	got := collectInts(t, NewLimit(NewScan(input), 2, 1))
	wantRows(t, got, [][]int64{{2}, {3}})
	got = collectInts(t, NewLimit(NewScan(input), 0, 0))
	if len(got) != 0 {
		t.Errorf("limit 0 = %v", got)
	}
	got = collectInts(t, NewLimit(NewScan(input), -1, 2))
	wantRows(t, got, [][]int64{{3}, {4}})
}

func TestDistinctNode(t *testing.T) {
	input := []types.Row{
		{types.NewInt(1)}, {types.NewInt(1)},
		{types.NewNull(types.KindInt)}, {types.NewNull(types.KindInt)},
	}
	got := collectInts(t, NewDistinct(NewScan(input)))
	wantRows(t, got, [][]int64{{1}, {-999}})
}

func TestSetOpSemantics(t *testing.T) {
	left := rows([]int64{1}, []int64{2}, []int64{2}, []int64{3})
	right := rows([]int64{2}, []int64{3}, []int64{3}, []int64{4})
	cases := []struct {
		kind algebra.SetOpKind
		all  bool
		want [][]int64
	}{
		{algebra.SetUnion, false, [][]int64{{1}, {2}, {3}, {4}}},
		{algebra.SetUnion, true, [][]int64{{1}, {2}, {2}, {3}, {2}, {3}, {3}, {4}}},
		{algebra.SetIntersect, false, [][]int64{{2}, {3}}},
		{algebra.SetIntersect, true, [][]int64{{2}, {3}}},
		{algebra.SetExcept, false, [][]int64{{1}}},
		{algebra.SetExcept, true, [][]int64{{1}, {2}}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%d-all=%v", tc.kind, tc.all)
		t.Run(name, func(t *testing.T) {
			op := NewSetOp(NewScan(left), NewScan(right), tc.kind, tc.all)
			wantRows(t, collectInts(t, op), tc.want)
		})
	}
}

func TestSetOpNullRows(t *testing.T) {
	null := types.Row{types.NewNull(types.KindInt)}
	left := []types.Row{null, null.Clone(), {types.NewInt(1)}}
	right := []types.Row{null.Clone()}
	// Set ops treat NULLs as equal (null-safe), per SQL set semantics.
	op := NewSetOp(NewScan(left), NewScan(right), algebra.SetExcept, true)
	got := collectInts(t, op)
	wantRows(t, got, [][]int64{{-999}, {1}})
}

func TestFilterErrorPropagation(t *testing.T) {
	scan := NewScan(rows([]int64{1}))
	bad := func(*eval.Ctx) (types.Value, error) {
		return types.NullValue, fmt.Errorf("boom")
	}
	if _, err := Collect(NewFilter(scan, bad)); err == nil {
		t.Error("filter must propagate evaluation errors")
	}
	if _, err := Collect(NewProject(scan, []eval.Func{bad})); err == nil {
		t.Error("project must propagate evaluation errors")
	}
}
