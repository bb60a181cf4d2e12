package vexec_test

import (
	"testing"

	"perm/internal/algebra"
	"perm/internal/spill"
	"perm/internal/types"
	"perm/internal/vexec"
)

// attachOf builds the join-back operator over pairRows-shaped rows (k, i,
// s): T+ is (i, s, k), the aggregation groups by k and computes count(*)
// and sum(i), and HAVING (when minCount ≥ 0) keeps groups of more than
// minCount rows.
func attachOf(t *testing.T, rows []types.Row, minCount int64, agg, store, join spill.Resources) *vexec.AggAttach {
	t.Helper()
	prov := []*vexec.Expr{colExpr(t, 1, types.KindInt), colExpr(t, 2, types.KindString), colExpr(t, 0, types.KindInt)}
	a := vexec.NewAggAttach(scanOf(t, pairKinds, rows), prov, false)
	h := vexec.NewHashAgg(a.Feed(), []*vexec.Expr{colExpr(t, 0, types.KindInt)}, []vexec.AggSpec{
		{Fn: algebra.AggCount, Star: true, ResultKind: types.KindInt},
		{Fn: algebra.AggSum, Arg: colExpr(t, 1, types.KindInt), ResultKind: types.KindInt},
	})
	h.Spill = agg
	var groups vexec.Node = h
	if minCount >= 0 {
		pred, err := vexec.CompileExpr(&algebra.BinOp{Op: ">", Typ: types.KindBool,
			Left:  &algebra.Var{Col: 1, Typ: types.KindInt},
			Right: &algebra.Const{Val: types.NewInt(minCount)}}, posBinder{})
		if err != nil {
			t.Fatal(err)
		}
		groups = vexec.NewFilter(groups, pred)
	}
	out := []*vexec.Expr{colExpr(t, 0, types.KindInt), colExpr(t, 1, types.KindInt), colExpr(t, 2, types.KindInt)}
	if !a.SetGroups(vexec.NewProject(groups, out)) {
		t.Fatal("aggregation pipeline not recognized")
	}
	a.ProvKeys, a.AggKeys = []int{2}, []int{0}
	a.Spill, a.JoinSpill = store, join
	return a
}

// attachReference is what the join-back yields: every input row in input
// order with its group's row attached, groups HAVING rejects left out.
func attachReference(rows []types.Row, minCount int64) []types.Row {
	count, sum := map[int64]int64{}, map[int64]int64{}
	for _, r := range rows {
		count[r[0].I]++
		sum[r[0].I] += r[1].I
	}
	var out []types.Row
	for _, r := range rows {
		if k := r[0].I; minCount < 0 || count[k] > minCount {
			out = append(out, types.Row{r[1], r[2], r[0], r[0], types.NewInt(count[k]), types.NewInt(sum[k])})
		}
	}
	return out
}

// TestAggAttachSpill: the join-back attaches by group id to its stored
// rows, by group id to a second evaluation of its input once the budget
// denies the store, and — once the group table itself spilled — by
// grouping key through a Grace join; every path yields the reference in
// input order and gives back its reservations.
func TestAggAttachSpill(t *testing.T) {
	data := pairRows(20000, 3001)
	for _, minCount := range []int64{-1, 6} {
		want := attachReference(data, minCount)
		assertSameRows(t, drainRows(t, attachOf(t, data, minCount, spill.Resources{}, spill.Resources{}, spill.Resources{})),
			want, "in-memory attach")

		store, sb := tinyRes(t, 32<<10)
		a := attachOf(t, data, minCount, spill.Resources{}, store, spill.Resources{})
		assertSameRows(t, drainRows(t, a), want, "attach to a replayed input")
		if a.Agg.Spilled() || a.Stored != 0 || sb.Stats().InUse != 0 {
			t.Fatalf("store denied: agg spilled %v, %d rows stored, stats %+v", a.Agg.Spilled(), a.Stored, sb.Stats())
		}

		aggRes, ab := tinyRes(t, 24<<10)
		store, sb = tinyRes(t, 32<<10)
		join, jb := tinyRes(t, 16<<10)
		a = attachOf(t, data, minCount, aggRes, store, join)
		assertSameRows(t, drainRows(t, a), want, "keyed attach")
		if !a.Agg.Spilled() || jb.Stats().BytesSpilled == 0 {
			t.Fatalf("group table denied: agg spilled %v, join stats %+v", a.Agg.Spilled(), jb.Stats())
		}
		if ab.Stats().InUse+sb.Stats().InUse+jb.Stats().InUse != 0 {
			t.Fatalf("reservations leaked: agg %d, store %d, join %d", ab.Stats().InUse, sb.Stats().InUse, jb.Stats().InUse)
		}
	}
}

// TestAggAttachEmptyInput: without grouping keys the one aggregate row
// survives an empty input, with NULL provenance; with them there is no
// group and no row.
func TestAggAttachEmptyInput(t *testing.T) {
	for _, left := range []bool{true, false} {
		a := vexec.NewAggAttach(scanOf(t, pairKinds, nil), []*vexec.Expr{colExpr(t, 1, types.KindInt)}, left)
		var keys []*vexec.Expr
		if !left {
			keys = []*vexec.Expr{colExpr(t, 0, types.KindInt)}
		}
		h := vexec.NewHashAgg(a.Feed(), keys, []vexec.AggSpec{{Fn: algebra.AggCount, Star: true, ResultKind: types.KindInt}})
		out := []*vexec.Expr{colExpr(t, len(keys), types.KindInt)}
		if !a.SetGroups(vexec.NewProject(h, out)) {
			t.Fatal("aggregation pipeline not recognized")
		}
		var want []types.Row
		if left {
			want = []types.Row{{types.NewNull(types.KindInt), types.NewInt(0)}}
		}
		assertSameRows(t, drainRows(t, a), want, "empty input")
	}
}
