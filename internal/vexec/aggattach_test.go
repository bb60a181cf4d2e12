package vexec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"perm/internal/algebra"
	"perm/internal/fault"
	"perm/internal/spill"
	"perm/internal/types"
	"perm/internal/vector"
	"perm/internal/vexec"
)

// attachOf builds the join-back operator over pairRows-shaped rows (k, i,
// s): T+ is (i, s, k), the aggregation groups by k and computes count(*)
// and sum(i), and HAVING (when minCount ≥ 0) keeps groups of more than
// minCount rows. With snap the store keeps the rows' scan ids and gathers
// i and k from the scan's snapshot, storing only s.
func attachOf(t *testing.T, rows []types.Row, minCount int64, snap bool, agg, store, join spill.Resources) *vexec.AggAttach {
	t.Helper()
	prov := []*vexec.Expr{colExpr(t, 1, types.KindInt), colExpr(t, 2, types.KindString), colExpr(t, 0, types.KindInt)}
	scan := scanOf(t, pairKinds, rows)
	a := vexec.NewAggAttach(scan, prov, false)
	if snap {
		scan.RowIDs = true
		a.Snap, a.RowID = []*vector.Vec{scan.Cols[1], nil, scan.Cols[0]}, len(scan.Cols)
	}
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
// grouping key through a Grace join, reading its stored rows or its input
// again; every path yields the reference in input order and gives back
// its reservations, whether the store copies T+ or keeps scan row ids.
func TestAggAttachSpill(t *testing.T) {
	data := pairRows(20000, 3001)
	none := spill.Resources{}
	for _, snap := range []bool{false, true} {
		for _, minCount := range []int64{-1, 6} {
			want := attachReference(data, minCount)
			what := func(path string) string {
				return fmt.Sprintf("%s, row ids %v, HAVING count > %d", path, snap, minCount)
			}
			assertSameRows(t, drainRows(t, attachOf(t, data, minCount, snap, none, none, none)), want, what("in-memory attach"))

			store, sb := tinyRes(t, 32<<10)
			a := attachOf(t, data, minCount, snap, none, store, none)
			assertSameRows(t, drainRows(t, a), want, what("attach to a replayed input"))
			if a.Agg.Spilled() || a.Stored != 0 || sb.Stats().InUse != 0 {
				t.Fatalf("%s: agg spilled %v, %d rows stored, stats %+v", what("store denied"), a.Agg.Spilled(), a.Stored, sb.Stats())
			}

			// 32 KiB denies the store; 2 MiB holds its 20,000 rows, of ids and
			// a short string or of all three columns, while the group table
			// spills under its own 24 KiB. Injected denials (PERM_FAULT) may
			// deny the store too; then only the output and the reservations
			// are checked.
			for _, room := range []int64{32 << 10, 2 << 20} {
				aggRes, ab := tinyRes(t, 24<<10)
				store, sb = tinyRes(t, room)
				join, jb := tinyRes(t, 16<<10)
				a = attachOf(t, data, minCount, snap, aggRes, store, join)
				assertSameRows(t, drainRows(t, a), want, what("keyed attach"))
				if !fault.Enabled() && (!a.Agg.Spilled() || jb.Stats().BytesSpilled == 0 || (a.Stored == len(data)) != (room > 32<<10)) {
					t.Fatalf("%s: agg spilled %v, %d rows stored, join stats %+v", what("group table denied"), a.Agg.Spilled(), a.Stored, jb.Stats())
				}
				if ab.Stats().InUse+sb.Stats().InUse+jb.Stats().InUse != 0 {
					t.Fatalf("reservations leaked: agg %d, store %d, join %d", ab.Stats().InUse, sb.Stats().InUse, jb.Stats().InUse)
				}
			}
		}
	}
}

// TestAggAttachEmptyInput: without grouping keys the one aggregate row
// survives an empty input, with NULL provenance, stored or gathered by a
// negative row id; with them there is no group and no row.
func TestAggAttachEmptyInput(t *testing.T) {
	for _, left := range []bool{true, false} {
		for _, snap := range []bool{false, true} {
			scan := scanOf(t, pairKinds, nil)
			a := vexec.NewAggAttach(scan, []*vexec.Expr{colExpr(t, 1, types.KindInt)}, left)
			if snap {
				scan.RowIDs = true
				a.Snap, a.RowID = []*vector.Vec{scan.Cols[1]}, len(scan.Cols)
			}
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
			assertSameRows(t, drainRows(t, a), want, fmt.Sprintf("empty input, row ids %v", snap))
		}
	}
}

// opaque hides the operator below it from the sort above.
type opaque struct{ vexec.Node }

// TestAggAttachOrdered: a sort over the join-back, through a projection,
// passes the rows through exactly when every key is a column of the
// aggregate's output and the store stayed in memory, and then emits what
// it would have made of the rows in input order — over random groups with
// NULL keys, groups tying on the keys, HAVING, keys on T+ and on computed
// columns, and a budget that denies the store; odd rounds keep row ids.
func TestAggAttachOrdered(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// The attach emits T+ (i, s, k), then the aggregate's (k, count, sum).
	kinds := []types.Kind{types.KindInt, types.KindString, types.KindInt, types.KindInt, types.KindInt, types.KindInt}
	none := spill.Resources{}
	for round := 0; round < 60; round++ {
		rows := make([]types.Row, 1+r.Intn(3000))
		mod := 1 + r.Intn(40)
		for i := range rows {
			k := types.NewInt(int64(r.Intn(mod)))
			if r.Intn(8) == 0 {
				k = types.NewNull(types.KindInt)
			}
			rows[i] = types.Row{k, types.NewInt(int64(r.Intn(4))), types.NewString(fmt.Sprint(r.Intn(5)))}
		}
		minCount := int64(r.Intn(4)) - 1
		// The projection permutes the columns and may compute one of them.
		cols, computed := r.Perm(len(kinds)), -1
		if j := r.Intn(len(kinds)); r.Intn(3) == 0 && kinds[cols[j]] == types.KindInt {
			computed = j
		}
		project := func(n vexec.Node) vexec.Node {
			exprs := make([]*vexec.Expr, len(cols))
			for j, c := range cols {
				exprs[j] = colExpr(t, c, kinds[c])
				if j == computed {
					e, err := vexec.CompileExpr(&algebra.BinOp{Op: "+", Typ: types.KindInt,
						Left:  &algebra.Var{Col: c, Typ: types.KindInt},
						Right: &algebra.Const{Val: types.NewInt(0)}}, posBinder{})
					if err != nil {
						t.Fatal(err)
					}
					exprs[j] = e
				}
			}
			return vexec.NewProject(n, exprs)
		}
		var keys []algebra.SortKey
		byGroup := true
		for _, pos := range r.Perm(len(kinds))[:1+r.Intn(3)] {
			keys = append(keys, algebra.SortKey{Pos: pos, Desc: r.Intn(2) == 0})
			byGroup = byGroup && cols[pos] >= 3 && pos != computed
		}
		what := fmt.Sprintf("round %d: %d rows in %d groups, HAVING count > %d, keys %v over columns %v (computed %d)",
			round, len(rows), mod, minCount, keys, cols, computed)
		want := drainRows(t, vexec.NewVecSort(opaque{project(attachOf(t, rows, minCount, false, none, none, none))}, keys))
		for _, denied := range []bool{false, true} {
			store := none
			if denied {
				store, _ = tinyRes(t, 1)
			}
			snap := round%2 == 1
			s := vexec.NewVecSort(project(attachOf(t, rows, minCount, snap, none, store, none)), keys)
			assertSameRows(t, drainRows(t, s), want, what)
			if s.ByGroup() != (byGroup && !denied) {
				t.Fatalf("%s, store denied %v, row ids %v: by group = %v", what, denied, snap, s.ByGroup())
			}
		}
	}
}
