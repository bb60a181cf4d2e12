package vexec_test

import (
	"fmt"
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/exec"
	"perm/internal/mem"
	"perm/internal/spill"
	"perm/internal/types"
	"perm/internal/vexec"
)

// tinyRes returns spill resources with the given session budget, plus
// the budget for stat assertions.
func tinyRes(t *testing.T, limit int64) (spill.Resources, *mem.Budget) {
	t.Helper()
	b := mem.NewGovernor(0).Session(limit)
	return spill.Resources{Res: b.Reserve("test"), Dir: t.TempDir()}, b
}

// rowStrings renders rows for exact (order-sensitive) comparison.
func rowStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

func assertSameRows(t *testing.T, got, want []types.Row, what string) {
	t.Helper()
	g, w := rowStrings(got), rowStrings(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d = %s, want %s", what, i, g[i], w[i])
		}
	}
}

// pairRows builds (i%mod, i, label) rows — duplicate keys, stable-order
// sensitive payloads, and a string column to exercise the codec.
func pairRows(n, mod int) []types.Row {
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{
			types.NewInt(int64(i % mod)),
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("s%d", i%13)),
		}
	}
	return rows
}

var pairKinds = []types.Kind{types.KindInt, types.KindInt, types.KindString}

func colExpr(t *testing.T, col int, kind types.Kind) *vexec.Expr {
	t.Helper()
	e, err := vexec.CompileExpr(&algebra.Var{Col: col, Typ: kind, Name: "c"}, posBinder{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestVecSortSpillMultiPass forces dozens of spill runs (well past the
// merge fan-in) and requires the external sort's output to be identical
// to the in-memory sort's, stable ties included.
func TestVecSortSpillMultiPass(t *testing.T) {
	data := pairRows(50000, 97)
	keys := []exec.SortKey{{Pos: 0}, {Pos: 2, Desc: true}}
	want := drainRows(t, vexec.NewVecSort(scanOf(t, pairKinds, data), keys))

	res, budget := tinyRes(t, 16<<10)
	ext := vexec.NewVecSort(scanOf(t, pairKinds, data), keys)
	ext.Spill = res
	assertSameRows(t, drainRows(t, ext), want, "external sort")
	st := budget.Stats()
	if st.SpillEvents < 10 {
		t.Fatalf("expected many spill runs (multi-pass), got %d events", st.SpillEvents)
	}
	if st.InUse != 0 {
		t.Fatalf("reservation leak: %d bytes", st.InUse)
	}
}

// TestHashAggSpill: partial-group flushing with state merge must produce
// the same groups, values and first-appearance order as the in-memory
// aggregation.
func TestHashAggSpill(t *testing.T) {
	data := pairRows(25000, 4999)
	mkAgg := func() *vexec.HashAgg {
		return vexec.NewHashAgg(
			scanOf(t, pairKinds, data),
			[]*vexec.Expr{colExpr(t, 0, types.KindInt)},
			[]vexec.AggSpec{
				{Fn: algebra.AggCount, Star: true, ResultKind: types.KindInt},
				{Fn: algebra.AggSum, Arg: colExpr(t, 1, types.KindInt), ResultKind: types.KindInt},
				{Fn: algebra.AggMin, Arg: colExpr(t, 2, types.KindString), ResultKind: types.KindString},
				{Fn: algebra.AggMax, Arg: colExpr(t, 1, types.KindInt), ResultKind: types.KindInt},
				{Fn: algebra.AggAvg, Arg: colExpr(t, 1, types.KindInt), ResultKind: types.KindFloat},
			})
	}
	want := drainRows(t, mkAgg())
	res, budget := tinyRes(t, 24<<10)
	agg := mkAgg()
	agg.Spill = res
	assertSameRows(t, drainRows(t, agg), want, "spilled hash agg")
	if budget.Stats().BytesSpilled == 0 {
		t.Fatal("aggregation under a 24 KiB budget did not spill")
	}
	if st := budget.Stats(); st.InUse != 0 {
		t.Fatalf("reservation leak: %d bytes", st.InUse)
	}
}

// TestVecDistinctSpill: partitioned dedup must keep exactly the first
// occurrences, in first-appearance order.
func TestVecDistinctSpill(t *testing.T) {
	data := pairRows(25000, 6007)
	want := drainRows(t, vexec.NewVecDistinct(scanOf(t, pairKinds, data)))
	res, budget := tinyRes(t, 24<<10)
	d := vexec.NewVecDistinct(scanOf(t, pairKinds, data))
	d.Spill = res
	assertSameRows(t, drainRows(t, d), want, "spilled distinct")
	if budget.Stats().BytesSpilled == 0 {
		t.Fatal("distinct under a 24 KiB budget did not spill")
	}
	if st := budget.Stats(); st.InUse != 0 {
		t.Fatalf("reservation leak: %d bytes", st.InUse)
	}
}

// TestVecSetOpSpill covers the multiplicity-expanding merge of the
// spilled set operation across all kinds.
func TestVecSetOpSpill(t *testing.T) {
	left := pairRows(15000, 2003)
	right := pairRows(10000, 3001)
	for _, c := range []struct {
		kind exec.SetOpKind
		all  bool
	}{
		{exec.Union, false}, {exec.Intersect, true}, {exec.Intersect, false},
		{exec.Except, true}, {exec.Except, false},
	} {
		name := fmt.Sprintf("%v-all=%v", c.kind, c.all)
		want := drainRows(t, vexec.NewVecSetOp(
			scanOf(t, pairKinds, left), scanOf(t, pairKinds, right), c.kind, c.all))
		res, budget := tinyRes(t, 24<<10)
		op := vexec.NewVecSetOp(scanOf(t, pairKinds, left), scanOf(t, pairKinds, right), c.kind, c.all)
		op.Spill = res
		assertSameRows(t, drainRows(t, op), want, name)
		if budget.Stats().BytesSpilled == 0 {
			t.Fatalf("%s under a 24 KiB budget did not spill", name)
		}
		if st := budget.Stats(); st.InUse != 0 {
			t.Fatalf("%s leaked %d reserved bytes", name, st.InUse)
		}
	}
}

// TestGroupSpillPastRepartitionDepth: when every group alone outgrows the
// grant quantum and the budget is smaller still, no partition ever fits,
// so the merges split down to maxRepartitionDepth and complete there
// over budget. The output must still be the in-memory run's.
func TestGroupSpillPastRepartitionDepth(t *testing.T) {
	const keys = 24
	big := make([]string, keys)
	for k := range big {
		big[k] = fmt.Sprintf("%s%03d", strings.Repeat("x", 17<<10), k)
	}
	data := make([]types.Row, 120)
	for i := range data {
		data[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 5)),
			types.NewString(big[(i*7)%keys]),
		}
	}
	for _, c := range []struct {
		name string
		mk   func(spill.Resources) vexec.Node
	}{
		{"aggregation", func(res spill.Resources) vexec.Node {
			a := vexec.NewHashAgg(
				scanOf(t, pairKinds, data),
				[]*vexec.Expr{colExpr(t, 2, types.KindString)},
				[]vexec.AggSpec{
					{Fn: algebra.AggCount, Star: true, ResultKind: types.KindInt},
					{Fn: algebra.AggSum, Arg: colExpr(t, 0, types.KindInt), ResultKind: types.KindInt},
				})
			a.Spill = res
			return a
		}},
		{"distinct", func(res spill.Resources) vexec.Node {
			d := vexec.NewVecDistinct(vexec.NewProject(scanOf(t, pairKinds, data),
				[]*vexec.Expr{colExpr(t, 1, types.KindInt), colExpr(t, 2, types.KindString)}))
			d.Spill = res
			return d
		}},
	} {
		want := drainRows(t, c.mk(spill.Resources{}))
		res, budget := tinyRes(t, 8<<10)
		assertSameRows(t, drainRows(t, c.mk(res)), want, c.name)
		st := budget.Stats()
		if st.BytesSpilled == 0 {
			t.Fatalf("%s under an 8 KiB budget did not spill", c.name)
		}
		if st.InUse != 0 {
			t.Fatalf("%s leaked %d reserved bytes", c.name, st.InUse)
		}
	}
}

// TestHashJoinGrace: the partitioned join must emit exactly the
// in-memory join's stream — probe order, per-probe matches in
// build-input order, null extension included.
func TestHashJoinGrace(t *testing.T) {
	probe := pairRows(12000, 541)
	build := pairRows(6000, 761) // dup keys → multiple matches per probe row
	for _, jt := range []vexec.JoinType{vexec.InnerJoin, vexec.LeftJoin} {
		mk := func() *vexec.HashJoin {
			return vexec.NewHashJoin(
				scanOf(t, pairKinds, probe), scanOf(t, pairKinds, build),
				[]*vexec.Expr{colExpr(t, 0, types.KindInt)},
				[]*vexec.Expr{colExpr(t, 0, types.KindInt)},
				[]bool{false}, jt, pairKinds, pairKinds)
		}
		want := drainRows(t, mk())
		res, budget := tinyRes(t, 24<<10)
		j := mk()
		j.Spill = res
		assertSameRows(t, drainRows(t, j), want, fmt.Sprintf("grace join type=%d", jt))
		if budget.Stats().BytesSpilled == 0 {
			t.Fatalf("join type %d under a 24 KiB budget did not spill", jt)
		}
		if st := budget.Stats(); st.InUse != 0 {
			t.Fatalf("join type %d leaked %d reserved bytes", jt, st.InUse)
		}
	}
}

// TestHashJoinGraceNullSafe pins the null-safe key path through the
// partitioned join (NULL IS NOT DISTINCT FROM NULL must keep matching
// after the spill).
func TestHashJoinGraceNullSafe(t *testing.T) {
	withNulls := func(n, mod int) []types.Row {
		rows := pairRows(n, mod)
		for i := 0; i < n; i += 17 {
			rows[i][0] = types.NewNull(types.KindInt)
		}
		return rows
	}
	probe := withNulls(8000, 431)
	build := withNulls(3000, 653)
	mk := func() *vexec.HashJoin {
		return vexec.NewHashJoin(
			scanOf(t, pairKinds, probe), scanOf(t, pairKinds, build),
			[]*vexec.Expr{colExpr(t, 0, types.KindInt)},
			[]*vexec.Expr{colExpr(t, 0, types.KindInt)},
			[]bool{true}, vexec.InnerJoin, pairKinds, pairKinds)
	}
	want := drainRows(t, mk())
	res, budget := tinyRes(t, 24<<10)
	j := mk()
	j.Spill = res
	assertSameRows(t, drainRows(t, j), want, "null-safe grace join")
	if budget.Stats().BytesSpilled == 0 {
		t.Fatal("null-safe join under a 24 KiB budget did not spill")
	}
}

// TestRowSortSpill pins the row engine's external sort against the
// in-memory one.
func TestRowSortSpill(t *testing.T) {
	data := pairRows(50000, 97)
	keys := []exec.SortKey{{Pos: 0}, {Pos: 2, Desc: true}}
	want, err := exec.Collect(exec.NewSort(exec.NewScan(data), keys))
	if err != nil {
		t.Fatal(err)
	}
	b := mem.NewGovernor(0).Session(16 << 10)
	s := exec.NewSort(exec.NewScan(data), keys)
	s.Spill = spill.Resources{Res: b.Reserve("sort"), Dir: t.TempDir()}
	got, err := exec.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, got, want, "row external sort")
	if st := b.Stats(); st.SpillEvents < 10 {
		t.Fatalf("expected many row-sort spill runs, got %d", st.SpillEvents)
	}
}
