package vexec_test

import (
	"fmt"
	"testing"

	"perm/internal/algebra"
	"perm/internal/exec"
	"perm/internal/types"
	"perm/internal/vector"
	"perm/internal/vexec"
)

// posBinder binds Vars positionally (RT ignored) and rejects sublinks.
type posBinder struct{}

func (posBinder) BindVar(v *algebra.Var) (int, error) { return v.Col, nil }
func (posBinder) BindSubLink(*algebra.SubLink) (algebra.SubLinkValue, error) {
	return nil, fmt.Errorf("no sublinks in vexec tests")
}

// scanOf pivots rows into a columnar scan.
func scanOf(t *testing.T, kinds []types.Kind, rows []types.Row) *vexec.ColScan {
	t.Helper()
	cols, ok := vector.FromRows(rows, kinds)
	if !ok {
		t.Fatal("rows do not pivot")
	}
	return vexec.NewColScan(cols, len(rows))
}

// drainRows runs a vectorized tree to completion through the row adapter.
func drainRows(t *testing.T, n vexec.Node) []types.Row {
	t.Helper()
	rows, err := exec.Collect(vexec.NewRowSource(n))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func intRows(vals ...interface{}) []types.Row {
	rows := make([]types.Row, len(vals))
	for i, v := range vals {
		if v == nil {
			rows[i] = types.Row{types.NewNull(types.KindInt)}
		} else {
			rows[i] = types.Row{types.NewInt(int64(v.(int)))}
		}
	}
	return rows
}

func firstInts(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[0].String()
	}
	return out
}

func TestVecSortNullsAndDirections(t *testing.T) {
	kinds := []types.Kind{types.KindInt}
	data := intRows(3, nil, 1, 2, nil, 1)
	asc := drainRows(t, vexec.NewVecSort(scanOf(t, kinds, data), []algebra.SortKey{{Pos: 0}}))
	if got, want := fmt.Sprint(firstInts(asc)), "[1 1 2 3 NULL NULL]"; got != want {
		t.Errorf("asc = %s, want %s (NULLS LAST ascending)", got, want)
	}
	desc := drainRows(t, vexec.NewVecSort(scanOf(t, kinds, data), []algebra.SortKey{{Pos: 0, Desc: true}}))
	if got, want := fmt.Sprint(firstInts(desc)), "[NULL NULL 3 2 1 1]"; got != want {
		t.Errorf("desc = %s, want %s (NULLS FIRST descending)", got, want)
	}
}

func TestVecSortStability(t *testing.T) {
	kinds := []types.Kind{types.KindInt, types.KindInt}
	var rows []types.Row
	for i := 0; i < 2000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i % 3)), types.NewInt(int64(i))})
	}
	sorted := drainRows(t, vexec.NewVecSort(scanOf(t, kinds, rows), []algebra.SortKey{{Pos: 0}}))
	last := int64(-1)
	for _, r := range sorted {
		if r[0].I == 0 { // within one key group, input order must persist
			if r[1].I <= last {
				t.Fatalf("unstable sort: %d after %d", r[1].I, last)
			}
			last = r[1].I
		}
	}
}

func TestVecTopNMatchesSortLimit(t *testing.T) {
	kinds := []types.Kind{types.KindInt, types.KindInt}
	var rows []types.Row
	for i := 0; i < 3000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64((i * 37) % 101)), types.NewInt(int64(i))})
	}
	keys := []algebra.SortKey{{Pos: 0}, {Pos: 1, Desc: true}}
	for _, lim := range []struct{ count, offset int64 }{{10, 0}, {5, 7}, {0, 0}, {5000, 0}} {
		full := drainRows(t, vexec.NewVecSort(scanOf(t, kinds, rows), keys))
		lo := lim.offset
		if lo > int64(len(full)) {
			lo = int64(len(full))
		}
		hi := lo + lim.count
		if hi > int64(len(full)) {
			hi = int64(len(full))
		}
		want := full[lo:hi]
		got := drainRows(t, vexec.NewVecTopN(scanOf(t, kinds, rows), keys, lim.count, lim.offset))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("topn(count=%d offset=%d) diverges from sort+limit: %d vs %d rows",
				lim.count, lim.offset, len(got), len(want))
		}
	}
}

// TestVecTopNDescendingInput drives the compaction path: with input
// arriving in descending order under an ascending sort, every row beats
// the heap maximum, so without compaction the accumulator would
// materialize the whole stream.
func TestVecTopNDescendingInput(t *testing.T) {
	kinds := []types.Kind{types.KindInt}
	var rows []types.Row
	const n = 20000
	for i := 0; i < n; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(n - i))})
	}
	got := drainRows(t, vexec.NewVecTopN(scanOf(t, kinds, rows), []algebra.SortKey{{Pos: 0}}, 5, 2))
	if fmt.Sprint(firstInts(got)) != "[3 4 5 6 7]" {
		t.Fatalf("topn over descending input = %v", firstInts(got))
	}
}

func TestVecLimitAcrossBatches(t *testing.T) {
	kinds := []types.Kind{types.KindInt}
	var rows []types.Row
	for i := 0; i < 3000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i))})
	}
	got := drainRows(t, vexec.NewVecLimit(scanOf(t, kinds, rows), 10, 1500))
	if len(got) != 10 || got[0][0].I != 1500 || got[9][0].I != 1509 {
		t.Fatalf("limit 10 offset 1500 = %v", firstInts(got))
	}
	// Offset beyond the input yields nothing.
	if got := drainRows(t, vexec.NewVecLimit(scanOf(t, kinds, rows), 10, 5000)); len(got) != 0 {
		t.Fatalf("offset beyond input: %d rows", len(got))
	}
}

func TestVecDistinctFirstAppearance(t *testing.T) {
	kinds := []types.Kind{types.KindInt}
	got := drainRows(t, vexec.NewVecDistinct(scanOf(t, kinds, intRows(2, 1, 2, nil, 1, nil, 3))))
	if fmt.Sprint(firstInts(got)) != "[2 1 NULL 3]" {
		t.Fatalf("distinct = %v", firstInts(got))
	}
}

func TestVecSetOpMultisetSemantics(t *testing.T) {
	kinds := []types.Kind{types.KindInt}
	left := intRows(1, 1, 2, nil, nil)
	right := intRows(1, 3, nil)
	cases := []struct {
		kind algebra.SetOpKind
		all  bool
		want string
	}{
		{algebra.SetUnion, true, "[1 1 2 NULL NULL 1 3 NULL]"},
		{algebra.SetUnion, false, "[1 2 NULL 3]"},
		{algebra.SetIntersect, true, "[1 NULL]"},
		{algebra.SetIntersect, false, "[1 NULL]"},
		{algebra.SetExcept, true, "[1 2 NULL]"},
		{algebra.SetExcept, false, "[2]"},
	}
	for _, c := range cases {
		got := drainRows(t, vexec.NewVecSetOp(scanOf(t, kinds, left), scanOf(t, kinds, right), c.kind, c.all))
		if fmt.Sprint(firstInts(got)) != c.want {
			t.Errorf("setop(kind=%d all=%v) = %v, want %s", c.kind, c.all, firstInts(got), c.want)
		}
	}
}

// compileVar builds a vectorized column reference for operator tests.
func compileVar(t *testing.T, col int, kind types.Kind) *vexec.Expr {
	t.Helper()
	e, err := vexec.CompileExpr(&algebra.Var{RT: 0, Col: col, Typ: kind}, posBinder{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNLJoinInnerAndLeftWithCondition(t *testing.T) {
	kinds := []types.Kind{types.KindInt}
	// cond: left.col0 < right.col0, i.e. flat positions 0 and 1.
	cond, err := vexec.CompileExpr(&algebra.BinOp{
		Op:   "<",
		Left: &algebra.Var{RT: 0, Col: 0, Typ: types.KindInt},
		Right: &algebra.Var{
			RT: 0, Col: 1, Typ: types.KindInt,
		},
		Typ: types.KindBool,
	}, posBinder{})
	if err != nil {
		t.Fatal(err)
	}
	leftRows := intRows(1, 5, nil)
	rightRows := intRows(2, 4)
	inner := drainRows(t, vexec.NewNLJoin(
		scanOf(t, kinds, leftRows), scanOf(t, kinds, rightRows),
		cond, algebra.JoinInner, kinds, kinds))
	if len(inner) != 2 { // 1<2, 1<4
		t.Fatalf("inner rows = %v", inner)
	}
	outer := drainRows(t, vexec.NewNLJoin(
		scanOf(t, kinds, leftRows), scanOf(t, kinds, rightRows),
		cond, algebra.JoinLeft, kinds, kinds))
	if len(outer) != 4 { // (1,2),(1,4), 5 null-extended, NULL null-extended
		t.Fatalf("left-join rows = %v", outer)
	}
	nullExtended := 0
	for _, r := range outer {
		if r[1].Null {
			nullExtended++
		}
	}
	if nullExtended != 2 {
		t.Fatalf("null-extended rows = %d, want 2", nullExtended)
	}
	// Cross join (nil cond) over many batches.
	var big []types.Row
	for i := 0; i < 2500; i++ {
		big = append(big, types.Row{types.NewInt(int64(i))})
	}
	cross := drainRows(t, vexec.NewNLJoin(
		scanOf(t, kinds, big), scanOf(t, kinds, intRows(7, 8, 9)),
		nil, algebra.JoinInner, kinds, kinds))
	if len(cross) != 7500 {
		t.Fatalf("cross join rows = %d, want 7500", len(cross))
	}
}

func TestRuntimeFilterPrunesScan(t *testing.T) {
	kinds := []types.Kind{types.KindInt}
	var rows []types.Row
	for i := 0; i < 5000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i))})
	}
	rows = append(rows, types.Row{types.NewNull(types.KindInt)})
	scan := scanOf(t, kinds, rows)

	build := vector.NewVec(types.KindInt, 3)
	build.I[0], build.I[1], build.I[2] = 10, 20, 4999

	rf := vexec.NewRuntimeFilter(false)
	scan.AddRuntimeFilter(rf, 0)
	rf.PublishFrom(types.KindInt, []*vector.Vec{build})

	got := drainRows(t, scan)
	if len(got) > 64 {
		t.Fatalf("runtime filter admitted %d of 5001 lanes", len(got))
	}
	seen := map[int64]bool{}
	for _, r := range got {
		if r[0].Null {
			t.Fatal("non-null-safe filter must prune NULL probe lanes")
		}
		seen[r[0].I] = true
	}
	for _, must := range []int64{10, 20, 4999} {
		if !seen[must] {
			t.Fatalf("build value %d was pruned", must)
		}
	}

	// Null-safe: NULL probe lanes survive iff the build saw a NULL.
	nb := vector.NewVec(types.KindInt, 2)
	nb.I[0] = 10
	nb.SetNull(1)
	scan2 := scanOf(t, kinds, rows)
	rf2 := vexec.NewRuntimeFilter(true)
	scan2.AddRuntimeFilter(rf2, 0)
	rf2.PublishFrom(types.KindInt, []*vector.Vec{nb})
	sawNull := false
	for _, r := range drainRows(t, scan2) {
		if r[0].Null {
			sawNull = true
		}
	}
	if !sawNull {
		t.Fatal("null-safe filter with a NULL build key must admit NULL probe lanes")
	}

	// Empty build rejects everything (inner join with no build rows).
	scan3 := scanOf(t, kinds, rows)
	rf3 := vexec.NewRuntimeFilter(false)
	scan3.AddRuntimeFilter(rf3, 0)
	rf3.PublishFrom(types.KindInt, nil)
	if got := drainRows(t, scan3); len(got) != 0 {
		t.Fatalf("empty build must reject all lanes, admitted %d", len(got))
	}
}

// TestHashJoinPublishesAfterBuild pins the Open order contract: the
// build side completes (and publishes) before the probe side opens.
func TestHashJoinPublishesAfterBuild(t *testing.T) {
	kinds := []types.Kind{types.KindInt}
	var probeRows []types.Row
	for i := 0; i < 3000; i++ {
		probeRows = append(probeRows, types.Row{types.NewInt(int64(i))})
	}
	probe := scanOf(t, kinds, probeRows)
	buildScan := scanOf(t, kinds, intRows(5, 100, 2500))

	lk := []*vexec.Expr{compileVar(t, 0, types.KindInt)}
	rk := []*vexec.Expr{compileVar(t, 0, types.KindInt)}
	j := vexec.NewHashJoin(probe, buildScan, lk, rk, []bool{false}, algebra.JoinInner, kinds, kinds)
	rf := vexec.NewRuntimeFilter(false)
	probe.AddRuntimeFilter(rf, 0)
	j.Publish = []*vexec.RuntimeFilter{rf}

	got := drainRows(t, j)
	if len(got) != 3 {
		t.Fatalf("join rows = %d, want 3", len(got))
	}
	// Re-execution must republish and still be correct.
	got = drainRows(t, j)
	if len(got) != 3 {
		t.Fatalf("re-executed join rows = %d, want 3", len(got))
	}
}
