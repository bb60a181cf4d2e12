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
	"perm/internal/vector"
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
	keys := []algebra.SortKey{{Pos: 0}, {Pos: 2, Desc: true}}
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

// onEnd calls end when its input reports the end of its stream.
type onEnd struct {
	vexec.Node
	end func()
}

func (n *onEnd) Next() (*vector.Batch, error) {
	b, err := n.Node.Next()
	if b == nil && err == nil {
		n.end()
	}
	return b, err
}

// rowOnEnd is onEnd for the row engine.
type rowOnEnd struct {
	exec.Node
	end func()
}

func (n *rowOnEnd) Next() (types.Row, error) {
	r, err := n.Node.Next()
	if r == nil && err == nil {
		n.end()
	}
	return r, err
}

// TestSpillMergeScheduleBound: an external sort that cuts over a hundred
// first-level runs merges them level by level, so on both engines it
// spills at most (1 + ⌈log₈ R⌉) times the bytes of its R first-level
// runs, and its output is the in-memory sort's.
func TestSpillMergeScheduleBound(t *testing.T) {
	data := pairRows(200000, 97)
	keys := []algebra.SortKey{{Pos: 0}, {Pos: 2, Desc: true}}
	dir := t.TempDir()

	// The first-level runs hold every input row once. Written as one
	// column run in full batches the rows take the fewest batch headers,
	// so that run's size is a lower bound of the first-level bytes; the
	// row codec has no batch headers, so there the size is exact.
	colRef, err := spill.NewRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer colRef.Close()
	scan := scanOf(t, pairKinds, data)
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	for {
		b, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if err := colRef.WriteCols(b.Cols, b.N); err != nil {
			t.Fatal(err)
		}
	}
	scan.Close()
	rowRef, err := spill.NewRowRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rowRef.Close()
	for _, r := range data {
		if err := rowRef.WriteRow(r); err != nil {
			t.Fatal(err)
		}
	}

	// check holds the bound; atEnd is the budget's spill count when the
	// input ended, the first-level runs but the tail segment's.
	check := func(name string, b *mem.Budget, atEnd, first int64) {
		t.Helper()
		if atEnd < 100 {
			t.Fatalf("%s: %d first-level runs, want at least 100", name, atEnd)
		}
		levels := int64(0) // ⌈log₈ R⌉ for R = atEnd + 1
		for r := int64(1); r < atEnd+1; r *= 8 {
			levels++
		}
		st := b.Stats()
		if st.BytesSpilled > (1+levels)*first {
			t.Fatalf("%s: spilled %d bytes, %.1fx the %d first-level bytes; bound %dx",
				name, st.BytesSpilled, float64(st.BytesSpilled)/float64(first), first, 1+levels)
		}
		if st.InUse != 0 {
			t.Fatalf("%s: reservation leak: %d bytes", name, st.InUse)
		}
		t.Logf("%s: %d first-level runs, spilled %.1fx their bytes", name, atEnd+1, float64(st.BytesSpilled)/float64(first))
	}

	want := drainRows(t, vexec.NewVecSort(scanOf(t, pairKinds, data), keys))
	res, budget := tinyRes(t, 64<<10)
	var atEnd int64
	ext := vexec.NewVecSort(&onEnd{scanOf(t, pairKinds, data), func() { atEnd = budget.Stats().SpillEvents }}, keys)
	ext.Spill = res
	assertSameRows(t, drainRows(t, ext), want, "VecSort")
	check("VecSort", budget, atEnd, colRef.Bytes())

	want, err = exec.Collect(exec.NewSort(exec.NewScan(data), keys))
	if err != nil {
		t.Fatal(err)
	}
	b := mem.NewGovernor(0).Session(128 << 10)
	s := exec.NewSort(&rowOnEnd{exec.NewScan(data), func() { atEnd = b.Stats().SpillEvents }}, keys)
	s.Spill = spill.Resources{Res: b.Reserve("sort"), Dir: dir}
	got, err := exec.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, got, want, "row Sort")
	check("row Sort", b, atEnd, rowRef.Bytes())
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
		kind algebra.SetOpKind
		all  bool
	}{
		{algebra.SetUnion, false}, {algebra.SetIntersect, true}, {algebra.SetIntersect, false},
		{algebra.SetExcept, true}, {algebra.SetExcept, false},
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
		{"join", func(res spill.Resources) vexec.Node {
			// Every build row has key 1: no reseeded hash splits them.
			build := make([]types.Row, 300)
			for i := range build {
				build[i] = types.Row{types.NewInt(int64(i)), types.NewInt(1), types.NewString(fmt.Sprintf("b%d", i))}
			}
			j := vexec.NewHashJoin(
				scanOf(t, pairKinds, pairRows(120, 5)), scanOf(t, pairKinds, build),
				[]*vexec.Expr{colExpr(t, 1, types.KindInt)},
				[]*vexec.Expr{colExpr(t, 1, types.KindInt)},
				[]bool{false}, algebra.JoinInner, pairKinds, pairKinds)
			j.Spill = res
			return j
		}},
	} {
		want := drainRows(t, c.mk(spill.Resources{}))
		res, budget := tinyRes(t, 8<<10)
		assertSameRows(t, drainRows(t, c.mk(res)), want, c.name)
		st := budget.Stats()
		if st.BytesSpilled == 0 {
			t.Fatalf("%s under an 8 KiB budget did not spill", c.name)
		}
		if st.Peak <= 8<<10 {
			t.Fatalf("%s peaked at %d bytes: it never completed over the 8 KiB budget", c.name, st.Peak)
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
	for _, jt := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinLeft} {
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
			[]bool{true}, algebra.JoinInner, pairKinds, pairKinds)
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
	keys := []algebra.SortKey{{Pos: 0}, {Pos: 2, Desc: true}}
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
