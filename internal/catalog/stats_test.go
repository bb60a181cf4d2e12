package catalog

import (
	"math"
	"testing"

	"perm/internal/types"
)

func TestTableStatsLazyAndVersioned(t *testing.T) {
	c := New()
	tab, err := c.CreateTable("t", []Column{intCol("a"), intCol("b")}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 10))}
		if i%5 == 0 {
			row[1] = types.NewNull(types.KindInt)
		}
		if err := tab.Heap.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	st := tab.Stats()
	if st.Rows != 100 {
		t.Fatalf("rows = %v, want 100", st.Rows)
	}
	if st.Cols[0].NDV != 100 {
		t.Fatalf("col a NDV = %v, want 100 (exact under the sample cap)", st.Cols[0].NDV)
	}
	if !st.Cols[0].HasRange || st.Cols[0].MinF != 0 || st.Cols[0].MaxF != 99 {
		t.Fatalf("col a range = [%v, %v] hasRange=%v", st.Cols[0].MinF, st.Cols[0].MaxF, st.Cols[0].HasRange)
	}
	if got := st.Cols[1].NullFrac; got != 0.2 {
		t.Fatalf("col b null fraction = %v, want 0.2", got)
	}
	// Unchanged heap: the same snapshot comes back (cached).
	if tab.Stats() != st {
		t.Fatal("stats recomputed without a mutation")
	}
	// A mutation invalidates lazily: the next call sees the new state.
	if err := tab.Heap.Insert(types.Row{types.NewInt(1000), types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	st2 := tab.Stats()
	if st2 == st || st2.Rows != 101 || st2.Cols[0].MaxF != 1000 {
		t.Fatalf("stats not refreshed after insert: rows=%v max=%v", st2.Rows, st2.Cols[0].MaxF)
	}
}

func TestColStatsNDVExtrapolation(t *testing.T) {
	c := New()
	tab, err := c.CreateTable("big", []Column{intCol("k")}, false)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3 * statsSampleCap
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))} // all distinct
	}
	if err := tab.Heap.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	st := tab.Stats()
	// The sample saw statsSampleCap distinct values out of statsSampleCap
	// sampled; the estimate must extrapolate towards n, not stay at the
	// sample size.
	if st.Cols[0].NDV < float64(n)/2 {
		t.Fatalf("NDV = %v, want near %d", st.Cols[0].NDV, n)
	}
}

// TestColStatsSpecialFloats: distinct counting and the range read a
// float's value, not its bits: the two zeros are one value, each NaN is its
// own, and the infinities bound the range.
func TestColStatsSpecialFloats(t *testing.T) {
	c := New()
	tab, err := c.CreateTable("f", []Column{{Name: "x", Type: types.KindFloat}}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), math.NaN(), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64} {
		if err := tab.Heap.Insert(types.Row{types.NewFloat(f)}); err != nil {
			t.Fatal(err)
		}
	}
	st := tab.Stats().Cols[0]
	if st.NDV != 7 || !math.IsInf(st.MinF, -1) || !math.IsInf(st.MaxF, 1) {
		t.Fatalf("NDV %v, range [%v, %v]; want 7, [-Inf, +Inf]", st.NDV, st.MinF, st.MaxF)
	}
}
