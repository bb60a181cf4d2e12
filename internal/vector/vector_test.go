package vector

import (
	"fmt"
	"math"
	"testing"

	"perm/internal/types"
)

func TestBitmapSemantics(t *testing.T) {
	b := NewBitmap(130)
	if b.AnySet(130) {
		t.Fatal("fresh bitmap must be clear")
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(65) || b.Get(128) {
		t.Fatal("unexpected bits set")
	}
	if !b.AnySet(130) || !b.AnySet(1) {
		t.Fatal("AnySet must see set bits")
	}
	b.Clear(0)
	b.Clear(63)
	if b.AnySet(63) {
		t.Fatal("AnySet(63) must ignore bits >= 63")
	}
	b.Clear(64)
	b.Clear(129)
	if b.AnySet(130) {
		t.Fatal("all bits cleared")
	}
}

func TestVecNullSemantics(t *testing.T) {
	v := NewVec(types.KindInt, 3)
	v.Set(0, types.NewInt(7))
	v.Set(1, types.NewNull(types.KindInt))
	v.Set(2, types.NewInt(-2))
	if v.IsNull(0) || !v.IsNull(1) || v.IsNull(2) {
		t.Fatalf("null bitmap wrong: %v %v %v", v.IsNull(0), v.IsNull(1), v.IsNull(2))
	}
	if got := v.Value(1); !got.Null || got.K != types.KindInt {
		t.Fatalf("Value(1) = %+v, want typed NULL", got)
	}
	// Overwriting a NULL lane with a value must clear the bit.
	v.Set(1, types.NewInt(5))
	if v.IsNull(1) || v.Value(1).I != 5 {
		t.Fatalf("Set must clear the null bit, got %+v", v.Value(1))
	}
	// Numeric coercion: int value into a float column.
	f := NewVec(types.KindFloat, 1)
	f.Set(0, types.NewInt(3))
	if f.Value(0).F() != 3.0 {
		t.Fatalf("int into float column = %+v", f.Value(0))
	}
}

func TestFromRowsRoundTrip(t *testing.T) {
	kinds := []types.Kind{types.KindInt, types.KindString, types.KindBool, types.KindFloat, types.KindDate}
	rows := []types.Row{
		{types.NewInt(1), types.NewString("a"), types.NewBool(true), types.NewFloat(1.5), types.NewDate(100)},
		{types.NewNull(types.KindInt), types.NewNull(types.KindString), types.NewNull(types.KindBool),
			types.NewNull(types.KindFloat), types.NewNull(types.KindDate)},
		{types.NewInt(-3), types.NewString(""), types.NewBool(false), types.NewFloat(-0.25), types.NewDate(-1)},
	}
	cols, ok := FromRows(rows, kinds)
	if !ok {
		t.Fatal("FromRows failed")
	}
	for i, r := range rows {
		for j := range kinds {
			got := cols[j].Value(i)
			if types.Distinct(got, r[j]) {
				t.Fatalf("row %d col %d: got %v want %v", i, j, got, r[j])
			}
		}
	}
	// A value that does not fit its declared kind must reject the pivot.
	bad := []types.Row{{types.NewString("x"), types.NewString("y"), types.NewBool(true), types.NewFloat(0), types.NewDate(0)}}
	if _, ok := FromRows(bad, kinds); ok {
		t.Fatal("FromRows must reject a string in an int column")
	}
	// Unsupported column kinds reject the pivot.
	if _, ok := FromRows(nil, []types.Kind{types.KindInterval}); ok {
		t.Fatal("FromRows must reject interval columns")
	}
}

// TestFloatBitsRoundTrip: a float column unboxes and boxes every float64
// bit for bit — signed zeros, NaN, infinities, subnormals, the extremes —
// through FromRows, Set, Value and BoxStrided.
func TestFloatBitsRoundTrip(t *testing.T) {
	floats := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64}
	rows := make([]types.Row, len(floats))
	for i, f := range floats {
		rows[i] = types.Row{types.NewFloat(f)}
	}
	cols, ok := FromRows(rows, []types.Kind{types.KindFloat})
	if !ok {
		t.Fatal("FromRows failed")
	}
	set := NewVec(types.KindFloat, len(floats))
	boxed := make([]types.Value, len(floats))
	cols[0].BoxStrided(boxed, 1, nil, len(floats))
	for i, f := range floats {
		set.Set(i, rows[i][0])
		for _, got := range []types.Value{cols[0].Value(i), set.Value(i), boxed[i]} {
			if !types.Identical(got, rows[i][0]) {
				t.Fatalf("%v came back as %v (bits %x)", f, got, got.I)
			}
		}
	}
}

func TestBatchSelectionApplication(t *testing.T) {
	v := NewVec(types.KindInt, 5)
	for i := 0; i < 5; i++ {
		v.Set(i, types.NewInt(int64(i*10)))
	}
	b := &Batch{N: 5, Cols: []*Vec{v}}
	if b.Live() != 5 {
		t.Fatalf("Live() = %d, want 5 with nil selection", b.Live())
	}
	b.Sel = []int{1, 4}
	if b.Live() != 2 {
		t.Fatalf("Live() = %d, want 2", b.Live())
	}
	// Physical positions remain addressable regardless of the selection.
	if got := b.Row(4); got[0].I != 40 {
		t.Fatalf("Row(4) = %v", got)
	}
	got := make([]int64, 0, 2)
	for _, lane := range b.Sel {
		got = append(got, b.Row(lane)[0].I)
	}
	if fmt.Sprint(got) != "[10 40]" {
		t.Fatalf("selected rows = %v", got)
	}
}

// TestBatchBoundaries covers the batch boundary conditions: an empty
// vector, exactly BatchSize rows, and a trailing partial batch.
func TestBatchBoundaries(t *testing.T) {
	window := func(n int) [][2]int {
		var spans [][2]int
		for lo := 0; lo < n; lo += BatchSize {
			hi := lo + BatchSize
			if hi > n {
				hi = n
			}
			spans = append(spans, [2]int{lo, hi})
		}
		return spans
	}
	if got := window(0); got != nil {
		t.Fatalf("empty input must produce no batches, got %v", got)
	}
	for _, n := range []int{BatchSize, BatchSize + 1, 2*BatchSize + 7} {
		v := NewVec(types.KindInt, n)
		for i := 0; i < n; i++ {
			v.Set(i, types.NewInt(int64(i)))
			if i%5 == 0 {
				v.SetNull(i)
			}
		}
		total := 0
		for _, span := range window(n) {
			w := v.Window(span[0], span[1])
			if w.Len() != span[1]-span[0] {
				t.Fatalf("window %v length %d", span, w.Len())
			}
			for i := 0; i < w.Len(); i++ {
				phys := span[0] + i
				if w.IsNull(i) != (phys%5 == 0) {
					t.Fatalf("n=%d window %v lane %d: null bit mismatch", n, span, i)
				}
				if !w.IsNull(i) && w.Value(i).I != int64(phys) {
					t.Fatalf("n=%d window %v lane %d: got %v", n, span, i, w.Value(i))
				}
			}
			total += w.Len()
		}
		if total != n {
			t.Fatalf("windows covered %d of %d rows", total, n)
		}
	}
}

func TestAppendFromAndCopyLanes(t *testing.T) {
	src := NewVec(types.KindString, 4)
	src.Set(0, types.NewString("a"))
	src.SetNull(1)
	src.Set(2, types.NewString("c"))
	src.Set(3, types.NewString("d"))

	app := NewVec(types.KindString, 0)
	for _, i := range []int{3, 1, 0} {
		app.AppendFrom(src, i)
	}
	if app.Len() != 3 || app.Value(0).Str() != "d" || !app.IsNull(1) || app.Value(2).Str() != "a" {
		t.Fatalf("AppendFrom result wrong: len=%d", app.Len())
	}

	dst := NewVec(types.KindString, 3)
	dst.CopyLanes(1, src, []int{1, 2})
	if !dst.IsNull(1) || dst.Value(2).Str() != "c" {
		t.Fatal("CopyLanes result wrong")
	}
}

// TestBoxDeferredMatchesGather: a deferred column boxes, under a batch's
// selection, exactly what boxing a gather of its source by the same ids
// does, for every kind, NULLs in the source and negative ids alike.
func TestBoxDeferredMatchesGather(t *testing.T) {
	const srcLen, n = 300, 100
	for _, k := range []types.Kind{types.KindBool, types.KindInt, types.KindDate, types.KindFloat, types.KindString} {
		src := NewVec(k, srcLen)
		for i := 0; i < srcLen; i++ {
			switch {
			case i%7 == 0:
				src.SetNull(i)
			case k == types.KindBool:
				src.Set(i, types.NewBool(i%3 == 0))
			case k == types.KindFloat:
				src.Set(i, types.NewFloat(float64(i)/3))
			case k == types.KindString:
				src.Set(i, types.NewString(fmt.Sprint("s", i)))
			default:
				src.Set(i, types.Value{K: k, I: int64(i * 11)})
			}
		}
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32((i * 37) % srcLen)
			if i%13 == 12 {
				ids[i] = -1
			}
		}
		for _, sel := range [][]int{nil, {0, 3, 4, 50, 98, 99}} {
			live := n
			if sel != nil {
				live = len(sel)
			}
			gathered := NewVec(k, n)
			gathered.GatherRows(src, ids, true)
			want := make([]types.Value, 2*live)
			gathered.BoxStrided(want, 2, sel, live)
			var d Vec
			d.Defer(k, src, ids, true)
			got := make([]types.Value, 2*live)
			d.BoxStrided(got, 2, sel, live)
			for r := range got {
				if !types.Identical(got[r], want[r]) {
					t.Fatalf("%v sel=%v: value %d = %v, want %v", k, sel, r, got[r], want[r])
				}
			}
		}
	}
}
