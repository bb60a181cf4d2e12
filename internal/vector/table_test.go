package vector

import (
	"fmt"
	"testing"

	"perm/internal/types"
)

var tableKinds = []types.Kind{types.KindInt, types.KindFloat, types.KindBool, types.KindString, types.KindDate}

// sourceCols builds n rows of every vector kind. Row i is NULL in column c
// when (i+c)%5 == 0 or i falls in 60..70, so null runs cross the 64-bit
// word boundary of every bitmap involved.
func sourceCols(n int) []*Vec {
	cols := make([]*Vec, len(tableKinds))
	for c, k := range tableKinds {
		v := NewVec(k, n)
		for i := 0; i < n; i++ {
			if (i+c)%5 == 0 || (i%1024 >= 60 && i%1024 < 70) {
				v.SetNull(i)
				continue
			}
			switch k {
			case types.KindInt, types.KindDate:
				v.I[i] = int64(i*7 + c)
			case types.KindFloat:
				v.F[i] = float64(i) + 0.25
			case types.KindBool:
				v.B[i] = i%3 == 0
			case types.KindString:
				v.S[i] = fmt.Sprintf("s%d", i)
			}
		}
		cols[c] = v
	}
	return cols
}

// feed appends rows [0, n) of src to the table the way operators do:
// batch windows, alternately whole (no selection), with a selection that
// keeps every third lane out, and lane by lane. It returns the source row
// of every table row.
func feed(t *Table, src []*Vec, n int) []int {
	var rows []int
	window := make([]*Vec, len(src))
	for lo, batch := 0, 0; lo < n; lo, batch = lo+BatchSize, batch+1 {
		hi := lo + BatchSize
		if hi > n {
			hi = n
		}
		for c, v := range src {
			window[c] = v.Window(lo, hi)
		}
		var lanes []int
		for i := 0; i < hi-lo; i++ {
			if batch%3 != 1 || i%3 != 2 {
				lanes = append(lanes, i)
				rows = append(rows, lo+i)
			}
		}
		if batch%3 == 2 {
			for _, i := range lanes {
				t.AppendLane(window, i)
			}
		} else {
			t.Append(window, lanes)
		}
	}
	return rows
}

func sameValue(a, b types.Value) bool {
	return a.K == b.K && a.Null == b.Null && (a.Null || types.Identical(a, b))
}

// TestTableAppendThenGather is the accumulator's property: whatever was
// appended comes back by row id, for every vector kind, with NULLs
// intact, at every size around the chunk boundaries — and storage that was
// filled once is never moved.
func TestTableAppendThenGather(t *testing.T) {
	for _, n := range []int{0, 1, 40, TableChunk - 1, TableChunk, TableChunk + 1, 3*TableChunk + 7} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			src := sourceCols(n)
			var tab Table
			rows := feed(&tab, src, n)
			if tab.Len() != len(rows) {
				t.Fatalf("Len = %d, want %d", tab.Len(), len(rows))
			}
			if n == 0 {
				if len(tab.Chunks()) != 0 {
					t.Fatal("an empty table allocated a chunk")
				}
				return
			}
			chunks := tab.Chunks()
			if first := cap(chunks[0][0].I); n <= BatchSize && first != n {
				t.Fatalf("first chunk holds %d rows, want the first batch's %d", first, n)
			}
			total := 0
			for ch, chunk := range chunks {
				if held := cap(chunk[0].I); held > TableChunk || (ch > 0 && held != TableChunk) {
					t.Fatalf("chunk %d holds %d rows, want %d", ch, held, TableChunk)
				}
				if ch < len(chunks)-1 && chunk[0].Len() != TableChunk {
					t.Fatalf("chunk %d was left unfilled (%d rows)", ch, chunk[0].Len())
				}
				total += chunk[0].Len()
			}
			if total != len(rows) {
				t.Fatalf("chunks hold %d rows, want %d", total, len(rows))
			}
			if held := cap(chunks[0][0].I); held > 2*len(rows) && held > BatchSize {
				t.Fatalf("%d rows sit in a first chunk grown to %d", len(rows), held)
			}

			// Row ids in order, reversed, and with null extension mixed in.
			ids := make([]int32, 0, BatchSize)
			check := func(ids []int32) {
				for c, k := range tableKinds {
					out := NewBatchVec(k, len(ids))
					out.SetNull(0) // GatherCol must define every null bit
					tab.GatherCol(c, ids, out)
					for o, id := range ids {
						want := types.NewNull(k)
						if id >= 0 {
							want = src[c].Value(rows[id])
						}
						if got := out.Value(o); !sameValue(got, want) {
							t.Fatalf("col %d id %d: got %+v, want %+v", c, id, got, want)
						}
						if id >= 0 {
							cols, lane := tab.At(int(id))
							if got := cols[c].Value(lane); !sameValue(got, want) {
								t.Fatalf("At(%d) col %d: got %+v, want %+v", id, c, got, want)
							}
						}
					}
					out.Free()
				}
			}
			for id := 0; id < len(rows); id++ {
				ids = append(ids, int32(id))
				if len(ids) == BatchSize || id == len(rows)-1 {
					check(ids)
					ids = ids[:0]
				}
			}
			for id := len(rows) - 1; id >= 0; id -= 37 {
				ids = append(ids, int32(id), -1)
				if len(ids) >= BatchSize-1 {
					check(ids)
					ids = ids[:0]
				}
			}
			check(ids)

			// Appending more never moves a chunk that has been filled.
			if len(rows) < TableChunk {
				return
			}
			filled := &tab.Chunks()[0][0].I[0]
			feed(&tab, src, n)
			if got := &tab.Chunks()[0][0].I[0]; got != filled {
				t.Fatal("a filled chunk was reallocated by later appends")
			}
		})
	}
}

// TestTableInitSizesFirstChunk: an operator that knows its row count up
// front gets a first chunk of exactly that size, capped at TableChunk.
func TestTableInitSizesFirstChunk(t *testing.T) {
	src := sourceCols(10)
	for _, tc := range []struct{ rows, want int }{{3, 3}, {0, 1}, {TableChunk * 4, TableChunk}} {
		var tab Table
		tab.Init(tableKinds, tc.rows)
		tab.AppendLane(src, 5)
		if got := cap(tab.Chunks()[0][0].I); got != tc.want {
			t.Fatalf("Init(%d): first chunk holds %d rows, want %d", tc.rows, got, tc.want)
		}
	}
}

func TestAnyInRangeMatchesBits(t *testing.T) {
	b := NewBitmap(200)
	for _, i := range []int{0, 63, 64, 130, 199} {
		b.Set(i)
	}
	for lo := 0; lo <= 200; lo++ {
		for hi := lo; hi <= 210; hi++ {
			want := false
			for i := lo; i < hi && i < 200; i++ {
				want = want || b.Get(i)
			}
			if got := b.AnyInRange(lo, hi); got != want {
				t.Fatalf("AnyInRange(%d, %d) = %v, want %v", lo, hi, got, want)
			}
		}
	}
	if (Bitmap(nil)).AnyInRange(0, 10) {
		t.Fatal("an absent bitmap has no bits set")
	}
}

// TestBoxStridedMatchesValue: the column-at-a-time boxing of the result
// boundary produces exactly what Value does lane by lane, with and
// without a selection vector.
func TestBoxStridedMatchesValue(t *testing.T) {
	const n = 200
	src := sourceCols(n)
	sel := []int{0, 3, 59, 60, 64, 65, 128, 199}
	for _, lanes := range [][]int{nil, sel} {
		rows := n
		if lanes != nil {
			rows = len(lanes)
		}
		width := len(src)
		slab := make([]types.Value, rows*width)
		for c, v := range src {
			v.BoxStrided(slab[c:], width, lanes, rows)
		}
		for r := 0; r < rows; r++ {
			lane := r
			if lanes != nil {
				lane = lanes[r]
			}
			for c, v := range src {
				if got, want := slab[r*width+c], v.Value(lane); !sameValue(got, want) {
					t.Fatalf("row %d col %d: got %+v, want %+v", r, c, got, want)
				}
			}
		}
	}
}

func TestCopyRangeAndLanes(t *testing.T) {
	src := sourceCols(300)
	for c, k := range tableKinds {
		dst := NewVec(k, 300)
		dst.CopyRange(5, src[c], 50, 150)                     // a run crossing word 1
		dst.CopyLanes(110, src[c], []int{0, 61, 64, 65, 299}) // scattered lanes
		dst.CopyLanes(120, src[c], []int{200, 201, 202})      // an unbroken run
		want := map[int]int{110: 0, 111: 61, 112: 64, 113: 65, 114: 299, 120: 200, 121: 201, 122: 202}
		for i := 0; i < 100; i++ {
			want[5+i] = 50 + i
		}
		for at, from := range want {
			if got, w := dst.Value(at), src[c].Value(from); !sameValue(got, w) {
				t.Fatalf("kind %v: dst[%d] = %+v, want src[%d] = %+v", k, at, got, from, w)
			}
		}
	}
}

// TestGatherColTracksNulls: GatherCol skips the null bitmaps of a column
// that never took a NULL, so the table has to notice the first one however
// it arrives — in a later batch, through Append or AppendLane — and a
// negative id must null-extend even in a NULL-free column.
func TestGatherColTracksNulls(t *testing.T) {
	for _, byLane := range []bool{false, true} {
		var tab Table
		clean, late := NewVec(types.KindInt, 300), NewVec(types.KindString, 300)
		for i := 0; i < 300; i++ {
			clean.I[i], late.S[i] = int64(i), fmt.Sprint(i)
		}
		late.SetNull(250)
		lanes := make([]int, 100)
		for lo := 0; lo < 300; lo += 100 {
			for i := range lanes {
				lanes[i] = lo + i
			}
			if byLane {
				for _, i := range lanes {
					tab.AppendLane([]*Vec{clean, late}, i)
				}
			} else {
				tab.Append([]*Vec{clean, late}, lanes)
			}
		}
		ids := []int32{299, 250, -1, 0}
		for c, src := range []*Vec{clean, late} {
			out := NewBatchVec(src.Kind, len(ids))
			out.SetNull(3)
			tab.GatherCol(c, ids, out)
			for o, id := range ids {
				want := types.NewNull(src.Kind)
				if id >= 0 {
					want = src.Value(int(id))
				}
				if got := out.Value(o); !sameValue(got, want) {
					t.Fatalf("byLane=%v col %d id %d: got %+v, want %+v", byLane, c, id, got, want)
				}
			}
		}
	}
}
