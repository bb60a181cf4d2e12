package vexec

import (
	"fmt"
	"testing"

	"perm/internal/algebra"
	"perm/internal/mem"
	"perm/internal/spill"
	"perm/internal/types"
	"perm/internal/vector"
)

// heldBytes is what a table's chunks occupy: the full capacity of every
// column vector and bitmap, and the bytes of the strings stored so far.
func heldBytes(t *vector.Table) int64 {
	var n int64
	for _, chunk := range t.Chunks() {
		for _, v := range chunk {
			n += int64(8*cap(v.I) + 8*cap(v.F) + cap(v.B) + 16*cap(v.S) + 8*cap(v.Nulls))
			for _, s := range v.S {
				n += int64(len(s))
			}
		}
	}
	return n
}

// watchInput runs check after every batch its input hands up, that is,
// after the operator above has absorbed the batch before.
type watchInput struct {
	Node
	check func()
}

func (w *watchInput) Next() (*vector.Batch, error) {
	w.check()
	return w.Node.Next()
}

// TestSortHoldsWhatItReserved: under a memory limit a sort reserves the
// size of every batch it accumulates, and what its table actually holds
// stays within one chunk of that — the unfilled tail of the last chunk is
// the only storage not yet paid for. (Columns that doubled on append held
// up to twice their reservation.)
func TestSortHoldsWhatItReserved(t *testing.T) {
	const rows = 40000
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool}
	data := make([]types.Row, rows)
	for i := range data {
		data[i] = types.Row{
			types.NewInt(int64(i % 97)), types.NewFloat(float64(i)),
			types.NewString(fmt.Sprintf("payload-%06d", i)), types.NewBool(i%2 == 0),
		}
	}
	cols, ok := vector.FromRows(data, kinds)
	if !ok {
		t.Fatal("rows do not pivot")
	}
	// One chunk of this schema: fixed widths, string headers, bitmaps.
	const chunkBytes = vector.TableChunk * (8 + 8 + 16 + 1 + 4*1.0/8)

	budget := mem.NewGovernor(0).Session(1 << 20) // a fraction of the input: the sort spills
	sort := NewVecSort(nil, []algebra.SortKey{{Pos: 0}})
	sort.Spill = spill.Resources{Res: budget.Reserve("sort"), Dir: t.TempDir()}
	var worst, peakHeld int64
	sort.Input = &watchInput{Node: NewColScan(cols, rows), check: func() {
		held := heldBytes(&sort.acc)
		if held > peakHeld {
			peakHeld = held
		}
		if over := held - sort.accBytes; over > worst {
			worst = over
		}
	}}
	if err := sort.Open(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		b, err := sort.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		n += b.Live()
	}
	if err := sort.Close(); err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("sorted %d rows, want %d", n, rows)
	}
	if budget.Stats().SpillEvents == 0 {
		t.Fatal("the sort never spilled: the budget is not exercised")
	}
	if peakHeld < 2*chunkBytes {
		t.Fatalf("the table never held more than %d bytes: the bound is not exercised", peakHeld)
	}
	if worst > chunkBytes {
		t.Fatalf("the table held %d bytes more than the sort had reserved; one chunk is %d", worst, int64(chunkBytes))
	}
	t.Logf("peak %d bytes held, at most %d beyond the reservation (one chunk: %d)", peakHeld, worst, int64(chunkBytes))
}
