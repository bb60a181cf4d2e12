package spill

import (
	"testing"
	"unsafe"

	"perm/internal/types"
	"perm/internal/vector"
)

// runOf returns a finished run whose file holds exactly data.
func runOf(t *testing.T, data []byte) *Run {
	t.Helper()
	run, err := NewRun("")
	if err != nil {
		t.Fatal(err)
	}
	if err := run.t.write(data); err != nil {
		t.Fatal(err)
	}
	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	return run
}

// goldenRun encodes two batches covering every kind, with and without
// NULLs, and returns the bytes a run file would hold.
func goldenRun(t testing.TB) []byte {
	run, err := NewRun("")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	var golden []byte
	for _, n := range []int{3, 70} {
		cols := buildCols(n)
		if n == 3 {
			for _, c := range cols {
				c.ClearNulls()
			}
		}
		if err := run.WriteCols(cols, n); err != nil {
			t.Fatal(err)
		}
		golden = append(golden, run.buf...)
	}
	return golden
}

type batch struct {
	cols []*vector.Vec
	n    int
}

// readAll decodes a run to its end or first error, checking the shape of
// every batch, and returns the batches with the bytes they occupy.
func readAll(t *testing.T, run *Run) (batches []batch, held int) {
	t.Helper()
	for {
		cols, n, err := run.ReadCols()
		if err != nil || n == 0 {
			return batches, held + cap(run.buf)
		}
		held += 8 * cap(cols)
		for c, v := range cols {
			if !vector.Supported(v.Kind) || v.Len() != n {
				t.Fatalf("column %d: kind %v with %d rows in a batch of %d", c, v.Kind, v.Len(), n)
			}
			held += int(unsafe.Sizeof(*v)) + 8*cap(v.Nulls) + 8*cap(v.I) + 8*cap(v.F) + cap(v.B) + 16*cap(v.S)
			for _, s := range v.S { // cut from one allocation per column
				held += len(s)
			}
		}
		batches = append(batches, batch{cols, n})
	}
}

// FuzzReadCols feeds the column-batch reader arbitrary bytes, as a spill
// file damaged on disk would: it must not panic, must not allocate more
// than a fixed multiple of what it was given (a length field is checked
// against the bytes left before anything is allocated for it), and
// whatever it does decode must survive WriteCols → ReadCols unchanged.
func FuzzReadCols(f *testing.F) {
	golden := goldenRun(f)
	for cut := 0; cut <= len(golden); cut++ {
		f.Add(golden[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		run := runOf(t, data)
		batches, held := readAll(t, run)
		run.Close()
		if limit := 64*len(data) + 4096; held > limit {
			t.Fatalf("%d bytes of input made the reader hold %d bytes (limit %d)", len(data), held, limit)
		}
		if len(batches) == 0 {
			return
		}
		again, err := NewRun("")
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		for _, b := range batches {
			if err := again.WriteCols(b.cols, b.n); err != nil {
				t.Fatal(err)
			}
		}
		if err := again.Finish(); err != nil {
			t.Fatal(err)
		}
		back, _ := readAll(t, again)
		if len(back) != len(batches) {
			t.Fatalf("round trip returned %d batches, want %d", len(back), len(batches))
		}
		for bi, b := range batches {
			for c, v := range b.cols {
				for i := 0; i < b.n; i++ {
					got, want := back[bi].cols[c].Value(i), v.Value(i)
					if got.K != want.K || got.Null != want.Null || (!want.Null && got.String() != want.String()) {
						t.Fatalf("batch %d col %d row %d: %v came back as %v", bi, c, i, want, got)
					}
				}
			}
		}
	})
}

// TestReadColsRejectsOversizedLengths: each length field of the format,
// set far beyond the bytes that follow, is an error, not an allocation.
func TestReadColsRejectsOversizedLengths(t *testing.T) {
	golden := goldenRun(t)
	le32 := func(at int, v uint32) []byte {
		out := append([]byte(nil), golden...)
		out[at], out[at+1], out[at+2], out[at+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		return out
	}
	for name, data := range map[string][]byte{
		"batch size":    le32(0, 1<<31),
		"row count":     le32(4, 1<<30),
		"column count":  append(append([]byte(nil), golden[:8]...), 0xff, 0xff),
		"string length": le32(4+6+2+8*3+2+8*3+2+3+2, 1<<30), // first length of the string column
	} {
		run := runOf(t, data)
		if cols, n, err := run.ReadCols(); err == nil {
			t.Errorf("%s: decoded %d rows in %d columns from a corrupt batch", name, n, len(cols))
		}
		run.Close()
	}
	// The golden bytes themselves decode.
	run := runOf(t, golden)
	defer run.Close()
	if batches, _ := readAll(t, run); len(batches) != 2 || batches[0].n != 3 || batches[1].n != 70 {
		t.Fatalf("golden run decoded to %d batches", len(batches))
	}
}

// rowRunOf returns a finished row run whose file holds exactly data.
func rowRunOf(t *testing.T, data []byte) *RowRun {
	t.Helper()
	run, err := NewRowRun("")
	if err != nil {
		t.Fatal(err)
	}
	if err := run.t.write(data); err != nil {
		t.Fatal(err)
	}
	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	return run
}

// readRows decodes a row run to its end or first error.
func readRows(run *RowRun) []types.Row {
	var rows []types.Row
	for {
		row, err := run.ReadRow()
		if err != nil || row == nil {
			return rows
		}
		rows = append(rows, row)
	}
}

// FuzzReadRow feeds the row-run reader arbitrary bytes: it must not
// panic, and whatever rows it decodes must survive WriteRow → ReadRow
// identical, string bytes included.
func FuzzReadRow(f *testing.F) {
	run, err := NewRowRun("")
	if err != nil {
		f.Fatal(err)
	}
	var golden []byte
	for _, row := range rowRunRows() {
		if err := run.WriteRow(row); err != nil {
			f.Fatal(err)
		}
		golden = append(golden, run.buf...)
	}
	run.Close()
	for cut := 0; cut <= len(golden); cut++ {
		f.Add(golden[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		run := rowRunOf(t, data)
		rows := readRows(run)
		run.Close()
		if len(rows) == 0 {
			return
		}
		again, err := NewRowRun("")
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		for _, row := range rows {
			if err := again.WriteRow(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := again.Finish(); err != nil {
			t.Fatal(err)
		}
		back := readRows(again)
		if len(back) != len(rows) {
			t.Fatalf("round trip returned %d rows, want %d", len(back), len(rows))
		}
		for ri, row := range rows {
			if len(back[ri]) != len(row) {
				t.Fatalf("row %d: %d values came back as %d", ri, len(row), len(back[ri]))
			}
			for i, v := range row {
				if !types.Identical(back[ri][i], v) {
					t.Fatalf("row %d value %d: %s %v came back as %s %v", ri, i, v.K, v, back[ri][i].K, back[ri][i])
				}
			}
		}
	})
}

// TestReadRowRejectsCorruption: an unknown kind and a string length
// beyond the run are errors, not a value or an allocation.
func TestReadRowRejectsCorruption(t *testing.T) {
	run, err := NewRowRun("")
	if err != nil {
		t.Fatal(err)
	}
	if err := run.WriteRow(rowRunRows()[0]); err != nil { // u16 3, int, string at 14, bool
		t.Fatal(err)
	}
	golden := append([]byte(nil), run.buf...)
	run.Close()
	for name, corrupt := range map[string]func([]byte){
		"kind":          func(b []byte) { b[2] = 0x7f },
		"string length": func(b []byte) { b[16], b[17] = 0xff, 0x7f },
	} {
		data := append([]byte(nil), golden...)
		corrupt(data)
		run := rowRunOf(t, data)
		if row, err := run.ReadRow(); err == nil {
			t.Errorf("%s: decoded %v from a corrupt row", name, row)
		}
		run.Close()
	}
	run = rowRunOf(t, golden)
	defer run.Close()
	if rows := readRows(run); len(rows) != 1 || rows[0][1].Str() != "hello" {
		t.Fatalf("golden row decoded to %v", rows)
	}
}
