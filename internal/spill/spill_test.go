package spill

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perm/internal/types"
	"perm/internal/vector"
)

// buildCols assembles a test batch covering every vectorizable kind,
// with NULLs sprinkled in.
func buildCols(n int) []*vector.Vec {
	ints := vector.NewVec(types.KindInt, n)
	floats := vector.NewVec(types.KindFloat, n)
	bools := vector.NewVec(types.KindBool, n)
	strs := vector.NewVec(types.KindString, n)
	dates := vector.NewVec(types.KindDate, n)
	for i := 0; i < n; i++ {
		ints.I[i] = int64(i * 3)
		floats.F[i] = float64(i) * 0.5
		bools.B[i] = i%2 == 0
		strs.S[i] = string(rune('a'+i%26)) + "xyz"
		dates.I[i] = int64(9000 + i)
		if i%7 == 3 {
			ints.Nulls.Set(i)
			strs.Nulls.Set(i)
		}
	}
	return []*vector.Vec{ints, floats, bools, strs, dates}
}

func TestRunRoundTrip(t *testing.T) {
	run, err := NewRun(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	sizes := []int{1, 64, 100, 1024}
	batches := make([][]*vector.Vec, len(sizes))
	for bi, n := range sizes {
		batches[bi] = buildCols(n)
		if err := run.WriteCols(batches[bi], n); err != nil {
			t.Fatal(err)
		}
	}
	if run.Bytes() <= 0 {
		t.Fatal("run reported zero bytes after writes")
	}
	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	for bi, n := range sizes {
		cols, got, err := run.ReadCols()
		if err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Fatalf("batch %d: %d rows, want %d", bi, got, n)
		}
		for c, v := range cols {
			want := batches[bi][c]
			if v.Kind != want.Kind {
				t.Fatalf("batch %d col %d: kind %v, want %v", bi, c, v.Kind, want.Kind)
			}
			for i := 0; i < n; i++ {
				a, b := v.Value(i), want.Value(i)
				if a.String() != b.String() || a.Null != b.Null {
					t.Fatalf("batch %d col %d row %d: %v != %v", bi, c, i, a, b)
				}
			}
		}
	}
	if cols, n, err := run.ReadCols(); err != nil || cols != nil || n != 0 {
		t.Fatalf("expected clean EOF, got %v rows=%d err=%v", cols, n, err)
	}
}

// rowRunRows is a value of every kind, typed and untyped NULLs, empty,
// long and multi-byte strings, an empty row and the float edge cases.
func rowRunRows() []types.Row {
	return []types.Row{
		{types.NewInt(1), types.NewString("hello"), types.NewBool(true)},
		{types.NewNull(types.KindInt), types.NewString(""), types.NewFloat(-2.5)},
		{types.NewDate(12345), types.NewInterval(2, 10), types.NullValue},
		{},
		{types.NewFloat(math.Copysign(0, -1)), types.NewFloat(math.NaN()), types.NewFloat(math.Inf(-1)),
			types.NewFloat(math.SmallestNonzeroFloat64), types.NewFloat(math.MaxFloat64)},
		{types.NewNull(types.KindString), types.NewString(strings.Repeat("long ", 60)), types.NewString("grüße\x00€")},
	}
}

func TestRowRunRoundTrip(t *testing.T) {
	run, err := NewRowRun(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	rows := rowRunRows()
	for _, r := range rows {
		if err := run.WriteRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	for ri, want := range rows {
		got, err := run.ReadRow()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("row %d: %d cols, want %d", ri, len(got), len(want))
		}
		for i := range want {
			if !types.Identical(got[i], want[i]) {
				t.Fatalf("row %d col %d: %s %v != %s %v", ri, i, got[i].K, got[i], want[i].K, want[i])
			}
		}
	}
	if got, err := run.ReadRow(); err != nil || got != nil {
		t.Fatalf("expected clean EOF, got %v err=%v", got, err)
	}
}

func TestTempFileHygiene(t *testing.T) {
	dir := t.TempDir()
	run, err := NewRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.WriteCols(buildCols(10), 10); err != nil {
		t.Fatal(err)
	}
	// The file is unlinked at creation: the directory must already be
	// empty while the run is still live.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir holds %d entries while run is open (early unlink failed)", len(ents))
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCleanupSweepsLeftovers(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{FilePrefix + "1234", FilePrefix + "abcd"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "keep.txt"), []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	if got := Cleanup(dir); got != 2 {
		t.Fatalf("Cleanup removed %d files, want 2", got)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 || ents[0].Name() != "keep.txt" {
		t.Fatalf("unexpected leftovers after Cleanup: %v", ents)
	}
}

// fakeRun stands in for a run in the merge schedule: the input segments
// it holds, in order, and how often it was closed.
type fakeRun struct {
	segs   []int
	closed int
}

func (r *fakeRun) Close() error { r.closed++; return nil }

// TestReduceSchedule: the schedule keeps segments consecutive and in
// order, leaves at most FanIn runs, writes each segment at most once per
// level, and closes every run it consumed exactly once — also when a
// merge fails at any point.
func TestReduceSchedule(t *testing.T) {
	for _, n := range []int{1, 8, 9, 10, 17, 64, 65, 131, 600} {
		levels := 0
		for r := n; r > FanIn; r = (r + FanIn - 1) / FanIn {
			levels++
		}
		for failAt := 0; failAt <= 3; failAt++ {
			var all []*fakeRun
			runs := make([]*fakeRun, n)
			for i := range runs {
				runs[i] = &fakeRun{segs: []int{i}}
				all = append(all, runs[i])
			}
			merges, written := 0, 0
			merge := func(group []*fakeRun) (*fakeRun, error) {
				merges++
				if merges == failAt {
					return nil, fmt.Errorf("merge %d failed", merges)
				}
				out := &fakeRun{}
				for _, r := range group {
					out.segs = append(out.segs, r.segs...)
				}
				written += len(out.segs)
				all = append(all, out)
				return out, nil
			}
			got, err := Reduce(runs, merge)
			if err != nil {
				for i, r := range all {
					if r.closed != 1 {
						t.Fatalf("n=%d fail at merge %d: run %d closed %d times", n, failAt, i, r.closed)
					}
				}
				continue
			}
			if failAt != 0 && merges >= failAt {
				t.Fatalf("n=%d: merge %d failed but Reduce succeeded", n, failAt)
			}
			if len(got) > FanIn {
				t.Fatalf("n=%d: %d runs left", n, len(got))
			}
			var segs []int
			kept := map[*fakeRun]bool{}
			for _, r := range got {
				segs = append(segs, r.segs...)
				kept[r] = true
			}
			for i, s := range segs {
				if s != i {
					t.Fatalf("n=%d: segment %d at position %d", n, s, i)
				}
			}
			for i, r := range all {
				if want := map[bool]int{true: 0, false: 1}[kept[r]]; r.closed != want {
					t.Fatalf("n=%d: run %d closed %d times, want %d", n, i, r.closed, want)
				}
			}
			if written > levels*n {
				t.Fatalf("n=%d: wrote %d segments in %d levels", n, written, levels)
			}
		}
	}
}
