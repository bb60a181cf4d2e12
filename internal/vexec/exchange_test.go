package vexec

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"perm/internal/algebra"
	"perm/internal/fault"
	"perm/internal/types"
	"perm/internal/vector"
)

// exchangeOver builds an exchange of workers replicas of
// Filter(a % 3 = 0) over one shared snapshot of morsels morsels.
func exchangeOver(t *testing.T, workers, morsels int) *Exchange {
	t.Helper()
	n := morsels * morselRows
	a := seqVec(n)
	v := &algebra.Var{Col: 0, Typ: types.KindInt}
	pred := cmp("=", bin("%", types.KindInt, v, intLit(3)), intLit(0))
	replicas := make([]Node, workers)
	for w := range replicas {
		e, err := CompileExpr(pred, colBinder{})
		if err != nil {
			t.Fatal(err)
		}
		replicas[w] = NewFilter(NewColScan([]*vector.Vec{a}, n), e)
	}
	return NewExchange(replicas)
}

// seqVec returns the int column 0, 1, ..., n-1.
func seqVec(n int) *vector.Vec {
	a := vector.NewVec(types.KindInt, n)
	for i := range a.I {
		a.I[i] = int64(i)
	}
	return a
}

// waitFor polls cond under the exchange's lock until it holds.
func waitFor(t *testing.T, e *Exchange, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		e.mu.Lock()
		ok := cond()
		e.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// settleGoroutines fails the test unless the goroutine count falls back
// to before within a grace period.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Close", before, runtime.NumGoroutine())
		}
	}
}

// TestExchangeHelperPanic: a panic in a helper — the first pull of the
// query, made before the consumer asks for anything — ends the morsel the
// helper claimed (morsel 0) with the panic's error, which the consumer
// then reports before any row; Close leaves no goroutine and no buffered
// morsel behind.
func TestExchangeHelperPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	inj, err := fault.New("worker.panic:1")
	if err != nil {
		t.Fatal(err)
	}
	defer fault.Set(inj)()
	e := exchangeOver(t, 2, 8)
	if err := e.Open(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, e, "the helper failed morsel 0", func() bool { return e.ring[0].done })
	if e.ring[0].err == nil || e.counts[1] != 1 {
		t.Fatalf("morsel 0 done without the helper's panic: err=%v counts=%v", e.ring[0].err, e.counts)
	}
	b, err := e.Next()
	if b != nil || err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Next = %v, %v; want the helper's panic before any row", b, err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, before)
	for i := range e.ring {
		if len(e.ring[i].batches) != 0 {
			t.Fatalf("ring slot %d still holds %d batches after Close", i, len(e.ring[i].batches))
		}
	}
}

// TestExchangeCloseFreesBufferedMorsels: while the consumer sits on its
// first batch, the workers fill the run-ahead window and stop there —
// every morsel buffered but the one the consumer streams, if it claimed
// morsel 0 before the helper did; Close mid-stream stops the helper and
// frees every buffered morsel.
func TestExchangeCloseFreesBufferedMorsels(t *testing.T) {
	before := runtime.NumGoroutine()
	e := exchangeOver(t, 2, 16)
	if err := e.Open(); err != nil {
		t.Fatal(err)
	}
	if b, err := e.Next(); b == nil || err != nil {
		t.Fatalf("first batch: %v, %v", b, err)
	}
	full := func() bool {
		if e.claimed != e.emitted+e.window {
			return false
		}
		for m := e.emitted + 1; m < e.claimed; m++ {
			if !e.ring[m%e.window].done {
				return false
			}
		}
		return true
	}
	waitFor(t, e, "the helper filled the window", full)
	time.Sleep(10 * time.Millisecond) // a helper past the bound would claim more now
	e.mu.Lock()
	claimed, buffered := e.claimed, e.buffered
	e.mu.Unlock()
	if claimed != e.window || buffered < int(e.window)-1 {
		t.Fatalf("claimed %d morsels, %d buffered; want the window of %d, all but a streamed one buffered",
			claimed, buffered, e.window)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, before)
	for i := range e.ring {
		if len(e.ring[i].batches) != 0 {
			t.Fatalf("ring slot %d still holds %d batches after Close", i, len(e.ring[i].batches))
		}
	}
	if counts, peak, _ := e.WorkerMorsels(); counts[0]+counts[1] != int(e.window) || peak != buffered {
		t.Fatalf("morsels/worker=%v buffered_peak=%d, want %d morsels and a peak of %d", counts, peak, e.window, buffered)
	}
}

// TestExchangeFanOutStaysBounded: behind a cross join that fans every
// 2-batch morsel out to 32 batches, a consumer that stalls after its
// first batch leaves the helpers waiting at the slot bound instead of
// buffering whole morsels, and the stream is still the serial plan's.
func TestExchangeFanOutStaysBounded(t *testing.T) {
	const morsels, fan = 8, 16
	before := runtime.NumGoroutine()
	n := morsels * morselRows
	a, b := seqVec(n), seqVec(fan)
	kinds := []types.Kind{types.KindInt}
	cross := func() Node {
		return NewNLJoin(NewColScan([]*vector.Vec{a}, n), NewColScan([]*vector.Vec{b}, fan), nil, algebra.JoinInner, kinds, kinds)
	}
	drain := func(root Node, stall time.Duration) [][2]int64 {
		t.Helper()
		var pairs [][2]int64
		for {
			bt, err := root.Next()
			if err != nil {
				t.Fatal(err)
			}
			if bt == nil {
				return pairs
			}
			for _, l := range resolveSel(bt, bt.Sel) {
				pairs = append(pairs, [2]int64{bt.Cols[0].I[l], bt.Cols[1].I[l]})
			}
			time.Sleep(stall)
			stall = 0
		}
	}
	serial := cross()
	if err := serial.Open(); err != nil {
		t.Fatal(err)
	}
	want := drain(serial, 0)
	if err := serial.Close(); err != nil {
		t.Fatal(err)
	}

	e := NewExchange([]Node{cross(), cross(), cross()})
	if err := e.Open(); err != nil {
		t.Fatal(err)
	}
	// Unbounded helpers would buffer 4 whole morsels, 128 batches,
	// during the stall.
	got := drain(e, 50*time.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, before)
	if len(got) != n*fan || !slices.Equal(got, want) {
		t.Fatalf("parallel cross join emitted %d pairs, want the serial plan's %d in its order", len(got), len(want))
	}
	if _, _, peak := e.WorkerMorsels(); peak < 1 || peak > int(e.window)*slotBatches {
		t.Fatalf("buffered at most %d batches; want 1..%d (%d slots of %d)", peak, int(e.window)*slotBatches, e.window, slotBatches)
	}
}

// panicOpen is a build side whose Open panics.
type panicOpen struct{}

func (panicOpen) Open() error                  { panic("build side failed") }
func (panicOpen) Next() (*vector.Batch, error) { return nil, nil }
func (panicOpen) Close() error                 { return nil }

// TestExchangeBuildPanic: a panic while worker 0 builds the shared hash
// join — during Open, on the caller's goroutine — fails Open with an
// error rather than taking the process down, and starts no helper.
func TestExchangeBuildPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	n := 4 * morselRows
	a := seqVec(n)
	kinds := []types.Kind{types.KindInt}
	key := func() []*Expr {
		k, err := CompileExpr(&algebra.Var{Col: 0, Typ: types.KindInt}, colBinder{})
		if err != nil {
			t.Fatal(err)
		}
		return []*Expr{k}
	}
	replicas := make([]Node, 2)
	for w := range replicas {
		replicas[w] = NewHashJoin(NewColScan([]*vector.Vec{a}, n), panicOpen{}, key(), key(), []bool{false}, algebra.JoinInner, kinds, kinds)
	}
	e := NewExchange(replicas)
	if err := e.Open(); err == nil || !strings.Contains(err.Error(), "panicked: build side failed") {
		t.Fatalf("Open = %v; want the build's panic as an error", err)
	}
	settleGoroutines(t, before)
}
