// Morsel-driven intra-query parallelism. A parallel plan segment is the
// same vectorized subtree planned N times (compiled expressions hold
// per-instance scratch state, so workers can never share one tree); the
// single "driver" columnar scan of every replica works one morsel — a
// small contiguous batch range of the shared columnar snapshot — at a
// time, as the exchange assigns them, while the build sides of the hash
// joins on the probe spine are built once, by worker 0, and probed
// read-only by every replica. Exchange, the one parallel operator,
// emits whole morsels in dispatch order: the serial stream, byte for
// byte. An aggregate or sort above the site runs serially over that
// stream.
//
// Worker 0 is the consumer's own goroutine: N workers are N goroutines
// doing work. It streams the morsel due next straight to the consumer,
// and while that morsel is still with a helper it works a fresh one
// instead of waiting. Helpers, and worker 0 when it works out of order,
// buffer their morsels' output — snapshot views handed over as they are,
// pooled copies of anything else — in a ring of run-ahead slots of at
// most slotBatches batches each: a worker whose slot is full waits
// until the consumer reaches that morsel and then hands it over as a
// stream (worker 0 parks its pipeline inside the morsel instead). So
// buffered output stays bounded in batches however slow the consumer
// and however far a spine join fans a morsel out.
//
// Memory: the shared builds are held under worker 0's reservations, once,
// exactly as in the serial plan. A build that exceeds its budget goes
// Grace in worker 0 — which is then the serial plan — and the exchange
// runs worker 0 alone over the whole snapshot, so no spine join ever
// spills inside a worker.
package vexec

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"perm/internal/fault"
	"perm/internal/obs"
	"perm/internal/vector"
)

// morselRows is the dispatch granularity in rows. It is a multiple of
// vector.BatchSize, so morsel boundaries stay batch- and bitmap-aligned
// (ColScan windows require 64-lane alignment).
const morselRows = 2 * vector.BatchSize

// ParallelMinRows is the smallest driver scan worth parallelizing: below
// two morsels per worker pair the dispatch and hand-off overhead dominates.
const ParallelMinRows = 2 * morselRows

// runAhead is how many morsels past the next one to emit a worker may
// claim (or the worker count, when that is larger): it bounds the
// morsels buffered at once.
const runAhead = 4

// slotBatches bounds the batches one buffered morsel holds. A morsel
// is 2 source batches, but a spine join can fan it out to any number.
const slotBatches = 4

// SpineDriver descends a subtree's streaming probe spine — filter and
// projection inputs, the probe (left) side of joins — to its driver
// columnar scan. Anything else breaks the spine (nil).
func SpineDriver(n Node) *ColScan {
	d, _ := spine(n, false)
	return d
}

// spine is SpineDriver that also collects the spine's hash joins,
// outermost first, when joins is set.
func spine(n Node, joins bool) (*ColScan, []*HashJoin) {
	var js []*HashJoin
	for {
		switch x := n.(type) {
		case *ColScan:
			return x, js
		case *Filter:
			n = x.Input
		case *Project:
			n = x.Input
		case *HashJoin:
			if joins {
				js = append(js, x)
			}
			n = x.Left
		case *NLJoin:
			n = x.Left
		default:
			return nil, nil
		}
	}
}

// held is one buffered batch, detached from the recyclable buffers of the
// worker that produced it. Columns that are the driver scan's windows —
// views of the snapshot, whose arrays never change while the plan runs —
// are handed over as they are; the batch then keeps its selection, and
// its other columns (computed ones, the scan's row ids) are copied whole
// into pooled vectors. A batch without a view is compacted into pooled
// vectors. Helds recycle through a pool, so buffering allocates nothing
// in the steady state.
type held struct {
	batch vector.Batch
	cols  []*vector.Vec
	views []vector.Vec // the handed-over window structs
	sel   []int
}

var heldPool = sync.Pool{New: func() any { return new(held) }}

// hold detaches a batch worker driver d's pipeline emitted.
func hold(d *ColScan, b *vector.Batch) *held {
	h := heldPool.Get().(*held)
	n := len(b.Cols)
	if cap(h.cols) < n {
		h.cols, h.views = make([]*vector.Vec, n), make([]vector.Vec, n)
	}
	h.cols, h.views = h.cols[:n], h.views[:n]
	if !slices.ContainsFunc(b.Cols, d.view) {
		lanes := resolveSel(b, b.Sel)
		for j, c := range b.Cols {
			h.cols[j] = vector.NewBatchVec(c.Kind, len(lanes))
			h.cols[j].CopyLanes(0, c, lanes)
		}
		h.batch = vector.Batch{N: len(lanes), Cols: h.cols}
		return h
	}
	for j, c := range b.Cols {
		if d.view(c) {
			h.views[j] = *c
			h.cols[j] = &h.views[j]
		} else {
			h.cols[j] = vector.NewBatchVec(c.Kind, b.N)
			h.cols[j].CopyRange(0, c, 0, b.N)
		}
	}
	h.batch = vector.Batch{N: b.N, Cols: h.cols}
	if b.Sel != nil {
		h.sel = append(h.sel[:0], b.Sel...)
		h.batch.Sel = h.sel
	}
	return h
}

// release frees a held batch's copies (Free passes over the views) and
// returns it to the pool. Nil-safe.
func (h *held) release() {
	if h == nil {
		return
	}
	for _, v := range h.cols {
		v.Free()
	}
	clear(h.cols)
	clear(h.views) // drop the snapshot references
	h.batch = vector.Batch{}
	heldPool.Put(h)
}

// morsel is one ring slot: the buffered output of a morsel a helper, or
// worker 0 working ahead, claimed — at most slotBatches batches not yet
// emitted, oldest first — and how the morsel ended. Guarded by the
// exchange's mu.
type morsel struct {
	batches []*held
	pos     int   // next batch to emit
	err     error // what ended the morsel early
	done    bool
	// parked: worker 0 stopped buffering the morsel at the slot bound.
	// Its pipeline still stands inside the morsel and streams the rest
	// of it once the morsel is due.
	parked bool
}

// pop takes the slot's next batch (nil when it holds none), reusing the
// slice once it is drained.
func (m *morsel) pop() *held {
	if m.pos == len(m.batches) {
		return nil
	}
	h := m.batches[m.pos]
	m.batches[m.pos] = nil
	if m.pos++; m.pos == len(m.batches) {
		m.batches, m.pos = m.batches[:0], 0
	}
	return h
}

// pending is the number of batches the slot holds.
func (m *morsel) pending() int { return len(m.batches) - m.pos }

// free releases the slot's unemitted batches.
func (m *morsel) free() {
	for h := m.pop(); h != nil; h = m.pop() {
		h.release()
	}
}

// Exchange runs N replicated pipelines over the morsels of one snapshot
// and emits their output in morsel order, reproducing the serial plan's
// stream byte for byte. A worker's error ends its morsel and surfaces
// exactly when the serial plan would have reached it: after every
// earlier morsel's rows.
type Exchange struct {
	obs.Card
	// Workers are the replica roots. Workers[0] runs on the consumer's
	// goroutine and owns the shared builds of the spine's hash joins.
	Workers []Node
	// AQ, when set, receives per-morsel progress for the active-query
	// registry (perm_stat_activity's morsels claimed/total columns).
	AQ *obs.ActiveQuery

	drivers []*ColScan
	builds  []*HashJoin // worker 0's spine joins
	total   int64       // morsels in one pass over the snapshot
	rows    int
	window  int64

	// Shared with the helpers, under mu.
	mu       sync.Mutex
	cond     sync.Cond
	ring     []morsel // morsel m sits in ring[m % window] while in flight
	claimed  int64    // morsels handed out so far
	emitted  int64    // the next morsel to emit: the due one
	failed   error    // a helper's Open failure
	buffered int      // morsels claimed for buffering and not yet emitted
	peak     int
	held     int // batches buffered in the ring
	heldPeak int
	counts   []int // morsels worked, per worker

	helpers sync.WaitGroup
	// quit is set by Close, under mu: helpers stop claiming and abandon
	// the morsel they are on.
	quit atomic.Bool

	// The consumer's own state.
	serial    bool  // a shared build spilled: worker 0 runs the serial plan
	streaming bool  // worker 0 is producing the due morsel straight out
	parked    bool  // worker 0's pipeline stands in a parked morsel
	dead0     bool  // worker 0 failed; its error sits in its morsel
	done      bool  // the stream ended
	out       *held // buffered batch last emitted, released on the next call
	err       error
	open      bool
}

// NewExchange builds an exchange over replicated subtree roots. Each
// replica's spine hash joins are wired to share worker 0's build, and
// each driver scan's runtime-filter bindings to worker 0's filters, the
// ones its builds publish.
func NewExchange(workers []Node) *Exchange {
	e := &Exchange{Workers: workers, counts: make([]int, len(workers))}
	e.cond.L = &e.mu
	e.window = int64(max(runAhead, len(workers)))
	e.ring = make([]morsel, e.window)
	for i, w := range workers {
		d, joins := spine(w, true)
		e.drivers = append(e.drivers, d)
		if i == 0 {
			e.builds = joins
			e.rows = d.NumRows
			e.total = int64((d.NumRows + morselRows - 1) / morselRows)
			continue
		}
		for k, j := range joins {
			j.owner = e.builds[k]
		}
		d0 := e.drivers[0]
		if len(d.rfs) == len(d0.rfs) {
			for k := range d.rfs {
				d.rfs[k].rf = d0.rfs[k].rf
			}
		}
	}
	return e
}

// Morsels returns how many morsels one full pass over the snapshot
// dispatches.
func (e *Exchange) Morsels() int64 { return e.total }

// WorkerMorsels returns the morsels each worker worked in the last run,
// the consumer's worker first, and the most morsels and batches ever
// buffered at once. Read it only after Close.
func (e *Exchange) WorkerMorsels() (counts []int, peakMorsels, peakBatches int) {
	return e.counts, e.peak, e.heldPeak
}

// SharedBuilds returns worker 0's spine hash joins, whose build sides
// every worker probes: each runs once per execution, on the consumer's
// goroutine.
func (e *Exchange) SharedBuilds() []*HashJoin { return e.builds }

// Serial reports whether the last run degraded to worker 0 alone because
// a shared build spilled.
func (e *Exchange) Serial() bool { return e.serial }

func (e *Exchange) Open() error {
	e.claimed, e.emitted, e.failed = 0, 0, nil
	e.buffered, e.peak, e.held, e.heldPeak = 0, 0, 0, 0
	clear(e.counts)
	e.quit.Store(false)
	e.serial, e.streaming, e.parked, e.dead0, e.done = false, false, false, false, false
	e.out, e.err = nil, nil
	// Worker 0 opens first, on this goroutine: that builds every shared
	// build side (and publishes its runtime filters) before any helper
	// starts, so the helpers' joins find them complete.
	if err := e.openWorker(0); err != nil {
		return err
	}
	e.open = true
	for _, j := range e.builds {
		if j.Spilled() {
			// The Grace join drained the whole probe side during Open;
			// worker 0 is now the serial plan.
			e.serial, e.streaming = true, true
			return nil
		}
	}
	for i := 1; i < len(e.Workers); i++ {
		e.helpers.Add(1)
		go e.help(i)
	}
	return nil
}

// help is a helper worker's loop: claim a morsel, buffer its output,
// repeat until the snapshot is exhausted, the exchange closes or the
// worker fails.
func (e *Exchange) help(i int) {
	defer e.helpers.Done()
	if err := e.openWorker(i); err != nil {
		e.mu.Lock()
		if e.failed == nil {
			e.failed = err
		}
		e.cond.Broadcast()
		e.mu.Unlock()
		return
	}
	// A failed worker's subtree may be left inconsistent: close it under
	// a guard, so its cleanup can neither mask the original error nor
	// take the process down with a secondary crash.
	defer closeQuietly(e.Workers[i])
	for {
		m, slot := e.claimWait(i)
		if slot == nil {
			return
		}
		_, err := e.fill(i, m, slot)
		e.mu.Lock()
		slot.err, slot.done = err, true
		e.cond.Broadcast()
		e.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// openWorker opens worker i's replica, turning a panic into an error. A
// failed Open never sees a matching Close (the engine-wide convention):
// the subtree unwinds itself, and one a panic cut short is closed here,
// so that its reservations and spill files are released.
func (e *Exchange) openWorker(i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = workerPanic(p)
			closeQuietly(e.Workers[i])
		}
	}()
	return e.Workers[i].Open()
}

// pull returns worker i's next batch of its current morsel, turning a
// panic into an error.
func (e *Exchange) pull(i int) (b *vector.Batch, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = workerPanic(p)
		}
	}()
	if err := fault.Failure(fault.PointWorkerPanic); err != nil {
		panic(err)
	}
	return e.Workers[i].Next()
}

func workerPanic(p any) error {
	obs.PanicsRecovered.Inc()
	obs.Events.Record(obs.EventPanicRecovered, "", "", fmt.Sprintf("parallel worker panicked: %v", p))
	return fmt.Errorf("parallel worker panicked: %v", p)
}

// closeQuietly closes a worker subtree swallowing both errors and
// panics.
func closeQuietly(n Node) {
	defer func() { _ = recover() }()
	n.Close() //nolint:errcheck — worker-local unwinding
}

// claimLocked hands morsel claimed to worker i (mu held) and returns it
// with its ring slot; buffer marks a morsel whose output will be
// buffered rather than streamed.
func (e *Exchange) claimLocked(i int, buffer bool) (int64, *morsel) {
	m := e.claimed
	e.claimed++
	slot := &e.ring[m%e.window]
	slot.batches, slot.pos, slot.err, slot.done, slot.parked = slot.batches[:0], 0, nil, false, false
	e.counts[i]++
	if buffer {
		e.buffered++
		e.peak = max(e.peak, e.buffered)
	}
	obs.MorselsDispatched.Inc()
	e.AQ.MorselClaimed()
	return m, slot
}

// claimWait claims the next morsel for helper i, waiting while the
// run-ahead window is full. A nil slot means the exchange stopped or
// the snapshot is exhausted.
func (e *Exchange) claimWait(i int) (int64, *morsel) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for !e.quit.Load() && e.claimed < e.total && e.claimed >= e.emitted+e.window {
		e.cond.Wait()
	}
	if e.quit.Load() || e.claimed >= e.total {
		return 0, nil
	}
	return e.claimLocked(i, true)
}

// fill runs worker i over morsel m, buffering its output in slot, and
// turns a panic anywhere in that work into the morsel's error. A helper
// whose slot holds slotBatches batches waits until the consumer takes
// one, so a morsel the consumer has reached is handed over as a stream.
// Worker 0 is that consumer and cannot wait for itself: it parks the
// morsel instead.
func (e *Exchange) fill(i int, m int64, slot *morsel) (parked bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			parked, err = false, workerPanic(p)
		}
	}()
	e.setMorsel(i, m)
	for !e.quit.Load() {
		b, err := e.pull(i)
		if err != nil || b == nil {
			return false, err
		}
		h := hold(e.drivers[i], b)
		e.mu.Lock()
		slot.batches = append(slot.batches, h)
		e.held++
		e.heldPeak = max(e.heldPeak, e.held)
		e.cond.Broadcast()
		if i == 0 && slot.pending() >= slotBatches {
			e.mu.Unlock()
			return true, nil
		}
		for slot.pending() >= slotBatches && !e.quit.Load() {
			e.cond.Wait()
		}
		e.mu.Unlock()
	}
	return false, nil
}

// setMorsel points worker i's driver scan at morsel m's rows.
func (e *Exchange) setMorsel(i int, m int64) {
	lo := int(m) * morselRows
	e.drivers[i].SetMorsel(lo, min(lo+morselRows, e.rows))
}

func (e *Exchange) Next() (*vector.Batch, error) {
	e.out.release()
	e.out = nil
	for e.err == nil && !e.done {
		if !e.streaming {
			b, err := e.step()
			if b != nil || err != nil {
				e.err = err
				return b, err
			}
			continue
		}
		b, err := e.pull(0)
		switch {
		case err != nil:
			e.err, e.dead0 = err, true
		case b != nil:
			return b, nil
		case e.serial:
			e.done = true
		default:
			e.streaming = false
			e.mu.Lock()
			e.emitted++
			e.cond.Broadcast()
			e.mu.Unlock()
		}
	}
	return nil, e.err
}

// step takes the consumer's next step and returns the batch it emits, if
// any. The due morsel is streamed by worker 0 when nobody has claimed it
// yet, and taken batch by batch from its slot otherwise. While a helper
// still works the due morsel and its slot is empty, worker 0 works a
// fresh morsel instead of waiting; it waits only when the run-ahead
// window is full or its own pipeline is parked or failed.
func (e *Exchange) step() (*vector.Batch, error) {
	e.mu.Lock()
	for {
		if err := e.failed; err != nil {
			e.mu.Unlock()
			return nil, err
		}
		if e.emitted >= e.total {
			e.mu.Unlock()
			e.done = true
			return nil, nil
		}
		if e.emitted == e.claimed {
			m, _ := e.claimLocked(0, false)
			e.mu.Unlock()
			e.setMorsel(0, m)
			e.streaming = true
			return nil, nil
		}
		slot := &e.ring[e.emitted%e.window]
		if h := slot.pop(); h != nil {
			e.held--
			e.cond.Broadcast() // its helper may be waiting for room
			e.mu.Unlock()
			e.out = h
			return &h.batch, nil
		}
		switch {
		case slot.done && slot.err != nil:
			err := slot.err
			e.mu.Unlock()
			return nil, err
		case slot.done:
			e.emitted++
			e.buffered--
			e.cond.Broadcast()
			continue
		case slot.parked:
			slot.parked, e.parked = false, false
			e.buffered--
			e.mu.Unlock()
			e.streaming = true
			return nil, nil
		case !e.dead0 && !e.parked && e.claimed < e.total && e.claimed < e.emitted+e.window:
			m, own := e.claimLocked(0, true)
			e.mu.Unlock()
			parked, err := e.fill(0, m, own)
			e.mu.Lock()
			own.err, own.done, own.parked = err, !parked, parked
			e.parked, e.dead0 = parked, err != nil
			continue
		}
		e.cond.Wait()
	}
}

func (e *Exchange) Close() error {
	if !e.open {
		return nil
	}
	e.open = false
	e.mu.Lock()
	e.quit.Store(true)
	e.cond.Broadcast()
	e.mu.Unlock()
	e.helpers.Wait()
	e.out.release()
	e.out = nil
	for i := range e.ring {
		e.ring[i].free()
	}
	// Worker 0 closes last: the helpers probed its builds.
	if e.dead0 {
		closeQuietly(e.Workers[0])
		return nil
	}
	return e.Workers[0].Close()
}
