// Morsel-driven intra-query parallelism. A parallel plan segment is the
// same vectorized subtree planned N times (compiled expressions hold
// per-instance scratch state, so workers can never share one tree); the
// single "driver" columnar scan of every replica draws morsels — small
// contiguous batch ranges of the shared columnar snapshot — from one
// atomic dispatcher, while every other scan in the replica (join build
// sides, subquery inputs) reads its snapshot in full. Worker outputs
// carry a sequence tag derived from (morsel, position), and Exchange, the
// one parallel operator, streams copied worker batches through channels
// and emits them in tag order: the serial stream, byte for byte. An
// aggregate or sort above the site runs serially over that stream.
//
// Memory: every replica is planned with its own spill reservations
// against the session budget, so parallelism composes with spill instead
// of multiplying the footprint. Pooling: batches cross goroutines only
// through Exchange, which copies live lanes into pooled vectors it frees
// once its consumer has moved on; everything else inside a worker keeps
// the usual single-goroutine consumer-abandons-before-Next discipline.
package vexec

import (
	"fmt"
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
// two morsels per worker pair the dispatch and merge overhead dominates.
const ParallelMinRows = 2 * morselRows

// seqShift splits a sequence tag into morsel number (high bits) and
// position within the morsel's output stream (low 40 bits; a morsel is
// at most 2048 source rows, so even a join fan-out of half a billion per
// source row cannot overflow the field).
const seqShift = 40

// Morsels hands out contiguous row ranges of a shared columnar snapshot
// to competing worker scans. grab is a single atomic increment, so the
// dispatcher itself never becomes a contention point.
type Morsels struct {
	Rows int
	next atomic.Int64

	// AQ, when set, receives per-morsel progress for the active-query
	// registry (perm_stat_activity's morsels claimed/total columns).
	AQ *obs.ActiveQuery
}

// Total returns how many morsels one full pass over the snapshot
// dispatches.
func (m *Morsels) Total() int64 {
	return int64((m.Rows + morselRows - 1) / morselRows)
}

// NewMorsels returns a dispatcher over a snapshot of rows rows.
func NewMorsels(rows int) *Morsels { return &Morsels{Rows: rows} }

// Reset rewinds the dispatcher (called by the exchange's Open, before
// worker goroutines start).
func (m *Morsels) Reset() { m.next.Store(0) }

// grab claims the next morsel, clamped to limit (the claiming scan's own
// row count — a belt-and-suspenders guard should a replica ever see a
// different snapshot). ok=false means the snapshot is exhausted.
func (m *Morsels) grab(limit int) (seq int64, lo, hi int, ok bool) {
	if limit > m.Rows {
		limit = m.Rows
	}
	s := m.next.Add(1) - 1
	lo = int(s) * morselRows
	if lo >= limit {
		return 0, 0, 0, false
	}
	hi = lo + morselRows
	if hi > limit {
		hi = limit
	}
	obs.MorselsDispatched.Inc()
	m.AQ.MorselClaimed()
	return s, lo, hi, true
}

// ---------------------------------------------------------------------------
// MorselTap

// TagSource reports which morsel band the most recently emitted batch of
// a spine node belongs to. The driver scan is the canonical source (its
// current morsel); a spine hash join that went Grace re-derives bands
// from the sequence tags it stored at probe time, because by the time it
// emits, the scan has long finished. Streaming spine operators (filters,
// projections, nested-loop joins, in-memory hash joins) stay transparent:
// they drain every output of one input batch before pulling the next, so
// the nearest TagSource below them is always current.
type TagSource interface {
	CurrentBand() int64
}

// MorselTap sits on a worker pipeline and tracks the global serial-order
// position of every batch flowing through it: Base() after a Next is
// band<<seqShift | rows-already-emitted-for-that-band. Within one worker
// each surfaced batch derives entirely from one morsel band of the tag
// source, so ordering batches by Base replays the serial stream exactly.
type MorselTap struct {
	Input Node
	Src   TagSource

	cur  int64
	pos  int64
	base int64
}

// NewMorselTap returns a tap over input, reading morsel bands from the
// subtree's tag source (the driver scan, or the topmost spine join).
func NewMorselTap(input Node, src TagSource) *MorselTap {
	return &MorselTap{Input: input, Src: src}
}

func (t *MorselTap) Open() error {
	t.cur, t.pos, t.base = -1, 0, 0
	return t.Input.Open()
}

func (t *MorselTap) Next() (*vector.Batch, error) {
	b, err := t.Input.Next()
	if b == nil || err != nil {
		return b, err
	}
	if band := t.Src.CurrentBand(); band != t.cur {
		t.cur, t.pos = band, 0
	}
	t.base = t.cur<<seqShift | t.pos
	t.pos += int64(len(resolveSel(b, b.Sel)))
	return b, nil
}

func (t *MorselTap) Close() error { return t.Input.Close() }

// Base returns the sequence tag of the batch most recently returned by
// Next: the global ordinal of its first live lane.
func (t *MorselTap) Base() int64 { return t.base }

// copyBatch copies the live lanes of a batch into vectors of the shared
// buffer pool, detaching it from the producer's recyclable buffers so it
// can cross the Exchange channel; the exchange frees them once its
// consumer has moved past the batch.
func copyBatch(b *vector.Batch) *vector.Batch {
	lanes := resolveSel(b, b.Sel)
	cols := make([]*vector.Vec, len(b.Cols))
	for j, c := range b.Cols {
		cols[j] = vector.NewBatchVec(c.Kind, len(lanes))
		cols[j].CopyLanes(0, c, lanes)
	}
	return &vector.Batch{N: len(lanes), Cols: cols}
}

// freeBatch returns a copied batch's vectors to the pool.
func freeBatch(b *vector.Batch) {
	if b != nil {
		for _, v := range b.Cols {
			v.Free()
		}
	}
}

// ---------------------------------------------------------------------------
// Exchange

// exItem is one tagged worker emission: a copied batch, or the worker's
// terminal error (tag -1 for an Open failure, which must surface before
// any data).
type exItem struct {
	tag int64
	b   *vector.Batch
	err error
}

// Exchange runs N replicated pipelines on their own goroutines and
// re-emits their batches in sequence-tag order, reproducing the serial
// plan's output stream byte for byte. Worker errors are tagged like data
// and surface exactly when the serial plan would have reached them.
type Exchange struct {
	obs.Card
	Workers []*MorselTap
	Disp    *Morsels

	chans  []chan exItem
	heads  []*exItem
	out    *vector.Batch // the batch last emitted, freed on the next call
	done   []bool
	stop   chan struct{}
	wg     sync.WaitGroup
	err    error
	closed bool
}

// NewExchange builds an exchange over the replicated subtree roots, each
// driven by its driver scan and tagged from its spine tag source; all
// drivers are attached to one shared morsel dispatcher.
func NewExchange(workers []Node, drivers []*ColScan, srcs []TagSource, disp *Morsels) *Exchange {
	ex := &Exchange{Workers: make([]*MorselTap, len(workers)), Disp: disp}
	for i, w := range workers {
		ex.Workers[i] = NewMorselTap(w, srcs[i])
		drivers[i].SetMorselSource(disp)
	}
	return ex
}

func (e *Exchange) Open() error {
	e.Disp.Reset()
	e.chans = make([]chan exItem, len(e.Workers))
	e.heads = make([]*exItem, len(e.Workers))
	e.done = make([]bool, len(e.Workers))
	e.stop = make(chan struct{})
	e.err = nil
	e.closed = false
	for i := range e.Workers {
		e.chans[i] = make(chan exItem, 2)
		e.wg.Add(1)
		go e.run(i)
	}
	return nil
}

func (e *Exchange) run(i int) {
	defer e.wg.Done()
	defer close(e.chans[i])
	tap := e.Workers[i]
	opened := false
	// The recover defer runs before the close defer above (LIFO), so a
	// panicking worker still sends its error item on an open channel: the
	// k-way merge surfaces one error instead of deadlocking, and the
	// worker's subtree is closed under a guard so its reservations and
	// spill files are released even when the panic left it inconsistent.
	defer func() {
		p := recover()
		if opened {
			closeQuietly(tap)
		}
		if p != nil {
			obs.PanicsRecovered.Inc()
			obs.Events.Record(obs.EventPanicRecovered, "", "", fmt.Sprintf("parallel worker panicked: %v", p))
			e.send(i, exItem{tag: -1, err: fmt.Errorf("parallel worker panicked: %v", p)})
		}
	}()
	if err := tap.Open(); err != nil {
		// A failed Open never sees a matching Close (the engine-wide
		// convention): the subtree unwound itself.
		e.send(i, exItem{tag: -1, err: err})
		return
	}
	opened = true
	for {
		if err := fault.Failure(fault.PointWorkerPanic); err != nil {
			panic(err)
		}
		b, err := tap.Next()
		if err != nil {
			e.send(i, exItem{tag: tap.Base(), err: err})
			return
		}
		if b == nil {
			return
		}
		if !e.send(i, exItem{tag: tap.Base(), b: copyBatch(b)}) {
			return
		}
	}
}

// closeQuietly closes a worker subtree swallowing both errors and
// panics: cleanup of a worker that already failed must not mask the
// original error or take the process down with a secondary crash.
func closeQuietly(n Node) {
	defer func() { _ = recover() }()
	n.Close() //nolint:errcheck — worker-local unwinding
}

func (e *Exchange) send(i int, it exItem) bool {
	select {
	case e.chans[i] <- it:
		return true
	case <-e.stop:
		return false
	}
}

func (e *Exchange) Next() (*vector.Batch, error) {
	freeBatch(e.out)
	e.out = nil
	if e.err != nil {
		return nil, e.err
	}
	// Refill the head slot of every live worker, then emit the smallest
	// tag. Blocking on a slow worker is required for correctness: until
	// every live worker has shown its next tag, the global minimum is
	// unknown.
	min := -1
	for i := range e.chans {
		if e.heads[i] == nil && !e.done[i] {
			it, ok := <-e.chans[i]
			if !ok {
				e.done[i] = true
				continue
			}
			h := it
			e.heads[i] = &h
		}
		if e.heads[i] != nil && (min < 0 || e.heads[i].tag < e.heads[min].tag) {
			min = i
		}
	}
	if min < 0 {
		return nil, nil
	}
	head := e.heads[min]
	e.heads[min] = nil
	if head.err != nil {
		e.err = head.err
		return nil, e.err
	}
	e.out = head.b
	return head.b, nil
}

func (e *Exchange) Close() error {
	if e.stop == nil || e.closed {
		return nil
	}
	e.closed = true
	freeBatch(e.out)
	e.out = nil
	close(e.stop)
	for i := range e.chans {
		for range e.chans[i] { //nolint:revive — drain so senders unblock
		}
	}
	e.wg.Wait()
	e.heads, e.chans, e.done = nil, nil, nil
	return nil
}
