// Morsel-driven intra-query parallelism. A parallel plan segment is the
// same vectorized subtree planned N times (compiled expressions hold
// per-instance scratch state, so workers can never share one tree); the
// single "driver" columnar scan of every replica draws morsels — small
// contiguous batch ranges of the shared columnar snapshot — from one
// atomic dispatcher, while every other scan in the replica (join build
// sides, subquery inputs) reads its snapshot in full. Worker outputs
// carry a sequence tag derived from (morsel, position) and merge back in
// exactly the order the serial plan would have produced:
//
//   - Exchange streams copied worker batches through channels and emits
//     them in tag order (the serial stream, byte for byte).
//   - ParallelAgg runs one partial HashAgg per worker, flushes every
//     worker's groups through the Grace partition machinery, merges the
//     partials partition-wise with the accumulators' associative
//     mergeState, and replays the seq-ordered output merge.
//   - ParallelSort runs one VecSort per worker over seq-tagged input
//     (the hidden ordinal is the final sort key) and k-way merges the
//     sorted worker streams, dropping the ordinal on emission.
//
// Memory: every replica is planned with its own spill reservations
// against the session budget, so parallelism composes with spill instead
// of multiplying the footprint. Pooling: batches cross goroutines only
// through Exchange, which copies live lanes into pooled vectors it frees
// once its consumer has moved on;
// everything else inside a worker keeps the usual single-goroutine
// consumer-abandons-before-Next discipline, and the barrier (WaitGroup)
// in ParallelAgg/ParallelSort orders worker state before the
// coordinator's merge reads it.
package vexec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"perm/internal/exec"
	"perm/internal/fault"
	"perm/internal/obs"
	"perm/internal/spill"
	"perm/internal/types"
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

// Reset rewinds the dispatcher (called by the coordinating operator's
// Open, before worker goroutines start).
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

// ---------------------------------------------------------------------------
// ParallelAgg

// ParallelAgg coordinates N partial hash aggregations. Workers drain
// concurrently, each under its own reservation, spilling independently
// if its share of the group table outgrows the budget. When every worker
// stayed in memory the coordinator absorbs their live tables into
// worker 0 (the accumulators' associative mergeState; a group's sequence
// number is the minimum first-appearance ordinal over all workers) and
// emits in sequence order — no disk I/O, so unbudgeted sessions never
// spill just because they ran parallel. If any worker spilled, all
// tables are flushed as partial records and partition runs of the same
// index merge across workers, streaming through the same seq merge the
// serial spill path uses. Only exactly-mergeable aggregates are planned
// this way (the planner keeps float SUM/AVG accumulation serial), so
// either path is bit-identical to a single-threaded pass.
type ParallelAgg struct {
	obs.Card
	Workers []*HashAgg
	Disp    *Morsels

	merger  *seqMerger
	outRuns []*spill.Run
	inMem   bool // merged in memory: emit from Workers[0]'s table
}

// NewParallelAgg wires the worker aggregations: each gets a morsel tap
// on its input (the source of global-order sequence numbers), partial
// mode, and its driver scan attached to the shared dispatcher.
func NewParallelAgg(workers []*HashAgg, drivers []*ColScan, srcs []TagSource, disp *Morsels) *ParallelAgg {
	for i, w := range workers {
		tap := NewMorselTap(w.Input, srcs[i])
		w.Input = tap
		w.Tap = tap
		w.partial = true
		drivers[i].SetMorselSource(disp)
	}
	return &ParallelAgg{Workers: workers, Disp: disp}
}

func (pa *ParallelAgg) Open() error {
	pa.Disp.Reset()
	pa.merger = nil
	pa.inMem = false
	closeRuns(pa.outRuns)
	pa.outRuns = nil
	errs := openConcurrently(len(pa.Workers), func(i int) error { return pa.Workers[i].Open() })
	if err := firstError(errs); err != nil {
		closeAfterOpen(errs, func(i int) error { return pa.Workers[i].Close() })
		return err
	}
	h0 := pa.Workers[0]
	spilled := false
	for _, w := range pa.Workers {
		if w.hasPartRuns() {
			spilled = true
			break
		}
	}
	if !spilled {
		// Every worker's table fit in memory: absorb them into worker 0
		// and finalize in global first-appearance order. This also covers
		// the empty input (a grouped aggregate emits nothing, a global
		// aggregate owes its default row — finishInMemOrdered delegates).
		for _, w := range pa.Workers[1:] {
			h0.absorb(w)
		}
		h0.finishInMemOrdered()
		pa.inMem = true
		return nil
	}
	// Mixed: at least one worker spilled, so the merge happens on disk.
	// Flush the still-live tables to the same partial-record form.
	for _, w := range pa.Workers {
		if err := w.flushPartialRuns(); err != nil {
			for _, ww := range pa.Workers {
				ww.Close() //nolint:errcheck — unwinding a failed Open
			}
			return err
		}
	}
	// Pair up partition runs across workers: same partition index = same
	// key hash slice, so a group's partials from every worker meet in one
	// merge table.
	var sets [][]*spill.Run
	for p := 0; p < spillPartitions; p++ {
		var group []*spill.Run
		for _, w := range pa.Workers {
			if r := w.partRuns[p]; r != nil {
				group = append(group, r)
				w.partRuns[p] = nil
			}
		}
		if len(group) > 0 {
			sets = append(sets, group)
		}
	}
	if len(sets) == 0 {
		if len(h0.Groups) == 0 {
			h0.finishInMem()
			pa.inMem = true
		}
		return nil
	}
	resultKinds := make([]types.Kind, len(h0.Aggs))
	for ai := range h0.Aggs {
		resultKinds[ai] = h0.Aggs[ai].ResultKind
	}
	outs, err := processGroupPartitionSets(h0.Spill, sets, h0.groupKinds, h0, func(res spill.Resources,
		acc *vector.Table, seqs []int64, order []int32) (*spill.Run, error) {
		if acc.Len() == 0 {
			return nil, nil
		}
		extraKinds := append(append([]types.Kind{}, resultKinds...), types.KindInt)
		return writeGroupRun(res, acc, order, extraKinds, func(g int32, extra []*vector.Vec) {
			for ai := range h0.accs {
				appendValue(extra[ai], h0.accs[ai].finalize(int(g)))
			}
			appendI(extra[len(extra)-1], seqs[g])
		})
	})
	if err == nil {
		pa.outRuns = outs
		width := len(h0.groupKinds) + len(h0.Aggs)
		pa.merger, err = newSeqMerger(outs, width, -1, width)
	}
	if err != nil {
		// A failed Open gets no Close from the parent; unwind the workers
		// (reservations, leftover runs) here.
		for _, w := range pa.Workers {
			w.Close() //nolint:errcheck
		}
		closeRuns(pa.outRuns)
		pa.outRuns = nil
		return err
	}
	return nil
}

func (pa *ParallelAgg) Next() (*vector.Batch, error) {
	if pa.inMem {
		return pa.Workers[0].Next()
	}
	if pa.merger == nil {
		return nil, nil
	}
	return pa.merger.next()
}

func (pa *ParallelAgg) Close() error {
	var first error
	for _, w := range pa.Workers {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	pa.merger.close()
	pa.merger = nil
	closeRuns(pa.outRuns)
	pa.outRuns = nil
	return first
}

// ---------------------------------------------------------------------------
// ParallelSort

// ParallelSort coordinates N worker sorts over seq-tagged input: each
// worker is a full VecSort (external under budget pressure, exactly as
// in the serial plan) whose hidden final key is the global input
// ordinal. Workers sort concurrently in Open; Next is a serial k-way
// merge of the sorted worker streams on (keys, ordinal) — the ordinal
// resolves cross-worker ties precisely the way the serial stable sort
// resolves them by input order — with the hidden column stripped on
// emission.
type ParallelSort struct {
	obs.Card
	Workers []*VecSort
	Disp    *Morsels
	Keys    []exec.SortKey

	classes []cmpClass
	kinds   []types.Kind
	width   int
	heads   []*vector.Batch
	pos     []int
	heap    []int
	out     mergeOut
}

// NewParallelSort wires the worker sorts (morsel tap + hidden seq
// column) and attaches their driver scans to the shared dispatcher.
func NewParallelSort(workers []*VecSort, drivers []*ColScan, srcs []TagSource, disp *Morsels) *ParallelSort {
	for i, w := range workers {
		tap := NewMorselTap(w.Input, srcs[i])
		w.Input = tap
		w.Tap = tap
		drivers[i].SetMorselSource(disp)
	}
	return &ParallelSort{Workers: workers, Disp: disp, Keys: workers[0].Keys}
}

func (s *ParallelSort) Open() error {
	s.Disp.Reset()
	s.classes, s.kinds, s.width = nil, nil, 0
	s.heads = make([]*vector.Batch, len(s.Workers))
	s.pos = make([]int, len(s.Workers))
	s.heap = s.heap[:0]
	errs := openConcurrently(len(s.Workers), func(i int) error { return s.Workers[i].Open() })
	if err := firstError(errs); err != nil {
		closeAfterOpen(errs, func(i int) error { return s.Workers[i].Close() })
		return err
	}
	for i, w := range s.Workers {
		b, err := w.Next()
		if err != nil {
			for _, w2 := range s.Workers {
				w2.Close() //nolint:errcheck
			}
			return err
		}
		if b == nil {
			continue
		}
		s.heads[i] = b
		if s.classes == nil {
			s.width = len(b.Cols) - 1 // trailing column is the hidden ordinal
			s.kinds = colKinds(b.Cols[:s.width])
			s.classes = sortKeyClasses(s.Keys, b.Cols)
		}
		s.heap = append(s.heap, i)
	}
	spill.Heapify(s.heap, s.less)
	return nil
}

func (s *ParallelSort) less(a, b int) bool {
	ba, bb := s.heads[a], s.heads[b]
	ia, ib := s.pos[a], s.pos[b]
	if c := compareSortRows(ba.Cols, ia, bb.Cols, ib, s.Keys, s.classes); c != 0 {
		return c < 0
	}
	return ba.Cols[s.width].I[ia] < bb.Cols[s.width].I[ib]
}

// Next merges like runMerger.next: a worker that stays on top of the heap
// after advancing contributes a run of consecutive output rows (a morsel's
// worth within one key group), copied column by column in one go.
func (s *ParallelSort) Next() (*vector.Batch, error) {
	if len(s.heap) == 0 {
		return nil, nil
	}
	s.out.begin(s.kinds)
	for s.out.rows < vector.BatchSize && len(s.heap) > 0 {
		wi := s.heap[0]
		b := s.heads[wi]
		lo := s.pos[wi]
		for {
			s.pos[wi]++
			if s.pos[wi] >= b.N || s.out.rows+s.pos[wi]-lo >= vector.BatchSize {
				break
			}
			spill.DownHeap(s.heap, 0, s.less)
			if s.heap[0] != wi {
				break
			}
		}
		s.out.copyRun(b.Cols, lo, s.pos[wi])
		if s.pos[wi] >= b.N {
			// Still on top: the inner loop stops before it re-sifts.
			nb, err := s.Workers[wi].Next()
			if err != nil {
				return nil, err
			}
			s.heads[wi], s.pos[wi] = nb, 0
			if nb == nil {
				s.heap[0] = s.heap[len(s.heap)-1]
				s.heap = s.heap[:len(s.heap)-1]
			}
		}
		spill.DownHeap(s.heap, 0, s.less)
	}
	return s.out.batch(), nil
}

func (s *ParallelSort) Close() error {
	s.out.free()
	var first error
	for _, w := range s.Workers {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.heads, s.heap = nil, nil
	return first
}

// ---------------------------------------------------------------------------
// Shared helpers

// errWorkerPanic marks an Open "error" that was really a recovered
// worker panic: unlike an ordinary failed Open (which unwinds itself,
// the engine-wide convention), a panicked Open may strand partial state
// behind it, so closeAfterOpen gives such workers a guarded Close.
var errWorkerPanic = errors.New("worker panicked")

// openConcurrently runs n Opens on their own goroutines and returns the
// per-worker errors after all complete. The WaitGroup barrier also
// publishes every worker's drained state to the coordinator goroutine.
// A panicking Open is recovered into an errWorkerPanic-wrapped error so
// one crashing replica degrades into a query error, not a process
// crash.
func openConcurrently(n int, open func(i int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					obs.PanicsRecovered.Inc()
					obs.Events.Record(obs.EventPanicRecovered, "", "", fmt.Sprintf("parallel worker panicked in Open: %v", p))
					errs[i] = fmt.Errorf("%w in Open: %v", errWorkerPanic, p)
				}
			}()
			errs[i] = open(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// closeAfterOpen unwinds the workers of a concurrent Open in which at
// least one failed: workers that opened cleanly get a normal Close,
// workers whose Open panicked get a guarded Close (releasing what their
// half-built state still holds without risking a secondary panic), and
// workers that returned an ordinary error get nothing — a failed Open
// unwound itself.
func closeAfterOpen(errs []error, close func(i int) error) {
	for i, err := range errs {
		switch {
		case err == nil:
			close(i) //nolint:errcheck — unwinding a failed Open
		case errors.Is(err, errWorkerPanic):
			func() {
				defer func() { _ = recover() }()
				close(i) //nolint:errcheck — unwinding a panicked Open
			}()
		}
	}
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
