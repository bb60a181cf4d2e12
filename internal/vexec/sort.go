// Vectorized sorting, top-N, limiting and duplicate elimination. These
// are the blocking operators that used to force a BatchToRow demotion in
// the middle of provenance pipelines; implementing them column-wise keeps
// ORDER BY / LIMIT / DISTINCT plans on the batch engine end to end.
package vexec

import (
	"slices"
	"sort"

	"perm/internal/algebra"
	"perm/internal/obs"
	"perm/internal/spill"
	"perm/internal/types"
	"perm/internal/vector"
)

// emitter streams the rows of a table in a given row-id order as
// batch-sized gathers, recycling the gather buffers between batches.
type emitter struct {
	t     *vector.Table
	order []int32
	pos   int
	buf   []*vector.Vec
}

func (e *emitter) reset(t *vector.Table, order []int32) {
	e.close()
	e.t, e.order, e.pos = t, order, 0
}

func (e *emitter) next() *vector.Batch {
	e.close()
	if e.pos >= len(e.order) {
		return nil
	}
	hi := e.pos + vector.BatchSize
	if hi > len(e.order) {
		hi = len(e.order)
	}
	ids := e.order[e.pos:hi]
	e.pos = hi
	e.buf = gatherBatch(e.t, ids, e.buf[:0])
	return &vector.Batch{N: len(ids), Cols: e.buf}
}

// close returns the buffers of the last batch to the pool; the consumer
// abandoned that batch when it asked for the next.
func (e *emitter) close() {
	for _, v := range e.buf {
		v.Free()
	}
	e.buf = e.buf[:0]
}

// gatherBatch appends to cols one pooled vector per table column holding
// the rows with the given ids (at most BatchSize).
func gatherBatch(t *vector.Table, ids []int32, cols []*vector.Vec) []*vector.Vec {
	for c, k := range t.Kinds() {
		v := vector.NewBatchVec(k, len(ids))
		t.GatherCol(c, ids, v)
		cols = append(cols, v)
	}
	return cols
}

// ---------------------------------------------------------------------------
// VecSort

// VecSort materializes its input into columns and orders it with a
// column-wise multi-key comparator (stable, NULLS LAST ascending / first
// descending — the row engine's convention exactly). Under a memory
// budget (Spill) it becomes an external merge sort: input segments that
// no longer fit are sorted and written as spill runs, and the output is
// a fan-in-capped multi-pass k-way merge whose order is identical to the
// in-memory sort's. Over a join-back that emitted its rows in the sort's
// order (see joinBack) it passes them through.
type VecSort struct {
	obs.Card
	Input Node
	Keys  []algebra.SortKey
	Spill spill.Resources

	acc      vector.Table
	emit     emitter
	accBytes int64
	kinds    []types.Kind
	classes  []cmpClass
	runs     []*spill.Run
	merger   *runMerger
	byGroup  bool // the last Open's input came sorted: rows pass through
}

// NewVecSort returns a vectorized sort node.
func NewVecSort(input Node, keys []algebra.SortKey) *VecSort {
	return &VecSort{Input: input, Keys: keys}
}

// Spilled reports whether the sort went external (EXPLAIN/tests).
func (s *VecSort) Spilled() bool { return len(s.runs) > 0 }

// ByGroup reports whether the last Open passed its input through, the
// join-back below having sorted its rows by group (EXPLAIN ANALYZE/tests).
func (s *VecSort) ByGroup() bool { return s.byGroup }

// joinBack returns the join-back operator the sort reads, through a
// projection, when every key is a column of its aggregate's output, having
// asked it for the sort's order.
func (s *VecSort) joinBack() *AggAttach {
	n, cols := unprobe(s.Input), []*Expr(nil)
	if p, ok := n.(*Project); ok {
		n, cols = unprobe(p.Input), p.Exprs
	}
	a, ok := n.(*AggAttach)
	if !ok {
		return nil
	}
	order := make([]algebra.SortKey, len(s.Keys))
	for i, k := range s.Keys {
		pos := k.Pos
		if cols != nil {
			v, ok := cols[pos].val.(*varKernel)
			if !ok {
				return nil
			}
			pos = v.pos
		}
		if pos < len(a.Prov) {
			return nil
		}
		order[i] = algebra.SortKey{Pos: pos - len(a.Prov), Desc: k.Desc}
	}
	a.Order = order
	return a
}

// unprobe looks through EXPLAIN ANALYZE probes.
func unprobe(n Node) Node {
	for {
		p, ok := n.(*Probe)
		if !ok {
			return n
		}
		n = p.Input
	}
}

// flushRun sorts the accumulated segment and writes it out as one run,
// releasing the segment's memory.
func (s *VecSort) flushRun() error {
	if s.acc.Len() == 0 {
		return nil
	}
	order := sortedOrder(&s.acc, s.Keys, s.classes)
	w := &runWriter{res: s.Spill, kinds: s.kinds}
	chunk := gatherScratch(s.kinds)
	for lo := 0; lo < len(order); lo += vector.BatchSize {
		ids := order[lo:min(lo+vector.BatchSize, len(order))]
		for c := range chunk {
			s.acc.GatherCol(c, ids, chunk[c])
		}
		if err := w.write(chunk, len(ids)); err != nil {
			return err
		}
	}
	run, err := w.finish()
	if err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	s.acc = vector.Table{}
	s.Spill.Res.Release(s.accBytes)
	s.accBytes = 0
	return nil
}

func (s *VecSort) Open() (err error) {
	s.acc = vector.Table{}
	s.accBytes = 0
	s.merger = nil
	s.classes = nil
	closeRuns(s.runs)
	s.runs = nil
	s.byGroup = false
	attach := s.joinBack()
	// A failed Open never sees a matching Close from the parent, so the
	// sort must unwind its own spill state: release reserved bytes and
	// close any runs written before the error.
	defer func() {
		if err != nil {
			closeRuns(s.runs)
			s.runs = nil
			s.acc = vector.Table{}
			s.accBytes = 0
			s.Spill.Res.ReleaseAll()
		}
	}()
	if err := s.Input.Open(); err != nil {
		return err
	}
	if attach != nil && attach.Sorted() {
		s.byGroup = true
		return nil
	}
	budgeted := s.Spill.Enabled()
	for {
		b, err := s.Input.Next()
		if err != nil {
			s.Input.Close() //nolint:errcheck — unwinding after a failed drain
			return err
		}
		if b == nil {
			break
		}
		if s.classes == nil {
			s.kinds = colKinds(b.Cols)
			s.classes = sortKeyClasses(s.Keys, b.Cols)
		}
		lanes := resolveSel(b, b.Sel)
		if budgeted {
			delta := batchBytes(b.Cols, lanes)
			if !s.Spill.Res.Grow(delta) {
				if err := s.flushRun(); err != nil {
					s.Input.Close() //nolint:errcheck
					return err
				}
				s.Spill.Res.Force(delta)
			}
			s.accBytes += delta
		}
		s.acc.Append(b.Cols, lanes)
	}
	if err := s.Input.Close(); err != nil {
		return err
	}
	if len(s.runs) == 0 {
		s.emit.reset(&s.acc, sortedOrder(&s.acc, s.Keys, s.classes))
		return nil
	}
	// External path: spill the tail segment too, reduce to the merge
	// fan-in, and stream the final merge.
	if err := s.flushRun(); err != nil {
		return err
	}
	s.runs, err = spill.Reduce(s.runs, func(group []*spill.Run) (*spill.Run, error) {
		return mergeRuns(s.Spill, group, s.Keys, s.classes, s.kinds)
	})
	if err != nil {
		return err
	}
	s.merger, err = newRunMerger(s.runs, s.Keys, s.classes, s.kinds)
	return err
}

func (s *VecSort) Next() (*vector.Batch, error) {
	if s.byGroup {
		return s.Input.Next()
	}
	if s.merger != nil {
		return s.merger.next()
	}
	return s.emit.next(), nil
}

func (s *VecSort) Close() error {
	s.emit.close()
	s.acc = vector.Table{}
	s.merger.close()
	s.merger = nil
	closeRuns(s.runs)
	s.runs = nil
	s.accBytes = 0
	s.Spill.Res.ReleaseAll()
	if s.byGroup {
		return s.Input.Close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// VecTopN

// VecTopN is the limit-aware sort: it keeps only the top
// offset+count rows in a bounded max-heap while draining its input
// (O(n log k) comparisons, bounded candidate storage), then emits them in
// order with the offset skipped. Ties resolve by input order, matching
// the row engine's stable sort + LIMIT.
type VecTopN struct {
	obs.Card
	Input  Node
	Keys   []algebra.SortKey
	Count  int64 // ≥ 0
	Offset int64

	acc     vector.Table
	classes []cmpClass
	heap    []int32 // max-heap over accumulated rows ("worst" on top)
	emit    emitter
}

// NewVecTopN returns a vectorized top-N node keeping offset+count rows.
func NewVecTopN(input Node, keys []algebra.SortKey, count, offset int64) *VecTopN {
	return &VecTopN{Input: input, Keys: keys, Count: count, Offset: offset}
}

// rowLess orders accumulated rows i and j by the sort keys, breaking
// ties by insertion index (stability).
func (t *VecTopN) rowLess(i, j int32) bool {
	if c := compareTableRows(&t.acc, int(i), int(j), t.Keys, t.classes); c != 0 {
		return c < 0
	}
	return i < j
}

// laneBeatsWorst reports whether batch lane i sorts strictly before the
// current heap maximum (an incoming row never displaces an equal-keyed
// earlier row: ties keep the earlier arrival, like a stable sort).
func (t *VecTopN) laneBeatsWorst(b *vector.Batch, i int) bool {
	worst, wi := t.acc.At(int(t.heap[0]))
	// Equal keys: the earlier row wins.
	return compareSortRows(b.Cols, i, worst, wi, t.Keys, t.classes) < 0
}

func (t *VecTopN) siftDown(at int) {
	n := len(t.heap)
	for {
		l, r := 2*at+1, 2*at+2
		largest := at
		if l < n && t.rowLess(t.heap[largest], t.heap[l]) {
			largest = l
		}
		if r < n && t.rowLess(t.heap[largest], t.heap[r]) {
			largest = r
		}
		if largest == at {
			return
		}
		t.heap[at], t.heap[largest] = t.heap[largest], t.heap[at]
		at = largest
	}
}

func (t *VecTopN) siftUp(at int) {
	for at > 0 {
		parent := (at - 1) / 2
		if !t.rowLess(t.heap[parent], t.heap[at]) {
			return
		}
		t.heap[at], t.heap[parent] = t.heap[parent], t.heap[at]
		at = parent
	}
}

func (t *VecTopN) Open() error {
	t.acc = vector.Table{}
	t.heap = t.heap[:0]
	k := t.Offset + t.Count
	if err := t.Input.Open(); err != nil {
		return err
	}
	for {
		b, err := t.Input.Next()
		if err != nil {
			t.Input.Close() //nolint:errcheck — unwinding after a failed drain
			return err
		}
		if b == nil {
			break
		}
		if k == 0 {
			continue // LIMIT 0: drain for side-effect-free symmetry
		}
		if t.classes == nil {
			t.classes = sortKeyClasses(t.Keys, b.Cols)
		}
		for _, i := range resolveSel(b, b.Sel) {
			if int64(len(t.heap)) < k {
				t.acc.AppendLane(b.Cols, i)
				t.heap = append(t.heap, int32(t.acc.Len()-1))
				t.siftUp(len(t.heap) - 1)
				continue
			}
			if !t.laneBeatsWorst(b, i) {
				continue
			}
			t.acc.AppendLane(b.Cols, i)
			t.heap[0] = int32(t.acc.Len() - 1)
			t.siftDown(0)
		}
		// Displaced rows stay in the accumulator until compaction; keep
		// its footprint bounded by ~2k rows (plus batch slack) so an
		// adversarial input order cannot materialize the whole stream.
		if int64(t.acc.Len()) > 2*k+vector.BatchSize {
			t.compact()
		}
	}
	if err := t.Input.Close(); err != nil {
		return err
	}
	order := append([]int32(nil), t.heap...)
	sort.Slice(order, func(x, y int) bool { return t.rowLess(order[x], order[y]) })
	if int64(len(order)) > t.Offset {
		order = order[t.Offset:]
	} else {
		order = nil
	}
	t.emit.reset(&t.acc, order)
	return nil
}

// compact rewrites the accumulator down to the heap's live rows,
// reclaiming the storage of displaced candidates. Live rows are copied
// in ascending old-index order, so relative arrival order — the
// comparator's tie-breaker — is preserved and the heap invariant
// survives the relabeling untouched.
func (t *VecTopN) compact() {
	live := append([]int32(nil), t.heap...)
	slices.Sort(live)
	remap := make(map[int32]int32, len(live))
	var kept vector.Table
	kept.Init(t.acc.Kinds(), len(live))
	for newIdx, oldIdx := range live {
		kept.AppendLane(t.acc.At(int(oldIdx)))
		remap[oldIdx] = int32(newIdx)
	}
	for i, h := range t.heap {
		t.heap[i] = remap[h]
	}
	t.acc = kept
}

func (t *VecTopN) Next() (*vector.Batch, error) { return t.emit.next(), nil }

func (t *VecTopN) Close() error {
	t.emit.close()
	t.acc = vector.Table{}
	t.heap = t.heap[:0]
	return nil
}

// ---------------------------------------------------------------------------
// VecLimit

// VecLimit trims the live-row stream to [Offset, Offset+Count) without
// materializing anything; it stops pulling its input once the count is
// satisfied. A negative Count means no limit (offset only).
type VecLimit struct {
	obs.Card
	Input   Node
	Count   int64
	Offset  int64
	skipped int64
	emitted int64
}

// NewVecLimit returns a vectorized limit node.
func NewVecLimit(input Node, count, offset int64) *VecLimit {
	return &VecLimit{Input: input, Count: count, Offset: offset}
}

func (l *VecLimit) Open() error {
	l.skipped, l.emitted = 0, 0
	return l.Input.Open()
}

func (l *VecLimit) Next() (*vector.Batch, error) {
	for {
		if l.Count >= 0 && l.emitted >= l.Count {
			return nil, nil
		}
		b, err := l.Input.Next()
		if err != nil || b == nil {
			return nil, err
		}
		lanes := resolveSel(b, b.Sel)
		lo := 0
		for lo < len(lanes) && l.skipped < l.Offset {
			l.skipped++
			lo++
		}
		take := len(lanes) - lo
		if l.Count >= 0 {
			if rem := l.Count - l.emitted; int64(take) > rem {
				take = int(rem)
			}
		}
		if take <= 0 {
			continue
		}
		l.emitted += int64(take)
		return &vector.Batch{N: b.N, Cols: b.Cols, Sel: lanes[lo : lo+take]}, nil
	}
}

func (l *VecLimit) Close() error { return l.Input.Close() }

// ---------------------------------------------------------------------------
// VecDistinct

// VecDistinct emits the first occurrence of each distinct row (null-safe
// row equality, first-appearance order — exactly the row engine's
// Distinct). It streams — every row emitted before memory pressure hits
// is provably a first occurrence — and only stops pipelining at the
// moment a budget grant is actually denied: the seen-set is then flushed
// as partial records (row, emitted flag, first-appearance sequence
// number) into hash partitions and the remaining input is absorbed
// without emitting. After the drain the partitions dedup independently
// (the emitted flag suppresses rows that already left during the
// streaming phase) and a final merge on the sequence numbers emits the
// remaining first occurrences in exactly the in-memory order.
type VecDistinct struct {
	obs.Card
	Input Node
	Spill spill.Resources

	tab     groupTable
	selBuf  []int
	emitted []bool // per group: left the operator during streaming
	tail    bool   // spilled: no more emission until the final merge
}

// NewVecDistinct returns a vectorized duplicate-elimination node.
func NewVecDistinct(input Node) *VecDistinct { return &VecDistinct{Input: input} }

// Spilled reports whether the operator spilled partitions to disk.
func (d *VecDistinct) Spilled() bool { return d.tab.spilled() }

// stateKinds etc. implement groupStater: the only accumulator state is
// whether the group's row already left the operator while it was still
// streaming; after a spill only the groups whose row did not leave have
// an output row.
func (d *VecDistinct) stateKinds() []types.Kind { return []types.Kind{types.KindBool} }
func (d *VecDistinct) reset()                   { d.emitted = d.emitted[:0] }
func (d *VecDistinct) newGroup()                { d.emitted = append(d.emitted, !d.tail) }
func (d *VecDistinct) appendState(g int, dst []*vector.Vec) {
	appendB(dst[0], d.emitted[g])
}
func (d *VecDistinct) mergeState(g int, state []*vector.Vec, lane int) {
	d.emitted[g] = d.emitted[g] || state[0].B[lane]
}
func (d *VecDistinct) resultKinds() []types.Kind { return nil }
func (d *VecDistinct) copies(g int) int64 {
	if d.emitted[g] {
		return 0
	}
	return 1
}
func (d *VecDistinct) appendResult(int, []*vector.Vec) {}

func (d *VecDistinct) Open() error {
	if d.selBuf == nil {
		d.selBuf = make([]int, 0, vector.BatchSize)
	}
	d.tail = false
	d.tab.open(d.Spill, d, groupOverheadBytes)
	return d.Input.Open()
}

// Next emits each batch's first occurrences until the table first
// flushes: the lane whose new group set off the flush still leaves with
// its batch, every later new group waits for the final merge.
func (d *VecDistinct) Next() (*vector.Batch, error) {
	for {
		if d.tab.merger != nil {
			return d.tab.merger.next()
		}
		b, err := d.Input.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			if !d.tail {
				return nil, nil
			}
			if err := d.tab.finish(); err != nil {
				return nil, err
			}
			continue
		}
		out := d.selBuf[:0]
		lanes := resolveSel(b, b.Sel)
		hs := d.tab.hasher.rows(b.Cols, lanes)
		for idx, i := range lanes {
			if d.tab.set.find(b.Cols, i, hs[idx]) >= 0 {
				continue
			}
			if _, err := d.tab.add(b.Cols, i, hs[idx]); err != nil {
				return nil, err
			}
			if !d.tail {
				out = append(out, i)
				d.tail = d.tab.spilled()
			}
		}
		d.selBuf = out
		if len(out) > 0 {
			return &vector.Batch{N: b.N, Cols: b.Cols, Sel: out}, nil
		}
	}
}

func (d *VecDistinct) Close() error {
	d.tail = false
	// The spill work happens in Next, so an error there relies on this
	// Close to unwind partition writers still holding files.
	d.tab.close()
	return d.Input.Close()
}
