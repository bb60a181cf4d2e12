// The spill toolkit of the vectorized engine — one run writer, one hash
// partition set, one partition loop — and the grouping operators' (hash
// aggregation, DISTINCT, set operations) budgeted group table built on
// it. The external sort writes its runs through the run writer; the
// Grace hash join drains its partitions through the same loop.
//
// The pattern: the operator keeps its groups in a groupTable; when the
// memory reservation denies a grant, every group is flushed as a
// *partial record* — group columns, serialized accumulator state, and
// the sequence number of the group's first appearance — into hash
// partitions on disk, and the (now empty) table keeps absorbing input.
// At the end each partition is drained independently: partials of the
// same group land in the same partition and merge associatively in a
// groupTable of their own (which flushes one level down under a
// reseeded hash when a skewed partition still exceeds the budget), each
// partition writes its groups' output rows in first-appearance order,
// and the k-way merge on the sequence number reproduces the exact output
// order of the in-memory operator.
package vexec

import (
	"sort"

	"perm/internal/spill"
	"perm/internal/types"
	"perm/internal/vector"
)

const (
	// spillPartitions is the fan-out of one partition pass.
	spillPartitions = 8
	// maxRepartitionDepth bounds recursive repartitioning on skew; a
	// partition that still exceeds the budget at the bottom proceeds
	// in memory with forced accounting (completion over precision).
	maxRepartitionDepth = 4
)

// growQuantum batches reservation traffic: operators accumulate a
// pending byte estimate and ask the accountant in chunks of this size.
const growQuantum = 16 << 10

// groupOverheadBytes approximates the per-group bookkeeping cost (hash
// table entry, sequence number, accumulator slack).
const groupOverheadBytes = 48

// laneBytes estimates the heap footprint of one lane copied into
// accumulator columns.
func laneBytes(cols []*vector.Vec, i int) int64 {
	var n int64
	for _, c := range cols {
		switch c.Kind {
		case types.KindBool:
			n++
		case types.KindString:
			n += 16 + int64(len(c.S[i]))
		default:
			n += 8
		}
	}
	return n + int64(len(cols))/4
}

// partitionOf maps a group/key hash to its partition among the
// partitions written at the given depth. Reseeding with the depth makes
// the levels independent, so a skewed partition genuinely splits when
// repartitioned. Depth 1 takes seed 0 and depth d seed d. Keep it so:
// which groups share a partition decides whether its merge splits a
// group's partials, and so the last digits of a spilled float SUM.
func partitionOf(h uint64, depth int) int {
	seed := uint64(depth)
	if depth == 1 {
		seed = 0
	}
	return int(mix64(h^(0x9e3779b97f4a7c15*(seed+1))) & (spillPartitions - 1))
}

// appendI/appendF/appendB/appendS grow a vector by one non-NULL value,
// extending the null bitmap like AppendFrom does. Their targets are
// record buffers created with room for a batch (newRecordBuf), so the
// appends stay within capacity.
func appendI(v *vector.Vec, x int64) {
	n := len(v.I)
	v.I = append(v.I, x)
	if n>>6 >= len(v.Nulls) {
		v.Nulls = append(v.Nulls, 0)
	}
}

func appendF(v *vector.Vec, x float64) {
	n := len(v.F)
	v.F = append(v.F, x)
	if n>>6 >= len(v.Nulls) {
		v.Nulls = append(v.Nulls, 0)
	}
}

func appendB(v *vector.Vec, x bool) {
	n := len(v.B)
	v.B = append(v.B, x)
	if n>>6 >= len(v.Nulls) {
		v.Nulls = append(v.Nulls, 0)
	}
}

func appendS(v *vector.Vec, x string) {
	n := len(v.S)
	v.S = append(v.S, x)
	if n>>6 >= len(v.Nulls) {
		v.Nulls = append(v.Nulls, 0)
	}
}

// appendValue grows a vector by one row holding a boxed value (NULL or
// of the vector's kind).
func appendValue(v *vector.Vec, val types.Value) {
	n := v.Len()
	switch v.Kind {
	case types.KindBool:
		v.B = append(v.B, false)
	case types.KindInt, types.KindDate:
		v.I = append(v.I, 0)
	case types.KindFloat:
		v.F = append(v.F, 0)
	case types.KindString:
		v.S = append(v.S, "")
	}
	if n>>6 >= len(v.Nulls) {
		v.Nulls = append(v.Nulls, 0)
	}
	v.Set(n, val)
}

// newRecordBuf returns empty record columns with room for one batch.
func newRecordBuf(kinds []types.Kind) []*vector.Vec {
	cols := make([]*vector.Vec, len(kinds))
	for c, k := range kinds {
		cols[c] = vector.NewVecCap(k, vector.BatchSize)
	}
	return cols
}

// resetRecordBuf empties record columns whose rows have been written out.
func resetRecordBuf(cols []*vector.Vec) {
	for _, v := range cols {
		v.Resize(0)
		v.ClearNulls()
	}
}

// runWriter writes one spill run of records over fixed column kinds:
// records appended one at a time (add) into a batch-sized buffer, or
// whole batches (write). The run is created when the first batch leaves.
// finish hands the run over with its bytes noted as spilled, nil when
// nothing was written. A failed write closes the run; abandon closes it
// when the caller fails.
type runWriter struct {
	res   spill.Resources
	kinds []types.Kind
	buf   []*vector.Vec // created with the first record
	n     int
	run   *spill.Run
}

// add appends one record: write appends exactly one value to every
// buffer column.
func (w *runWriter) add(write func(dst []*vector.Vec)) error {
	if w.buf == nil {
		w.buf = newRecordBuf(w.kinds)
	}
	write(w.buf)
	w.n++
	if w.n >= vector.BatchSize {
		return w.flush()
	}
	return nil
}

// write appends a batch of n dense records after the buffered ones.
func (w *runWriter) write(cols []*vector.Vec, n int) error {
	if err := w.flush(); err != nil {
		return err
	}
	return w.put(cols, n)
}

func (w *runWriter) flush() error {
	if w.n == 0 {
		return nil
	}
	if err := w.put(w.buf, w.n); err != nil {
		return err
	}
	resetRecordBuf(w.buf)
	w.n = 0
	return nil
}

func (w *runWriter) put(cols []*vector.Vec, n int) (err error) {
	if w.run == nil {
		if w.run, err = spill.NewRun(w.res.Dir); err != nil {
			return err
		}
	}
	if err = w.run.WriteCols(cols, n); err != nil {
		w.abandon()
	}
	return err
}

func (w *runWriter) finish() (*spill.Run, error) {
	if err := w.flush(); err != nil {
		return nil, err
	}
	run := w.run
	w.run = nil
	if run == nil {
		return nil, nil
	}
	if err := run.Finish(); err != nil {
		run.Close() //nolint:errcheck — unwinding a failed run
		return nil, err
	}
	w.res.Res.NoteSpill(run.Bytes())
	return run, nil
}

// abandon closes the run being written, if any.
func (w *runWriter) abandon() {
	w.run.Close() //nolint:errcheck — temp storage, already unlinked
	w.run = nil
}

// partitionSet routes records by hash into spillPartitions run writers.
// Its depth is the repartitioning level of the partitions it writes,
// which seeds the hash.
type partitionSet struct {
	parts [spillPartitions]runWriter
	depth int
}

func newPartitionSet(res spill.Resources, kinds []types.Kind, depth int) *partitionSet {
	ps := &partitionSet{depth: depth}
	for p := range ps.parts {
		ps.parts[p] = runWriter{res: res, kinds: kinds}
	}
	return ps
}

// addFunc routes one record to the partition of h; write appends exactly
// one value to every buffer column.
func (ps *partitionSet) addFunc(h uint64, write func(dst []*vector.Vec)) error {
	return ps.parts[partitionOf(h, ps.depth)].add(write)
}

// addRecord routes an existing record (one lane of a record batch).
func (ps *partitionSet) addRecord(cols []*vector.Vec, lane int, h uint64) error {
	return ps.addFunc(h, func(dst []*vector.Vec) {
		for c := range dst {
			dst[c].AppendFrom(cols[c], lane)
		}
	})
}

// addRows routes records lo..hi-1 (at most BatchSize) of a record batch
// by the hash of the record columns [key, key+nkeys).
func (ps *partitionSet) addRows(kh *keyHasher, cols []*vector.Vec, lo, hi, key, nkeys int) error {
	hs := kh.rowRange(cols[key:key+nkeys], lo, hi)
	for i := lo; i < hi; i++ {
		if err := ps.addRecord(cols, i, hs[i-lo]); err != nil {
			return err
		}
	}
	return nil
}

// addRun routes every record left in run like addRows.
func (ps *partitionSet) addRun(kh *keyHasher, run *spill.Run, key, nkeys int) error {
	for {
		cols, n, err := run.ReadCols()
		if err != nil || n == 0 {
			return err
		}
		if err := ps.addRows(kh, cols, 0, n, key, nkeys); err != nil {
			return err
		}
	}
}

// finish flushes every partition and returns the finished runs by
// partition, nil where nothing was written, their bytes noted as spilled.
// On error every run of the set is closed.
func (ps *partitionSet) finish() (runs [spillPartitions]*spill.Run, err error) {
	for p := range ps.parts {
		if runs[p], err = ps.parts[p].finish(); err != nil {
			closeRuns(runs[:])
			ps.abandon()
			return [spillPartitions]*spill.Run{}, err
		}
	}
	return runs, nil
}

// abandon closes any runs the set still owns (error unwinding). It is
// nil-safe and a no-op after finish.
func (ps *partitionSet) abandon() {
	if ps == nil {
		return
	}
	for p := range ps.parts {
		ps.parts[p].abandon()
	}
}

// ---------------------------------------------------------------------------
// The partition loop

// partitionItem is one spilled partition awaiting its drain: its runs —
// a grouping operator's partial records, or a join's build and probe
// records, either of them nil — at its repartitioning depth. The
// partitions an operator spills itself are at depth 1.
type partitionItem struct {
	runs  []*spill.Run
	depth int
}

// capped reports whether the item must not split again: it completes in
// memory, over budget if need be (completion over precision).
func (it partitionItem) capped() bool { return it.depth >= maxRepartitionDepth }

// split returns a partition set for the item's records one level down.
func (it partitionItem) split(res spill.Resources, kinds []types.Kind) *partitionSet {
	return newPartitionSet(res, kinds, it.depth+1)
}

// drainPartitions drains spilled partitions depth first, starting from
// the operator's partition sets. process consumes one item and returns
// its output run, or the sets it split the item's records into; the loop
// finishes those and pairs their partitions by index into the next
// items. Each item's runs are closed exactly once, after process. On
// error every run still held — queued items and outputs alike — is
// closed.
func drainPartitions(sets []*partitionSet, process func(partitionItem) (*spill.Run, []*partitionSet, error)) (outs []*spill.Run, err error) {
	var stack []partitionItem
	defer func() {
		if err != nil {
			for _, it := range stack {
				closeRuns(it.runs)
			}
			closeRuns(outs)
			outs = nil
		}
	}()
	push := func(sets []*partitionSet, depth int) error {
		parts := make([][spillPartitions]*spill.Run, len(sets))
		for i, ps := range sets {
			var err error
			if parts[i], err = ps.finish(); err != nil {
				for _, done := range parts[:i] {
					closeRuns(done[:])
				}
				for _, rest := range sets[i+1:] {
					rest.abandon()
				}
				return err
			}
		}
		for p := 0; p < spillPartitions; p++ {
			it := partitionItem{runs: make([]*spill.Run, len(sets)), depth: depth}
			held := false
			for i := range sets {
				it.runs[i] = parts[i][p]
				held = held || it.runs[i] != nil
			}
			if held {
				stack = append(stack, it)
			}
		}
		return nil
	}
	if err = push(sets, 1); err != nil {
		return nil, err
	}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out, children, perr := process(it)
		closeRuns(it.runs)
		if out != nil {
			outs = append(outs, out)
		}
		if perr == nil {
			perr = push(children, it.depth+1)
		}
		if perr != nil {
			return outs, perr
		}
	}
	return outs, nil
}

// ---------------------------------------------------------------------------
// The budgeted group table

// groupStater is the operator-specific per-group state of a group table:
// its record-column serialization, the associative merge of a flushed
// partial back into a live group, and the result columns a finished
// group adds to its data columns.
type groupStater interface {
	// stateKinds describes the state columns of a record.
	stateKinds() []types.Kind
	// reset drops all group state (an emptied table).
	reset()
	// newGroup appends one zero-state group.
	newGroup()
	// appendState serializes group g's state, appending one value per
	// state column.
	appendState(g int, dst []*vector.Vec)
	// mergeState folds record lane of the state columns into group g.
	mergeState(g int, state []*vector.Vec, lane int)
	// resultKinds describes the result columns of a finished group.
	resultKinds() []types.Kind
	// copies is the number of output rows of finished group g.
	copies(g int) int64
	// appendResult appends finished group g's result values, one per
	// result column.
	appendResult(g int, dst []*vector.Vec)
}

// groupTable holds the groups of a grouping operator — hash aggregation,
// DISTINCT, a set operation — or of one partition merge of their spill
// paths, under the operator's memory budget. Group bytes are reserved in
// growQuantum steps; a denied grant flushes every group as a partial
// record into hash partitions and empties the table, which keeps
// absorbing input. A spilled table merges its partitions at the end (a
// partition merge is itself a groupTable, flushing one level down when
// its grant is denied) and streams the groups in first-appearance order
// through a merge on the sequence column.
type groupTable struct {
	set    rowSet
	hasher keyHasher
	st     groupStater
	res    spill.Resources
	// kinds are the data columns of a record, known from the first flush.
	kinds []types.Kind
	// groupBytes is the per-group estimate added to its key lane's bytes.
	groupBytes int64
	budgeted   bool
	// seqs holds each group's first-appearance sequence number (budgeted
	// tables only); seqCtr numbers the groups in insertion order across
	// flushes, which is the order of their first appearance.
	seqs   []int64
	seqCtr int64
	// depth is the repartitioning level of the partitions the table
	// flushes to; forced tables (a partition merge at
	// maxRepartitionDepth) never flush: their grants are forced over
	// budget.
	depth  int
	forced bool

	pending  int64
	accBytes int64
	ps       *partitionSet
	merger   *runMerger
	outRuns  []*spill.Run
}

// open empties the table for a run of the operator whose group state st
// holds; each group accounts groupBytes on top of its key lane.
func (t *groupTable) open(res spill.Resources, st groupStater, groupBytes int64) {
	t.close()
	t.res, t.st, t.groupBytes, t.budgeted = res, st, groupBytes, res.Enabled()
	t.kinds, t.seqs, t.seqCtr, t.depth, t.forced = nil, t.seqs[:0], 0, 1, false
	t.ps = nil
	t.set.reset()
	st.reset()
}

// spilled reports whether the table flushed groups to disk in its last
// run.
func (t *groupTable) spilled() bool { return t.ps != nil }

// admit accounts for a new group over lane of cols. It reports false when
// the budget denied the grant: the caller flushes before inserting the
// group.
func (t *groupTable) admit(cols []*vector.Vec, lane int) bool {
	if !t.budgeted {
		return true
	}
	t.pending += laneBytes(cols, lane) + t.groupBytes
	if t.pending < growQuantum {
		return true
	}
	if t.forced {
		t.res.Res.Force(t.pending)
	} else if !t.res.Res.Grow(t.pending) {
		return false
	}
	t.accBytes += t.pending
	t.pending = 0
	return true
}

// flush writes every group as a partial record — data columns, state
// columns, sequence number — into the partition set, empties the table
// and forces the grant admit was denied.
func (t *groupTable) flush() error {
	if t.set.rows.Len() > 0 {
		if t.ps == nil {
			if t.kinds == nil {
				t.kinds = t.set.rows.Kinds()
			}
			kinds := append(append(append([]types.Kind{}, t.kinds...), t.st.stateKinds()...), types.KindInt)
			t.ps = newPartitionSet(t.res, kinds, t.depth)
		}
		for g, h := range t.set.hashes {
			cols, lane := t.set.rows.At(g)
			err := t.ps.addFunc(h, func(dst []*vector.Vec) {
				for c := range cols {
					dst[c].AppendFrom(cols[c], lane)
				}
				t.st.appendState(g, dst[len(cols):len(dst)-1])
				appendI(dst[len(dst)-1], t.seqs[g])
			})
			if err != nil {
				return err
			}
		}
		t.set.reset()
		t.seqs = t.seqs[:0]
		t.st.reset()
		t.res.Res.Release(t.accBytes)
		t.accBytes = 0
	}
	t.res.Res.Force(t.pending)
	t.accBytes += t.pending
	t.pending = 0
	return nil
}

// insert adds lane of cols (key hash h) as a new zero-state group after
// admit, and returns its id.
func (t *groupTable) insert(cols []*vector.Vec, lane int, h uint64) int32 {
	if t.budgeted {
		t.seqs = append(t.seqs, t.seqCtr)
	}
	t.seqCtr++
	t.st.newGroup()
	return t.set.insert(cols, lane, h)
}

// add admits, flushing when the grant is denied, and inserts a new group.
func (t *groupTable) add(cols []*vector.Vec, lane int, h uint64) (int32, error) {
	if !t.admit(cols, lane) {
		if err := t.flush(); err != nil {
			return -1, err
		}
	}
	return t.insert(cols, lane, h), nil
}

// flushTail flushes the groups still in memory of a spilled table. The
// tail's pending bytes are never granted: its groups are leaving memory.
func (t *groupTable) flushTail() error {
	t.pending = 0
	return t.flush()
}

// finish ends the input. A table that never flushed keeps its groups for
// the operator to emit from memory; a spilled one merges its partitions
// and prepares the merge on the sequence column that streams its output.
func (t *groupTable) finish() (err error) {
	if t.ps == nil {
		return nil
	}
	if err := t.flushTail(); err != nil {
		return err
	}
	if t.outRuns, err = drainPartitions([]*partitionSet{t.ps}, t.mergePartition); err != nil {
		return err
	}
	kinds := append(append([]types.Kind{}, t.kinds...), t.st.resultKinds()...)
	t.merger, err = newSeqMerge(t.outRuns, kinds)
	return err
}

// close releases the table's bytes, partition files and output runs; it
// also unwinds a failed run. spilled keeps reporting the run.
func (t *groupTable) close() {
	t.merger.close()
	t.merger = nil
	t.ps.abandon()
	closeRuns(t.outRuns)
	t.outRuns = nil
	t.set = rowSet{}
	t.res.Res.Release(t.accBytes)
	t.accBytes, t.pending = 0, 0
}

// mergePartition absorbs one partition's partial records: a record of an
// existing group merges its state, the group keeping the smaller
// sequence number. It returns the partition's output run, or the
// partition set one level down when the merge flushed.
func (t *groupTable) mergePartition(it partitionItem) (*spill.Run, []*partitionSet, error) {
	m := &groupTable{}
	m.open(t.res, t.st, t.groupBytes)
	m.kinds = t.kinds
	m.depth, m.forced = it.depth+1, it.capped()
	defer m.close()
	w := len(t.kinds)
	for {
		cols, n, err := it.runs[0].ReadCols()
		if err != nil {
			return nil, nil, err
		}
		if n == 0 {
			break
		}
		data, state, seqs := cols[:w], cols[w:len(cols)-1], cols[len(cols)-1].I
		hs := m.hasher.rowRange(data, 0, n)
		for i := 0; i < n; i++ {
			g := m.set.find(data, i, hs[i])
			if g < 0 {
				if g, err = m.add(data, i, hs[i]); err != nil {
					return nil, nil, err
				}
				m.seqs[g] = seqs[i]
			} else if seqs[i] < m.seqs[g] {
				m.seqs[g] = seqs[i]
			}
			m.st.mergeState(int(g), state, i)
		}
	}
	if !m.spilled() {
		out, err := m.writeOutput()
		return out, nil, err
	}
	if err := m.flushTail(); err != nil {
		return nil, nil, err
	}
	ps := m.ps
	m.ps = nil // the partition loop finishes it
	return nil, []*partitionSet{ps}, nil
}

// writeOutput writes the groups' output rows — each group's copies
// consecutively — in first-appearance order, as one run of data columns,
// result columns and the sequence number; nil when there are none.
func (t *groupTable) writeOutput() (*spill.Run, error) {
	order := make([]int32, 0, len(t.seqs))
	for g := range t.seqs {
		for c := t.st.copies(g); c > 0; c-- {
			order = append(order, int32(g))
		}
	}
	sort.Slice(order, func(x, y int) bool { return t.seqs[order[x]] < t.seqs[order[y]] })
	acc := &t.set.rows
	width := len(t.kinds)
	kinds := append(append(append([]types.Kind{}, t.kinds...), t.st.resultKinds()...), types.KindInt)
	out := append(gatherScratch(t.kinds), newRecordBuf(kinds[width:])...)
	w := &runWriter{res: t.res, kinds: kinds}
	for lo := 0; lo < len(order); lo += vector.BatchSize {
		chunk := order[lo:min(lo+vector.BatchSize, len(order))]
		for c := 0; c < width; c++ {
			acc.GatherCol(c, chunk, out[c])
		}
		resetRecordBuf(out[width:])
		for _, g := range chunk {
			t.st.appendResult(int(g), out[width:len(out)-1])
			appendI(out[len(out)-1], t.seqs[g])
		}
		if err := w.write(out, len(chunk)); err != nil {
			return nil, err
		}
	}
	return w.finish()
}
