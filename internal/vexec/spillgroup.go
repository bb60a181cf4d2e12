// Grace-style partition spilling for the grouping operators (hash
// aggregation, DISTINCT, set operations) and the shared partition /
// merge machinery the Grace hash join reuses.
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
// partition's groups are finalized in first-appearance order, and a
// k-way merge on the sequence number reproduces the exact output order
// of the in-memory operator.
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

// partitionOf maps a group/key hash to its partition at the given
// repartitioning depth. Reseeding with the depth makes the levels
// independent, so a skewed partition genuinely splits when repartitioned.
func partitionOf(h uint64, seed uint64) int {
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

// partitionSet buffers and routes records into spillPartitions runs by
// hash. Records are fixed-layout rows over the given column kinds.
type partitionSet struct {
	res   spill.Resources
	kinds []types.Kind
	seed  uint64
	runs  [spillPartitions]*spill.Run
	bufs  [spillPartitions][]*vector.Vec
	bufN  [spillPartitions]int
}

func newPartitionSet(res spill.Resources, kinds []types.Kind, seed uint64) *partitionSet {
	return &partitionSet{res: res, kinds: kinds, seed: seed}
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

func (ps *partitionSet) buf(p int) []*vector.Vec {
	if ps.bufs[p] == nil {
		ps.bufs[p] = newRecordBuf(ps.kinds)
	}
	return ps.bufs[p]
}

func (ps *partitionSet) flush(p int) error {
	if ps.bufN[p] == 0 {
		return nil
	}
	if ps.runs[p] == nil {
		run, err := spill.NewRun(ps.res.Dir)
		if err != nil {
			return err
		}
		ps.runs[p] = run
	}
	if err := ps.runs[p].WriteCols(ps.bufs[p], ps.bufN[p]); err != nil {
		return err
	}
	resetRecordBuf(ps.bufs[p])
	ps.bufN[p] = 0
	return nil
}

// addFunc routes one record to the partition of h; write appends exactly
// one value to every buffer column.
func (ps *partitionSet) addFunc(h uint64, write func(dst []*vector.Vec)) error {
	p := partitionOf(h, ps.seed)
	write(ps.buf(p))
	ps.bufN[p]++
	if ps.bufN[p] >= vector.BatchSize {
		return ps.flush(p)
	}
	return nil
}

// addRecord routes an existing record (one lane of a record batch).
func (ps *partitionSet) addRecord(cols []*vector.Vec, lane int, h uint64) error {
	return ps.addFunc(h, func(dst []*vector.Vec) {
		for c := range dst {
			dst[c].AppendFrom(cols[c], lane)
		}
	})
}

// finish flushes all buffers and returns the non-empty partition runs,
// ready for reading. Spilled bytes are noted on the reservation. On
// error the set self-cleans: every run — transferred or still owned —
// is closed.
func (ps *partitionSet) finish() ([]*spill.Run, error) {
	var out []*spill.Run
	for p := 0; p < spillPartitions; p++ {
		if err := ps.flush(p); err != nil {
			closeRuns(out)
			ps.abandon()
			return nil, err
		}
		if ps.runs[p] == nil {
			continue
		}
		if err := ps.runs[p].Finish(); err != nil {
			closeRuns(out)
			ps.abandon()
			return nil, err
		}
		ps.res.Res.NoteSpill(ps.runs[p].Bytes())
		out = append(out, ps.runs[p])
		ps.runs[p] = nil
	}
	return out, nil
}

// finishAll flushes all buffers and returns the runs indexed by
// partition (nil entries for empty partitions), for consumers that must
// pair runs across two sets (the Grace join's build and probe sides).
// On error the set self-cleans like finish.
func (ps *partitionSet) finishAll() ([spillPartitions]*spill.Run, error) {
	var out [spillPartitions]*spill.Run
	fail := func() {
		for p := range out {
			out[p].Close() //nolint:errcheck
			out[p] = nil
		}
		ps.abandon()
	}
	for p := 0; p < spillPartitions; p++ {
		if err := ps.flush(p); err != nil {
			fail()
			return out, err
		}
		if ps.runs[p] == nil {
			continue
		}
		if err := ps.runs[p].Finish(); err != nil {
			fail()
			return out, err
		}
		ps.res.Res.NoteSpill(ps.runs[p].Bytes())
		out[p] = ps.runs[p]
		ps.runs[p] = nil
	}
	return out, nil
}

// abandon closes any runs the set still owns (error unwinding). It is
// nil-safe and a no-op after a successful finish.
func (ps *partitionSet) abandon() {
	if ps == nil {
		return
	}
	for p := 0; p < spillPartitions; p++ {
		if ps.runs[p] != nil {
			ps.runs[p].Close() //nolint:errcheck
			ps.runs[p] = nil
		}
	}
}

// ---------------------------------------------------------------------------
// Sequence merge

// seqMerger streams the union of output runs ordered by their trailing
// sequence column, optionally expanding a multiplicity column (set
// operations). Every emitted batch holds the leading width data columns
// only. Runs are individually seq-ascending and their seq ranges
// interleave arbitrarily; equal seqs only occur within one run (a
// group's — or probe row's — records never span runs), where file order
// is already the in-memory emission order.
type seqMerger struct {
	cursors []*runCursor
	width   int
	multCol int // -1: no multiplicity
	seqCol  int
	kinds   []types.Kind
	heap    []int
	rem     int64 // remaining repeats of the current head record
	out     mergeOut
}

func newSeqMerger(runs []*spill.Run, width, multCol, seqCol int) (*seqMerger, error) {
	m := &seqMerger{width: width, multCol: multCol, seqCol: seqCol}
	for _, r := range runs {
		cur := &runCursor{run: r}
		ok, err := cur.load()
		if err != nil {
			return nil, err
		}
		m.cursors = append(m.cursors, cur)
		if ok {
			if m.kinds == nil {
				m.kinds = colKinds(cur.cols[:width])
			}
			m.heap = append(m.heap, len(m.cursors)-1)
		}
	}
	spill.Heapify(m.heap, m.less)
	m.primeRem()
	return m, nil
}

func (m *seqMerger) seqAt(ci int) int64 {
	cur := m.cursors[ci]
	return cur.cols[m.seqCol].I[cur.pos]
}

func (m *seqMerger) less(a, b int) bool {
	sa, sb := m.seqAt(a), m.seqAt(b)
	if sa != sb {
		return sa < sb
	}
	return a < b
}

// primeRem loads the multiplicity of the current head record.
func (m *seqMerger) primeRem() {
	if len(m.heap) == 0 {
		m.rem = 0
		return
	}
	if m.multCol < 0 {
		m.rem = 1
		return
	}
	cur := m.cursors[m.heap[0]]
	m.rem = cur.cols[m.multCol].I[cur.pos]
}

// next emits up to BatchSize merged rows, nil at end of stream.
func (m *seqMerger) next() (*vector.Batch, error) {
	if len(m.heap) == 0 {
		return nil, nil
	}
	m.out.begin(m.kinds)
	for m.out.rows < vector.BatchSize && len(m.heap) > 0 {
		cur := m.cursors[m.heap[0]]
		for m.rem > 0 && m.out.rows < vector.BatchSize {
			m.out.copyRun(cur.cols, cur.pos, cur.pos+1)
			m.rem--
		}
		if m.rem > 0 {
			break // batch full mid-expansion; resume next call
		}
		ok, err := cur.advance()
		if err != nil {
			return nil, err
		}
		if !ok {
			m.heap[0] = m.heap[len(m.heap)-1]
			m.heap = m.heap[:len(m.heap)-1]
		}
		spill.DownHeap(m.heap, 0, m.less)
		m.primeRem()
	}
	return m.out.batch(), nil
}

// close recycles the last output batch. Nil-safe.
func (m *seqMerger) close() {
	if m != nil {
		m.out.free()
	}
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
	// emits reports whether finished group g has an output row.
	emits(g int) bool
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
// through a sequence merge.
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
	// seed is the partition hash seed of the flushes; forced tables (a
	// partition merge at maxRepartitionDepth) never flush: their grants
	// are forced over budget.
	seed   uint64
	forced bool

	pending  int64
	accBytes int64
	ps       *partitionSet
	merger   *seqMerger
	outRuns  []*spill.Run
}

// open empties the table for a run of the operator whose group state st
// holds; each group accounts groupBytes on top of its key lane.
func (t *groupTable) open(res spill.Resources, st groupStater, groupBytes int64) {
	t.close()
	t.res, t.st, t.groupBytes, t.budgeted = res, st, groupBytes, res.Enabled()
	t.kinds, t.seqs, t.seqCtr, t.seed, t.forced = nil, t.seqs[:0], 0, 0, false
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
			t.ps = newPartitionSet(t.res, kinds, t.seed)
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

// spillTail flushes the groups still in memory and returns the
// partition runs of a spilled table. The tail's pending bytes are never
// granted: its groups are leaving memory.
func (t *groupTable) spillTail() ([]*spill.Run, error) {
	t.pending = 0
	if err := t.flush(); err != nil {
		return nil, err
	}
	return t.ps.finish()
}

// finish ends the input. A table that never flushed keeps its groups for
// the operator to emit from memory; a spilled one merges its partitions
// and prepares the sequence merge that streams its output. counted marks
// the first result column as each output row's multiplicity (set
// operations).
func (t *groupTable) finish(counted bool) error {
	if t.ps == nil {
		return nil
	}
	runs, err := t.spillTail()
	if err != nil {
		return err
	}
	if t.outRuns, err = t.mergePartitions(runs); err != nil {
		return err
	}
	width := len(t.kinds) + len(t.st.resultKinds())
	multCol, seqCol := -1, width
	if counted {
		width--
		multCol, seqCol = width, width+1
	}
	t.merger, err = newSeqMerger(t.outRuns, width, multCol, seqCol)
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

// groupWorkItem is one partition run awaiting its merge; the live
// table's partitions are at depth 1.
type groupWorkItem struct {
	run   *spill.Run
	depth int
}

// mergePartitions drains the partition runs of a spilled table: each
// partition's partial records merge in a table of their own, which
// splits into child partitions when its grant is denied, and the
// partition's groups leave in first-appearance order as one output run.
// The returned runs feed a seqMerger.
func (t *groupTable) mergePartitions(runs []*spill.Run) (outputs []*spill.Run, err error) {
	stack := make([]groupWorkItem, 0, len(runs))
	for _, r := range runs {
		stack = append(stack, groupWorkItem{run: r, depth: 1})
	}
	defer func() {
		if err != nil {
			for _, it := range stack {
				it.run.Close() //nolint:errcheck — unwinding a failed merge
			}
			closeRuns(outputs)
		}
	}()
	for len(stack) > 0 {
		item := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		children, out, perr := t.mergePartition(item)
		if perr != nil {
			err = perr
			return outputs, err
		}
		for _, r := range children {
			stack = append(stack, groupWorkItem{run: r, depth: item.depth + 1})
		}
		if out != nil {
			outputs = append(outputs, out)
		}
	}
	return outputs, nil
}

// mergePartition absorbs one partition's partial records: a record of an
// existing group merges its state, the group keeping the smaller
// sequence number. It returns the child partitions when the merge
// flushed, or else the partition's output run. The item's run is always
// closed.
func (t *groupTable) mergePartition(item groupWorkItem) (children []*spill.Run, out *spill.Run, err error) {
	defer item.run.Close() //nolint:errcheck — temp storage, already unlinked
	m := &groupTable{}
	m.open(t.res, t.st, t.groupBytes)
	m.kinds = t.kinds
	m.seed, m.forced = uint64(item.depth)+1, item.depth >= maxRepartitionDepth
	defer m.close()
	w := len(t.kinds)
	for {
		cols, n, err := item.run.ReadCols()
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
	if m.spilled() {
		children, err = m.spillTail()
		return children, nil, err
	}
	out, err = m.writeOutput()
	return nil, out, err
}

// writeOutput writes the groups that have an output row, in
// first-appearance order, as one run of data columns, result columns and
// the sequence number; nil when no group has one.
func (t *groupTable) writeOutput() (*spill.Run, error) {
	order := make([]int32, 0, len(t.seqs))
	for g := range t.seqs {
		if t.st.emits(g) {
			order = append(order, int32(g))
		}
	}
	if len(order) == 0 {
		return nil, nil
	}
	sort.Slice(order, func(x, y int) bool { return t.seqs[order[x]] < t.seqs[order[y]] })
	run, err := spill.NewRun(t.res.Dir)
	if err != nil {
		return nil, err
	}
	acc := &t.set.rows
	width := len(t.kinds)
	extra := append(append([]types.Kind{}, t.st.resultKinds()...), types.KindInt)
	out := append(gatherScratch(t.kinds), newRecordBuf(extra)...)
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
		if err := run.WriteCols(out, len(chunk)); err != nil {
			run.Close() //nolint:errcheck
			return nil, err
		}
	}
	if err := run.Finish(); err != nil {
		run.Close() //nolint:errcheck
		return nil, err
	}
	t.res.Res.NoteSpill(run.Bytes())
	return run, nil
}
