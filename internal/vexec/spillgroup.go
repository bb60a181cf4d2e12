// Grace-style partition spilling for the grouping operators (hash
// aggregation, DISTINCT, set operations) and the shared partition /
// merge machinery the Grace hash join reuses.
//
// The pattern: the operator aggregates into its in-memory table as
// usual; when the memory reservation denies a grant, every group is
// flushed as a *partial record* — group columns, serialized accumulator
// state, and the sequence number of the group's first appearance — into
// hash partitions on disk, and the (now empty) table keeps absorbing
// input. At the end each partition is drained independently: partials of
// the same group land in the same partition and merge associatively
// (recursively repartitioning with a reseeded hash when a skewed
// partition still exceeds the budget), each partition's groups are
// finalized in first-appearance order, and a k-way merge on the sequence
// number reproduces the exact output order of the in-memory operator.
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
// Generic partition processing for grouping operators

// groupStater is the operator-specific per-group accumulator state that
// survives a partial-group flush: its record-column serialization and
// the associative merge of a flushed partial back into a live group.
type groupStater interface {
	// stateKinds describes the state columns of a record.
	stateKinds() []types.Kind
	// reset drops all group state (a fresh partition table).
	reset()
	// newGroup appends one zero-state group.
	newGroup()
	// appendState serializes group g's state, appending one value per
	// state column.
	appendState(g int, dst []*vector.Vec)
	// mergeState folds record lane of the state columns into group g.
	mergeState(g int, state []*vector.Vec, lane int)
}

// groupFinalizer writes one partition's finished groups (in the given
// first-appearance order) as an output run ending in the seq column.
type groupFinalizer func(res spill.Resources, acc *vector.Table, seqs []int64, order []int32) (*spill.Run, error)

// recordKinds assembles the record layout: data columns, state columns,
// then the sequence column.
func recordKinds(dataKinds []types.Kind, st groupStater) []types.Kind {
	kinds := append(append([]types.Kind{}, dataKinds...), st.stateKinds()...)
	return append(kinds, types.KindInt)
}

// flushGroupRecords writes every live group as a partial record into the
// partition set.
func flushGroupRecords(ps *partitionSet, set *rowSet, seqs []int64, st groupStater) error {
	for g, h := range set.hashes {
		cols, lane := set.rows.At(g)
		dataWidth := len(cols)
		err := ps.addFunc(h, func(dst []*vector.Vec) {
			for c := 0; c < dataWidth; c++ {
				dst[c].AppendFrom(cols[c], lane)
			}
			st.appendState(g, dst[dataWidth:len(dst)-1])
			appendI(dst[len(dst)-1], seqs[g])
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// groupWorkItem is one partition run awaiting processing.
type groupWorkItem struct {
	run   *spill.Run
	depth int
	seed  uint64
}

// seqOrder returns group indices ordered by ascending first-appearance
// sequence number.
func seqOrder(seqs []int64, n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(x, y int) bool { return seqs[order[x]] < seqs[order[y]] })
	return order
}

// processGroupPartitions drains the partition runs of a spilled grouping
// operator: each partition's partial records merge into a fresh table
// (repartitioning recursively when a skewed partition still exceeds the
// budget), and finalize writes its groups in first-appearance order as
// one output run. The returned runs feed a seqMerger.
func processGroupPartitions(res spill.Resources, runs []*spill.Run, dataKinds []types.Kind,
	st groupStater, finalize groupFinalizer) (outputs []*spill.Run, err error) {
	stack := make([]groupWorkItem, 0, len(runs))
	for _, r := range runs {
		stack = append(stack, groupWorkItem{run: r, depth: 1, seed: 1})
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
		children, out, perr := processOneGroupPartition(res, item, dataKinds, st, finalize)
		if perr != nil {
			err = perr
			return outputs, err
		}
		for _, r := range children {
			stack = append(stack, groupWorkItem{run: r, depth: item.depth + 1, seed: item.seed + 1})
		}
		if out != nil {
			outputs = append(outputs, out)
		}
	}
	return outputs, nil
}

// processOneGroupPartition merges one partition's partial records. It
// returns child partitions when the partition had to be split further,
// or the partition's finalized output run. The item's run is always
// closed.
func processOneGroupPartition(res spill.Resources, item groupWorkItem, dataKinds []types.Kind,
	st groupStater, finalize groupFinalizer) (children []*spill.Run, out *spill.Run, err error) {
	defer item.run.Close() //nolint:errcheck — temp storage, already unlinked
	dataWidth := len(dataKinds)
	var acc rowSet
	var hasher keyHasher
	var seqs []int64
	acc.reset()
	st.reset()
	var itemBytes int64
	defer func() { res.Res.Release(itemBytes) }()
	for {
		cols, n, rerr := item.run.ReadCols()
		if rerr != nil {
			return nil, nil, rerr
		}
		if n == 0 {
			break
		}
		delta := batchBytes(cols, identitySel[:n])
		granted := res.Res.Grow(delta)
		if !granted && item.depth < maxRepartitionDepth {
			// Skewed partition: push everything seen so far (the live
			// partial groups) plus the rest of the run one level down
			// under a reseeded hash.
			ps := newPartitionSet(res, recordKinds(dataKinds, st), item.seed+1)
			if err := flushGroupRecords(ps, &acc, seqs, st); err != nil {
				ps.abandon()
				return nil, nil, err
			}
			if err := repartitionRecords(ps, &hasher, item.run, cols, n, dataWidth); err != nil {
				ps.abandon()
				return nil, nil, err
			}
			children, err := ps.finish()
			if err != nil {
				ps.abandon()
				return nil, nil, err
			}
			return children, nil, nil
		}
		if !granted {
			res.Res.Force(delta) // depth exhausted: complete over budget
		}
		itemBytes += delta
		dataCols := cols[:dataWidth]
		stateCols := cols[dataWidth : len(cols)-1]
		seqCol := cols[len(cols)-1]
		hs := hasher.rowRange(dataCols, 0, n)
		for i := 0; i < n; i++ {
			g := acc.find(dataCols, i, hs[i])
			if g < 0 {
				g = acc.insert(dataCols, i, hs[i])
				st.newGroup()
				seqs = append(seqs, seqCol.I[i])
			} else if s := seqCol.I[i]; s < seqs[g] {
				seqs[g] = s
			}
			st.mergeState(int(g), stateCols, i)
		}
	}
	out, err = finalize(res, &acc.rows, seqs, seqOrder(seqs, acc.rows.Len()))
	if err != nil {
		return nil, nil, err
	}
	return nil, out, nil
}

// repartitionRecords routes the current batch and the rest of the run
// into the child partition set, hashing each record's data columns.
func repartitionRecords(ps *partitionSet, hasher *keyHasher, run *spill.Run, cols []*vector.Vec, n, dataWidth int) error {
	for {
		if n > 0 {
			hs := hasher.rowRange(cols[:dataWidth], 0, n)
			for i := 0; i < n; i++ {
				if err := ps.addRecord(cols, i, hs[i]); err != nil {
					return err
				}
			}
		}
		var err error
		cols, n, err = run.ReadCols()
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
	}
}

// writeGroupRun writes finished groups (data columns in the given order,
// plus extra columns supplied by emit) as one seq-terminated output run.
// emit appends the extra column values for one group; the seq column is
// written by the caller through it.
func writeGroupRun(res spill.Resources, acc *vector.Table, order []int32,
	extraKinds []types.Kind, emit func(g int32, extra []*vector.Vec)) (*spill.Run, error) {
	run, err := spill.NewRun(res.Dir)
	if err != nil {
		return nil, err
	}
	width := len(acc.Kinds())
	out := append(gatherScratch(acc.Kinds()), newRecordBuf(extraKinds)...)
	for lo := 0; lo < len(order); lo += vector.BatchSize {
		hi := lo + vector.BatchSize
		if hi > len(order) {
			hi = len(order)
		}
		chunk := order[lo:hi]
		for c := 0; c < width; c++ {
			acc.GatherCol(c, chunk, out[c])
		}
		resetRecordBuf(out[width:])
		for _, g := range chunk {
			emit(g, out[width:])
		}
		if err := run.WriteCols(out, hi-lo); err != nil {
			run.Close() //nolint:errcheck
			return nil, err
		}
	}
	if err := run.Finish(); err != nil {
		run.Close() //nolint:errcheck
		return nil, err
	}
	res.Res.NoteSpill(run.Bytes())
	return run, nil
}
