// External-sort machinery for the vectorized engine: budget-driven run
// spilling and the k-way streaming merge that reads sorted runs back.
// VecSort switches to this path when its memory reservation denies a
// grant. Intermediate merges go level by level (spill.Reduce), so each
// level rewrites the spilled bytes once. The merge preserves the
// in-memory sort's exact output order (stable, NULLS LAST ascending)
// because runs hold consecutive input segments and ties always resolve to
// the earlier run. The same merge, keyed on a trailing sequence column,
// restores the output order of the spilled grouping operators and of the
// Grace join.
package vexec

import (
	"slices"

	"perm/internal/exec"
	"perm/internal/spill"
	"perm/internal/types"
	"perm/internal/vector"
)

// batchBytes estimates the heap footprint of the given live lanes of a
// batch once copied into accumulator columns. Fixed-width lanes cost
// their payload width, strings their header plus bytes; the null bitmaps
// add a per-column word share.
func batchBytes(cols []*vector.Vec, lanes []int) int64 {
	var n int64
	for _, c := range cols {
		switch c.Kind {
		case types.KindBool:
			n += int64(len(lanes))
		case types.KindString:
			n += int64(len(lanes)) * 16
			for _, i := range lanes {
				n += int64(len(c.S[i]))
			}
		default:
			n += int64(len(lanes)) * 8
		}
	}
	n += int64(len(cols)) * int64(len(lanes)) / 8
	return n
}

// colKinds returns the kinds of a batch's columns.
func colKinds(cols []*vector.Vec) []types.Kind {
	kinds := make([]types.Kind, len(cols))
	for i, c := range cols {
		kinds[i] = c.Kind
	}
	return kinds
}

// sortedOrder computes the stable sort permutation of a table's rows
// under the sort keys (the in-memory VecSort comparator, shared with the
// run writer).
func sortedOrder(t *vector.Table, keys []exec.SortKey, classes []cmpClass) []int32 {
	order := make([]int32, t.Len())
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(i, j int32) int {
		return compareTableRows(t, int(i), int(j), keys, classes)
	})
	return order
}

// gatherScratch returns one unpooled batch-sized vector per kind, the
// reusable staging columns of a run writer: GatherCol refills them and
// WriteCols serializes them before the next refill.
func gatherScratch(kinds []types.Kind) []*vector.Vec {
	cols := make([]*vector.Vec, len(kinds))
	for c, k := range kinds {
		cols[c] = vector.NewVec(k, vector.BatchSize)
	}
	return cols
}

// runCursor walks one sorted run batch-at-a-time during a merge.
type runCursor struct {
	run  *spill.Run
	cols []*vector.Vec
	n    int
	pos  int
}

func (c *runCursor) load() (bool, error) {
	cols, n, err := c.run.ReadCols()
	if err != nil {
		return false, err
	}
	if n == 0 {
		c.cols, c.n, c.pos = nil, 0, 0
		return false, nil
	}
	c.cols, c.n, c.pos = cols, n, 0
	return true, nil
}

// advance moves to the next row, loading the next batch as needed; it
// returns false when the run is exhausted.
func (c *runCursor) advance() (bool, error) {
	c.pos++
	if c.pos < c.n {
		return true, nil
	}
	return c.load()
}

// runMerger is a k-way streaming merge over sorted runs. Ties between
// runs resolve to the lower run index: runs hold consecutive input
// segments, so this reproduces the stable in-memory order exactly.
type runMerger struct {
	cursors []*runCursor
	keys    []exec.SortKey
	classes []cmpClass
	kinds   []types.Kind
	heap    []int // heap of cursor indices, least row on top
	out     mergeOut
}

func newRunMerger(runs []*spill.Run, keys []exec.SortKey, classes []cmpClass, kinds []types.Kind) (*runMerger, error) {
	m := &runMerger{keys: keys, classes: classes, kinds: kinds}
	for _, r := range runs {
		cur := &runCursor{run: r}
		ok, err := cur.load()
		if err != nil {
			return nil, err
		}
		m.cursors = append(m.cursors, cur)
		if ok {
			m.heap = append(m.heap, len(m.cursors)-1)
		}
	}
	spill.Heapify(m.heap, m.less)
	return m, nil
}

// less orders cursor a's current row before cursor b's.
func (m *runMerger) less(a, b int) bool {
	ca, cb := m.cursors[a], m.cursors[b]
	if c := compareSortRows(ca.cols, ca.pos, cb.cols, cb.pos, m.keys, m.classes); c != 0 {
		return c < 0
	}
	return a < b // stability: the earlier input segment wins ties
}

// next emits up to BatchSize merged rows, nil at end of stream. Rows
// leave a cursor in runs: while the cursor on top of the heap stays on
// top after advancing, its rows are consecutive in the output, and the
// whole run is copied column by column in one go.
func (m *runMerger) next() (*vector.Batch, error) {
	if len(m.heap) == 0 {
		return nil, nil
	}
	m.out.begin(m.kinds)
	for m.out.rows < vector.BatchSize && len(m.heap) > 0 {
		ci := m.heap[0]
		cur := m.cursors[ci]
		lo := cur.pos
		for {
			cur.pos++
			if cur.pos >= cur.n || m.out.rows+cur.pos-lo >= vector.BatchSize {
				break
			}
			spill.DownHeap(m.heap, 0, m.less)
			if m.heap[0] != ci {
				break
			}
		}
		m.out.copyRun(cur.cols, lo, cur.pos)
		if cur.pos >= cur.n {
			// Still on top: the inner loop stops before it re-sifts.
			ok, err := cur.load()
			if err != nil {
				return nil, err
			}
			if !ok {
				m.heap[0] = m.heap[len(m.heap)-1]
				m.heap = m.heap[:len(m.heap)-1]
			}
		}
		spill.DownHeap(m.heap, 0, m.less)
	}
	return m.out.batch(), nil
}

// close recycles the last output batch. Nil-safe.
func (m *runMerger) close() {
	if m != nil {
		m.out.free()
	}
}

// mergeOut is the output side of the k-way merges: batch-sized pooled
// vectors filled by position, recycled when the next batch begins (the
// consumer abandoned the previous one by asking for more).
type mergeOut struct {
	cols []*vector.Vec
	rows int
}

func (o *mergeOut) begin(kinds []types.Kind) {
	o.free()
	for _, k := range kinds {
		o.cols = append(o.cols, vector.NewBatchVec(k, vector.BatchSize))
	}
	o.rows = 0
}

// copyRun appends source rows [lo, hi) of the leading len(o.cols) columns.
func (o *mergeOut) copyRun(src []*vector.Vec, lo, hi int) {
	for c, v := range o.cols {
		v.CopyRange(o.rows, src[c], lo, hi)
	}
	o.rows += hi - lo
}

// batch cuts the filled prefix; nil when nothing was copied.
func (o *mergeOut) batch() *vector.Batch {
	if o.rows == 0 {
		return nil
	}
	for _, v := range o.cols {
		v.Resize(o.rows)
	}
	return &vector.Batch{N: o.rows, Cols: o.cols}
}

func (o *mergeOut) free() {
	for _, v := range o.cols {
		v.Free()
	}
	o.cols = o.cols[:0]
}

// mergeRuns merges sorted runs into one new run: an intermediate level
// of the external sort. The caller closes the inputs.
func mergeRuns(res spill.Resources, runs []*spill.Run, keys []exec.SortKey, classes []cmpClass, kinds []types.Kind) (*spill.Run, error) {
	m, err := newRunMerger(runs, keys, classes, kinds)
	if err != nil {
		return nil, err
	}
	defer m.close()
	w := &runWriter{res: res, kinds: kinds}
	for {
		b, err := m.next()
		if err != nil {
			w.abandon()
			return nil, err
		}
		if b == nil {
			return w.finish()
		}
		if err := w.write(b.Cols, b.N); err != nil {
			return nil, err
		}
	}
}

// newSeqMerge merges runs of records whose data columns (of the given
// kinds) are followed by an ascending sequence column, emitting the data
// columns in sequence order: the output of a spilled grouping operator
// or Grace join. A sequence number lives in one run only (a group's
// output rows, a probe row's matches), so ties never span runs.
func newSeqMerge(runs []*spill.Run, kinds []types.Kind) (*runMerger, error) {
	return newRunMerger(runs, []exec.SortKey{{Pos: len(kinds)}}, []cmpClass{classInt}, kinds)
}

// closeRuns closes every run in the slice.
func closeRuns(runs []*spill.Run) {
	for _, r := range runs {
		r.Close() //nolint:errcheck — temp storage, already unlinked
	}
}
