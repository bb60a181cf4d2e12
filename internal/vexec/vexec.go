// Package vexec implements the batch-at-a-time (vectorized) physical
// operators of the Perm engine: columnar scans over heap column
// snapshots (with runtime join-filter pushdown), filters driven by
// selection vectors, projections over vectorized expressions, hash joins
// (inner and left outer, with the null-safe key variant the provenance
// join-back conditions require), hash aggregation, rule R5's join-back
// over one evaluation of its input (AggAttach), sorting/top-N, duplicate
// elimination and bag/set operations. The planner lowers a plan subtree
// to these operators when every operator and expression in it is
// supported, and bridges back to the row-at-a-time engine (package exec)
// through RowSource wherever it is not. This package does not depend on
// the row engine: the vocabulary both share (join, set-operation and
// aggregate kinds, sort keys, the expression binder) lives in algebra.
//
// Batch-buffer discipline: an operator must abandon all references to a
// batch obtained from its child before calling the child's Next again;
// in exchange, producers may recycle the buffers behind a previously
// emitted batch on their next Next call. This is what lets the
// expression kernels and emitting operators draw their vectors from the
// shared pool (vector.NewBatchVec/Free) instead of allocating per batch.
package vexec

import (
	"perm/internal/algebra"
	"perm/internal/obs"
	"perm/internal/spill"
	"perm/internal/types"
	"perm/internal/vector"
)

// Node is a batch iterator. Next returns (nil, nil) at end of stream.
// Returned batches are immutable until the consumer's next Next call on
// this node; consumers that need longer-lived data must copy it out
// (every materializing operator in this package does).
type Node interface {
	Open() error
	Next() (*vector.Batch, error)
	Close() error
}

// ---------------------------------------------------------------------------
// ColScan

// rfBinding attaches one runtime join filter to a scan column. The scan
// counts tested/admitted lanes and retires bindings that stop pruning
// (a dense Bloom filter costs hashing without saving work downstream).
type rfBinding struct {
	rf       *RuntimeFilter
	col      int
	tested   int
	admitted int
	dead     bool
}

// rfMinTested and rfKeepFrac steer the adaptive retirement: after
// rfMinTested lanes, a binding that admits more than rfKeepFrac of them
// is turned off for the rest of the scan.
const (
	rfMinTested = 4096
	rfKeepFrac  = 0.9
)

// ColScan iterates a columnar snapshot of a base table in BatchSize
// windows, applying any runtime join filters pushed down onto it as an
// extra selection pass before the batch leaves the scan.
type ColScan struct {
	obs.Card
	Cols    []*vector.Vec
	NumRows int
	// Table names the relation this scan reads (not rendered in EXPLAIN;
	// folded into the structural plan hash so scans of equally-sized
	// relations stay distinguishable).
	Table string
	// RowIDs appends one int column to every batch, after Cols: each
	// lane's row id in the snapshot, by which a consumer that keeps rows
	// (the join-back's store) gathers their columns again later.
	RowIDs bool
	// The scan windows rows [pos, end): the whole snapshot, or in a
	// parallel plan the morsel an exchange assigned it (SetMorsel).
	pos, end int

	rfs     []rfBinding
	rfWork  rfScratch
	winCols []*vector.Vec
	winVecs []vector.Vec
	ids     []int64 // the row-id column's storage
	selBuf  []int

	// aq, when set, is polled for cooperative cancellation once per
	// batch window. Scans sit under every long-running phase (sort and
	// hash builds pull their input through them), so a CANCEL reaches
	// even a query that is still materializing.
	aq *obs.ActiveQuery
}

// NewColScan returns a columnar scan over n rows.
func NewColScan(cols []*vector.Vec, n int) *ColScan {
	return &ColScan{Cols: cols, NumRows: n}
}

// AddRuntimeFilter registers a runtime join filter against column col.
// The producing hash join publishes the filter when its build side is
// complete; until then the binding passes everything through.
func (s *ColScan) AddRuntimeFilter(rf *RuntimeFilter, col int) {
	s.rfs = append(s.rfs, rfBinding{rf: rf, col: col})
}

// HasRuntimeFilters reports whether any runtime filters are bound to the
// scan (EXPLAIN).
func (s *ColScan) HasRuntimeFilters() bool { return len(s.rfs) > 0 }

// SetMorsel assigns the opened scan rows [lo, hi) of its snapshot: Next
// windows them and then reports the end of the stream.
// The spine above resumes when the exchange assigns the next morsel:
// filters, projections and joins on a probe spine all pull their input
// afresh after it ended.
func (s *ColScan) SetMorsel(lo, hi int) { s.pos, s.end = lo, hi }

// SetActivity attaches the active-query record whose cancellation flag
// the scan polls at every batch boundary (nil: never cancelled).
func (s *ColScan) SetActivity(aq *obs.ActiveQuery) { s.aq = aq }

// RuntimeFilterStats sums the tested/admitted lane counts over the
// scan's runtime-filter bindings (EXPLAIN ANALYZE).
func (s *ColScan) RuntimeFilterStats() (tested, admitted int) {
	for i := range s.rfs {
		tested += s.rfs[i].tested
		admitted += s.rfs[i].admitted
	}
	return tested, admitted
}

func (s *ColScan) Open() error {
	s.pos, s.end = 0, s.NumRows
	for i := range s.rfs {
		s.rfs[i].tested, s.rfs[i].admitted, s.rfs[i].dead = 0, 0, false
	}
	if s.winCols == nil {
		width := len(s.Cols)
		if s.RowIDs {
			width++
			s.ids = make([]int64, vector.BatchSize)
		}
		s.winVecs = make([]vector.Vec, width)
		s.winCols = make([]*vector.Vec, width)
		for j := range s.winVecs {
			s.winCols[j] = &s.winVecs[j]
		}
		if s.RowIDs {
			s.winVecs[width-1] = vector.Vec{Kind: types.KindInt, Nulls: vector.NewBitmap(vector.BatchSize)}
		}
	}
	return nil
}

func (s *ColScan) Next() (*vector.Batch, error) {
	if err := s.aq.CancelErr(); err != nil {
		return nil, err
	}
	for {
		if s.pos >= s.end {
			return nil, nil
		}
		hi := min(s.pos+vector.BatchSize, s.end)
		for j, c := range s.Cols {
			c.WindowInto(s.pos, hi, s.winCols[j])
		}
		if s.RowIDs {
			ids := s.ids[:hi-s.pos]
			for i := range ids {
				ids[i] = int64(s.pos + i)
			}
			s.winVecs[len(s.Cols)].I = ids
		}
		b := &vector.Batch{N: hi - s.pos, Cols: s.winCols}
		s.pos = hi
		if !s.anyReadyFilter() {
			return b, nil
		}
		// Every ready binding narrows the window's lanes in turn (a lane one
		// filter rejected is never tested by the next); readiness and
		// retirement are decided per window, not per lane.
		sel := identitySel[:b.N]
		for bi := range s.rfs {
			bind := &s.rfs[bi]
			if bind.dead || !bind.rf.Ready() {
				continue
			}
			bind.tested += len(sel)
			sel = bind.rf.admit(b.Cols[bind.col], sel, selScratch(&s.selBuf, b.N), &s.rfWork)
			bind.admitted += len(sel)
			if bind.tested >= rfMinTested && float64(bind.admitted) > rfKeepFrac*float64(bind.tested) {
				bind.dead = true
			}
			if len(sel) == 0 {
				break
			}
		}
		if len(sel) == 0 {
			continue
		}
		if len(sel) < b.N {
			b.Sel = sel
		}
		return b, nil
	}
}

// view reports whether v is one of the scan's windows onto its snapshot
// columns (the row-id column is rewritten every batch, so it is not).
func (s *ColScan) view(v *vector.Vec) bool {
	for i := range s.Cols {
		if v == &s.winVecs[i] {
			return true
		}
	}
	return false
}

func (s *ColScan) anyReadyFilter() bool {
	for i := range s.rfs {
		if !s.rfs[i].dead && s.rfs[i].rf.Ready() {
			return true
		}
	}
	return false
}

func (s *ColScan) Close() error { return nil }

// ---------------------------------------------------------------------------
// Filter

// Filter narrows each batch's selection vector to the rows where the
// predicate is TRUE; batches with no surviving rows are skipped.
type Filter struct {
	obs.Card
	Input Node
	Pred  *Expr
}

// NewFilter returns a vectorized filter. Pred must have kind bool.
func NewFilter(input Node, pred *Expr) *Filter {
	return &Filter{Input: input, Pred: pred}
}

func (f *Filter) Open() error { return f.Input.Open() }

func (f *Filter) Next() (*vector.Batch, error) {
	for {
		b, err := f.Input.Next()
		if err != nil || b == nil {
			return nil, err
		}
		out, err := f.Pred.selectTrue(b, b.Sel)
		if err != nil {
			return nil, err
		}
		if out == nil {
			return b, nil // no selection came in and every row passed
		}
		if len(out) == 0 {
			continue
		}
		return &vector.Batch{N: b.N, Cols: b.Cols, Sel: out}, nil
	}
}

func (f *Filter) Close() error { return f.Input.Close() }

// ---------------------------------------------------------------------------
// Project

// Project computes output expressions per batch, passing the selection
// vector through unchanged. Output vectors it owns (kernel results) are
// recycled once the consumer abandons the emitted batch.
type Project struct {
	obs.Card
	Input Node
	Exprs []*Expr

	colsBuf []*vector.Vec
	owned   []*vector.Vec
}

// NewProject returns a vectorized projection.
func NewProject(input Node, exprs []*Expr) *Project {
	return &Project{Input: input, Exprs: exprs}
}

func (p *Project) Open() error { return p.Input.Open() }

func (p *Project) Next() (*vector.Batch, error) {
	b, err := p.Input.Next()
	if err != nil || b == nil {
		p.recycle()
		return nil, err
	}
	p.recycle()
	if p.colsBuf == nil {
		p.colsBuf = make([]*vector.Vec, len(p.Exprs))
	}
	cols := p.colsBuf
	for j, e := range p.Exprs {
		v, err := e.eval(b, b.Sel)
		if err != nil {
			return nil, err
		}
		cols[j] = v
		if !e.aliasing {
			p.owned = append(p.owned, v)
		}
	}
	return &vector.Batch{N: b.N, Cols: cols, Sel: b.Sel}, nil
}

// recycle frees the kernel results behind the previously emitted batch
// (its consumer has abandoned it, or the stream ended).
func (p *Project) recycle() {
	for _, v := range p.owned {
		v.Free()
	}
	p.owned = p.owned[:0]
}

func (p *Project) Close() error {
	p.recycle()
	return p.Input.Close()
}

// ---------------------------------------------------------------------------
// Hash join

// HashJoin is a vectorized equi-join; the right input is the build side.
// NullSafe marks keys compared with IS NOT DISTINCT FROM semantics.
// Residual conditions are handled by the planner as a Filter above an
// inner join; left joins with residuals fall back to the row engine.
//
// Publish, when non-nil, carries one optional runtime filter per key;
// when the build side completes, each filter is published (min/max range
// plus Bloom filter over the build keys) so probe-side scans can prune
// tuples before they ever reach the join.
type HashJoin struct {
	obs.Card
	Left, Right Node
	LeftKeys    []*Expr
	RightKeys   []*Expr
	NullSafe    []bool
	Type        algebra.JoinKind // JoinInner or JoinLeft: right and full joins run on the row engine
	LeftKinds   []types.Kind
	RightKinds  []types.Kind
	Publish     []*RuntimeFilter
	Spill       spill.Resources

	build      vector.Table  // build rows: the right columns, then the evaluated keys
	buildRow   []*vector.Vec // scratch: one batch's columns plus keys
	index      hashIndex     // key hash → chain of build rows, in input order
	hasher     keyHasher
	keyBuf     []*vector.Vec // scratch: one batch's evaluated keys
	laneBuf    []int
	neverMatch bool

	curBatch   *vector.Batch
	outL, outR []int32 // pending (probe lane, build row) pairs; build -1 = null-extend
	outPos     int
	emitOwned  []*vector.Vec
	emitBuf    []*vector.Vec

	grace      *graceJoin
	buildBytes int64
	// owner, when set, is the replica of this join whose build side this
	// one probes instead of building its own (an exchange's helpers share
	// worker 0's builds). The owner finishes its Open before this join
	// opens, and keeps its table until this join has closed.
	owner    *HashJoin
	leftOpen bool
	aq       *obs.ActiveQuery
}

// NewHashJoin returns a vectorized hash join node.
func NewHashJoin(left, right Node, leftKeys, rightKeys []*Expr, nullSafe []bool,
	jt algebra.JoinKind, leftKinds, rightKinds []types.Kind) *HashJoin {
	return &HashJoin{
		Left: left, Right: right,
		LeftKeys: leftKeys, RightKeys: rightKeys, NullSafe: nullSafe,
		Type: jt, LeftKinds: leftKinds, RightKinds: rightKinds,
	}
}

// PublishesFilters reports whether the join feeds any runtime filters
// (EXPLAIN).
func (j *HashJoin) PublishesFilters() bool {
	for _, rf := range j.Publish {
		if rf != nil {
			return true
		}
	}
	return false
}

func (j *HashJoin) Open() (err error) {
	// A non-null-safe key pair outside the comparable classes can never
	// match (the row engine's Equal would reject it too). Null-safe keys
	// are exempt: NULL IS NOT DISTINCT FROM NULL matches regardless of
	// the declared kinds, and non-NULL incomparable lanes already land in
	// different hash buckets.
	j.neverMatch = false
	for k := range j.LeftKeys {
		if !j.NullSafe[k] && classify(j.LeftKeys[k].Kind(), j.RightKeys[k].Kind()) == classNone {
			j.neverMatch = true
		}
	}
	if j.owner != nil {
		j.grace, j.build, j.index = nil, j.owner.build, j.owner.index
		return j.openProbe()
	}
	// Build side first: drain the right input, keeping (per batch, so no
	// input batch is retained) the lanes whose non-null-safe keys are all
	// non-NULL — a NULL there matches nothing; left-join null extension
	// only depends on the probe side. Building before the probe side is
	// even opened guarantees every runtime filter is published before any
	// probe-side scan produces its first batch.
	if err := j.Right.Open(); err != nil {
		return err
	}
	j.grace = nil
	j.buildBytes = 0
	j.leftOpen = false
	// A failed Open never sees a matching Close from the parent: unwind
	// the spill state here (reserved bytes, grace partitions/outputs).
	defer func() {
		if err != nil {
			j.grace.cleanup()
			j.grace = nil
			j.Spill.Res.ReleaseAll()
		}
	}()
	j.build = vector.Table{}
	var hashes []uint64
	budgeted := j.Spill.Enabled()
	for {
		b, err := j.Right.Next()
		if err != nil {
			j.Right.Close() //nolint:errcheck — unwinding after a failed build
			return err
		}
		if b == nil {
			break
		}
		keys, err := j.evalKeys(j.RightKeys, b)
		if err != nil {
			j.Right.Close() //nolint:errcheck — unwinding after a failed build
			return err
		}
		lanes := j.matchableLanes(keys, b)
		if budgeted && len(lanes) > 0 && j.grace == nil {
			delta := batchBytes(b.Cols, lanes) + batchBytes(keys, lanes)
			if !j.Spill.Res.Grow(delta) {
				// Budget exhausted: go Grace. The rows accumulated so far
				// are rehashed into build partitions on disk and the
				// in-memory build storage is released; runtime filters
				// stay unpublished (an unready filter admits everything,
				// which is always safe).
				g, gerr := j.startGrace(hashes)
				if gerr != nil {
					j.Right.Close() //nolint:errcheck
					return gerr
				}
				j.grace = g
				j.build, hashes = vector.Table{}, nil
				j.Spill.Res.Release(j.buildBytes)
				j.buildBytes = 0
			} else {
				j.buildBytes += delta
			}
		}
		if len(lanes) > 0 {
			hs := j.hasher.rows(keys, lanes)
			if j.grace != nil {
				for idx, i := range lanes {
					if err := j.grace.addBuild(b.Cols, keys, i, hs[idx]); err != nil {
						j.Right.Close() //nolint:errcheck
						return err
					}
				}
			} else {
				j.buildRow = append(append(j.buildRow[:0], b.Cols...), keys...)
				j.build.Append(j.buildRow, lanes)
				hashes = append(hashes, hs...)
			}
		}
		j.freeKeys(j.RightKeys, keys)
	}
	if err := j.Right.Close(); err != nil {
		return err
	}

	if j.grace != nil {
		// Grace mode: partition the probe side and join the partition
		// pairs; Next streams the seq-merged result.
		if err := j.Left.Open(); err != nil {
			return err
		}
		j.leftOpen = true
		err := j.grace.runProbe()
		cerr := j.Left.Close()
		j.leftOpen = false
		if err != nil {
			return err
		}
		return cerr
	}

	// Index the build rows by key hash; chains run in build-input order,
	// like the row engine's bucket order.
	j.index.build(hashes)
	// Publish runtime filters now that the build side is complete; the
	// probe subtree opens after this, so its scans observe ready filters
	// from their very first batch.
	for k, rf := range j.Publish {
		if rf != nil {
			keys := make([]*vector.Vec, len(j.build.Chunks()))
			for ch, row := range j.build.Chunks() {
				keys[ch] = row[len(j.RightKinds)+k]
			}
			rf.PublishFrom(j.RightKeys[k].Kind(), keys)
		}
	}
	return j.openProbe()
}

// openProbe resets the in-memory probe state and opens the probe side.
func (j *HashJoin) openProbe() error {
	j.curBatch = nil
	j.outL, j.outR = j.outL[:0], j.outR[:0]
	j.outPos = 0
	if err := j.Left.Open(); err != nil {
		return err
	}
	j.leftOpen = true
	return nil
}

// evalKeys evaluates one side's key expressions over a batch into the
// join's key scratch (freed by freeKeys).
func (j *HashJoin) evalKeys(exprs []*Expr, b *vector.Batch) ([]*vector.Vec, error) {
	keys := j.keyBuf[:0]
	for _, ke := range exprs {
		kv, err := ke.eval(b, b.Sel)
		if err != nil {
			j.keyBuf = keys
			j.freeKeys(exprs, keys)
			return nil, err
		}
		keys = append(keys, kv)
	}
	j.keyBuf = keys
	return keys, nil
}

func (j *HashJoin) freeKeys(exprs []*Expr, keys []*vector.Vec) {
	for k, kv := range keys {
		exprs[k].FreeResult(kv)
	}
}

// matchableLanes returns the batch's live lanes whose plain '=' keys are
// all non-NULL (a NULL there matches nothing); null-safe keys keep theirs.
func (j *HashJoin) matchableLanes(keys []*vector.Vec, b *vector.Batch) []int {
	lanes := resolveSel(b, b.Sel)
	for k, kv := range keys {
		if !j.NullSafe[k] && kv.Nulls.AnySet(b.N) {
			lanes = selNulls(kv.Nulls, false, lanes, selScratch(&j.laneBuf, len(lanes)))
		}
	}
	return lanes
}

// keysMatch compares probe lane pi against build row bi.
func (j *HashJoin) keysMatch(probe []*vector.Vec, pi int, build int) bool {
	row, bi := j.build.At(build)
	return storedKeysMatch(j.NullSafe, probe, pi, row[len(j.RightKinds):], bi)
}

// Spilled reports whether the join went Grace (spilled partitions).
func (j *HashJoin) Spilled() bool { return j.grace != nil }

// SetActivity attaches the active-query registration so cooperative
// cancellation is observed once per emitted batch: joins multiply rows,
// so polling here bounds cancellation latency even when the scans
// underneath are consulted rarely.
func (j *HashJoin) SetActivity(aq *obs.ActiveQuery) { j.aq = aq }

func (j *HashJoin) Next() (*vector.Batch, error) {
	if err := j.aq.CancelErr(); err != nil {
		return nil, err
	}
	if j.grace != nil {
		return j.grace.merger.next()
	}
	for {
		if j.outPos < len(j.outL) {
			return j.emit(), nil
		}
		b, err := j.Left.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		keys, err := j.evalKeys(j.LeftKeys, b)
		if err != nil {
			return nil, err
		}
		j.outL, j.outR = j.outL[:0], j.outR[:0]
		j.outPos = 0
		// Only the matchable lanes are probed; on a left join the others
		// (a NULL in a plain '=' key) still null-extend, in lane order.
		all := resolveSel(b, b.Sel)
		var lanes []int
		if !j.neverMatch {
			lanes = j.matchableLanes(keys, b)
		}
		hs := j.hasher.rows(keys, lanes)
		skipped := 0 // index into all of the next lane not yet accounted for
		for idx, i := range lanes {
			if j.Type == algebra.JoinLeft {
				for ; all[skipped] != i; skipped++ {
					j.outL = append(j.outL, int32(all[skipped]))
					j.outR = append(j.outR, -1)
				}
				skipped++
			}
			matched := false
			for bi := j.index.head(hs[idx]); bi >= 0; bi = j.index.next[bi] {
				if j.keysMatch(keys, i, int(bi)) {
					j.outL = append(j.outL, int32(i))
					j.outR = append(j.outR, bi)
					matched = true
				}
			}
			if !matched && j.Type == algebra.JoinLeft {
				j.outL = append(j.outL, int32(i))
				j.outR = append(j.outR, -1)
			}
		}
		if j.Type == algebra.JoinLeft {
			for _, i := range all[skipped:] {
				j.outL = append(j.outL, int32(i))
				j.outR = append(j.outR, -1)
			}
		}
		j.freeKeys(j.LeftKeys, keys)
		j.curBatch = b
	}
}

// emit returns the next chunk of pending join results as a batch,
// recycling the gather buffers of the previous chunk (abandoned by the
// consumer before it asked for this one).
func (j *HashJoin) emit() *vector.Batch {
	for _, v := range j.emitOwned {
		v.Free()
	}
	j.emitOwned = j.emitOwned[:0]
	n := len(j.outL) - j.outPos
	if n > vector.BatchSize {
		n = vector.BatchSize
	}
	chunkL := j.outL[j.outPos : j.outPos+n]
	chunkR := j.outR[j.outPos : j.outPos+n]
	j.outPos += n
	if j.emitBuf == nil {
		j.emitBuf = make([]*vector.Vec, len(j.LeftKinds)+len(j.RightKinds))
	}
	cols := j.emitBuf
	for c, k := range j.LeftKinds {
		cols[c] = vector.GatherBatch(j.curBatch.Cols[c], chunkL, k)
	}
	off := len(j.LeftKinds)
	for c, k := range j.RightKinds {
		cols[off+c] = vector.NewBatchVec(k, n)
		j.build.GatherCol(c, chunkR, cols[off+c])
	}
	j.emitOwned = append(j.emitOwned, cols...)
	return &vector.Batch{N: n, Cols: cols}
}

func (j *HashJoin) Close() error {
	var err error
	if j.leftOpen {
		err = j.Left.Close()
		j.leftOpen = false
	}
	for _, v := range j.emitOwned {
		v.Free()
	}
	j.emitOwned = j.emitOwned[:0]
	j.build, j.index = vector.Table{}, hashIndex{}
	j.curBatch = nil
	if j.grace != nil {
		j.grace.cleanup()
		j.grace = nil
	}
	j.Spill.Res.ReleaseAll()
	return err
}

// ---------------------------------------------------------------------------
// Hash aggregation

// AggSpec describes one aggregate to compute vectorized. Distinct
// aggregates stay on the row engine.
type AggSpec struct {
	Fn         algebra.AggFn
	Star       bool
	Arg        *Expr // nil for COUNT(*)
	ResultKind types.Kind
}

// HashAgg groups input rows by the group expressions and computes
// aggregates per group; output rows are group values followed by
// aggregate results, exactly like the row engine's HashAgg. Under a
// memory budget it spills Grace-style: when the group table no longer
// fits, every group is flushed as a partial record (group values,
// serialized accumulator state, first-appearance sequence number) into
// hash partitions; partitions merge their partials independently after
// the drain (repartitioning recursively on skew) and a final merge on
// the sequence numbers reproduces the exact in-memory group order.
type HashAgg struct {
	obs.Card
	Input  Node
	Groups []*Expr
	Aggs   []AggSpec
	Spill  spill.Resources

	tab       groupTable // group key values, one row per group
	numGroups int
	accs      []aggAcc
	scratch   aggScratch
	keyBuf    []*vector.Vec // per batch: evaluated group keys, then aggregate arguments
	gidBuf    []int32       // per batch: the group id of every live lane
	resVecs   []*vector.Vec // finalized aggregates, in emission order
	emit      emitter       // group columns, in emission order
	outCols   []*vector.Vec
	outPos    int
}

// NewHashAgg returns a vectorized hash aggregation node.
func NewHashAgg(input Node, groups []*Expr, aggs []AggSpec) *HashAgg {
	return &HashAgg{Input: input, Groups: groups, Aggs: aggs}
}

// Spilled reports whether the aggregation spilled partitions to disk.
func (h *HashAgg) Spilled() bool { return h.tab.spilled() }

// stateKinds etc. implement groupStater by concatenating every
// aggregate's serialized accumulator columns.
func (h *HashAgg) stateKinds() []types.Kind {
	kinds := make([]types.Kind, 0, len(h.accs)*aggStateWidth)
	for range h.accs {
		kinds = append(kinds, aggStateKinds()...)
	}
	return kinds
}

func (h *HashAgg) reset() {
	for ai := range h.accs {
		h.accs[ai] = aggAcc{spec: h.accs[ai].spec, argKind: h.accs[ai].argKind}
	}
}

func (h *HashAgg) newGroup() {
	for ai := range h.accs {
		h.accs[ai].addGroup()
	}
}

func (h *HashAgg) appendState(g int, dst []*vector.Vec) {
	for ai := range h.accs {
		h.accs[ai].appendState(g, dst[ai*aggStateWidth:(ai+1)*aggStateWidth])
	}
}

func (h *HashAgg) mergeState(g int, st []*vector.Vec, lane int) {
	for ai := range h.accs {
		h.accs[ai].mergeState(g, st[ai*aggStateWidth:(ai+1)*aggStateWidth], lane)
	}
}

func (h *HashAgg) resultKinds() []types.Kind {
	kinds := make([]types.Kind, len(h.Aggs))
	for ai := range h.Aggs {
		kinds[ai] = h.Aggs[ai].ResultKind
	}
	return kinds
}

func (h *HashAgg) copies(int) int64 { return 1 }

func (h *HashAgg) appendResult(g int, dst []*vector.Vec) {
	for ai := range h.accs {
		appendValue(dst[ai], h.accs[ai].finalize(g))
	}
}

func (h *HashAgg) Open() (err error) {
	if err := h.Input.Open(); err != nil {
		return err
	}
	defer h.Input.Close()
	// A failed Open never sees a matching Close from the parent: unwind
	// the spill state here (reserved bytes, partition writers, outputs).
	defer func() {
		if err != nil {
			h.tab.close()
		}
	}()
	h.accs = make([]aggAcc, len(h.Aggs))
	for ai := range h.Aggs {
		h.accs[ai].spec = h.Aggs[ai]
		if h.Aggs[ai].Arg != nil {
			h.accs[ai].argKind = h.Aggs[ai].Arg.Kind()
		}
	}
	h.tab.open(h.Spill, h, int64(len(h.Aggs))*96+groupOverheadBytes)
	for {
		b, err := h.Input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		// One batch: evaluate keys and arguments, hash the keys column at a
		// time, resolve every live lane to its group id, then run each
		// aggregate's typed loop over the (lane, group) pairs.
		vecs := h.keyBuf[:0]
		for _, ge := range h.Groups {
			kv, err := ge.eval(b, b.Sel)
			if err != nil {
				return err
			}
			vecs = append(vecs, kv)
		}
		for _, spec := range h.Aggs {
			var av *vector.Vec
			if spec.Arg != nil {
				if av, err = spec.Arg.eval(b, b.Sel); err != nil {
					return err
				}
			}
			vecs = append(vecs, av)
		}
		h.keyBuf = vecs
		keys, args := vecs[:len(h.Groups)], vecs[len(h.Groups):]
		lanes := resolveSel(b, b.Sel)
		hs := h.tab.hasher.rows(keys, lanes)
		if cap(h.gidBuf) < len(lanes) {
			h.gidBuf = make([]int32, max(len(lanes), vector.BatchSize))
		}
		gids := h.gidBuf[:len(lanes)]
		folded := 0 // pairs before this position are already accumulated
		for idx, i := range lanes {
			hv := hs[idx]
			g := h.tab.set.find(keys, i, hv)
			if g < 0 {
				if !h.tab.admit(keys, i) {
					// The groups are about to be flushed: fold in the lanes
					// resolved against them first.
					h.accumulate(args, lanes[folded:idx], gids[folded:idx])
					folded = idx
					if err := h.tab.flush(); err != nil {
						return err
					}
				}
				g = h.tab.insert(keys, i, hv)
			}
			gids[idx] = g
		}
		h.accumulate(args, lanes[folded:], gids[folded:])
		for g, kv := range keys {
			h.Groups[g].FreeResult(kv)
		}
		for ai, av := range args {
			if av != nil {
				h.Aggs[ai].Arg.FreeResult(av)
			}
		}
	}
	if err := h.tab.finish(); err != nil || h.tab.spilled() {
		return err
	}
	h.finishInMem()
	return nil
}

// accumulate folds a run of resolved (lane, group) pairs into every
// aggregate.
func (h *HashAgg) accumulate(args []*vector.Vec, lanes []int, gids []int32) {
	for ai := range h.accs {
		h.accs[ai].accumulate(args[ai], lanes, gids, &h.scratch)
	}
}

// finishInMem finalizes the in-memory result (and the default row of a
// global aggregate over empty input) into one result vector per
// aggregate and points the emitter at the group columns, both in
// insertion order; Next pairs gathered group columns with result windows.
func (h *HashAgg) finishInMem() {
	h.numGroups = h.tab.set.rows.Len()
	if h.numGroups == 0 && len(h.Groups) == 0 {
		h.numGroups = 1
		for ai := range h.accs {
			h.accs[ai].addGroup()
		}
	}
	order := make([]int32, h.numGroups)
	for g := range order {
		order[g] = int32(g)
	}
	h.resVecs = make([]*vector.Vec, len(h.Aggs))
	for ai := range h.accs {
		out := vector.NewVec(h.Aggs[ai].ResultKind, h.numGroups)
		for g := range order {
			out.Set(g, h.accs[ai].finalize(g))
		}
		h.resVecs[ai] = out
	}
	h.emit.reset(&h.tab.set.rows, order)
	h.outPos = 0
}

func (h *HashAgg) Next() (*vector.Batch, error) {
	if h.tab.spilled() {
		return h.tab.merger.next()
	}
	b := h.emit.next()
	if b == nil {
		return nil, nil
	}
	h.outCols = append(h.outCols[:0], b.Cols...)
	for _, rv := range h.resVecs {
		h.outCols = append(h.outCols, rv.Window(h.outPos, h.outPos+b.N))
	}
	h.outPos += b.N
	b.Cols = h.outCols
	return b, nil
}

// rowsOf appends to cols, lane for lane, the output rows of the groups
// with the given ids (at most BatchSize) of an aggregation that finished
// in memory, as pooled vectors the caller frees.
func (h *HashAgg) rowsOf(ids []int32, cols []*vector.Vec) []*vector.Vec {
	cols = gatherBatch(&h.tab.set.rows, ids, cols)
	for _, rv := range h.resVecs {
		cols = append(cols, vector.GatherBatch(rv, ids, rv.Kind))
	}
	return cols
}

func (h *HashAgg) Close() error {
	h.emit.close()
	h.resVecs, h.accs = nil, nil
	h.tab.close()
	return nil
}

// ---------------------------------------------------------------------------
// Batch→row adapter

// RowSource adapts a vectorized subtree to the row engine's volcano
// interface (it structurally satisfies exec.Node), boxing each live
// batch row back into a types.Row. This is the per-subtree fallback
// boundary: row-only operators (right/full joins, unsupported
// expressions) and the top-level result sink consume vectorized subtrees
// through it.
type RowSource struct {
	Input Node
	batch *vector.Batch
	idx   int
}

// NewRowSource returns a batch→row adapter over a vectorized subtree.
func NewRowSource(input Node) *RowSource { return &RowSource{Input: input} }

// Open opens the vectorized subtree.
func (r *RowSource) Open() error {
	r.batch, r.idx = nil, 0
	return r.Input.Open()
}

// Next returns the next live row, pulling a new batch when the current
// one is exhausted.
func (r *RowSource) Next() (types.Row, error) {
	for {
		if r.batch != nil && r.idx < r.batch.Live() {
			lane := r.idx
			if r.batch.Sel != nil {
				lane = r.batch.Sel[r.idx]
			}
			r.idx++
			return r.batch.Row(lane), nil
		}
		b, err := r.Input.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			r.batch = nil
			return nil, nil
		}
		r.batch, r.idx = b, 0
	}
}

// Close closes the vectorized subtree.
func (r *RowSource) Close() error { return r.Input.Close() }

// sortKeyClasses precomputes the comparison class of each sort key from
// the first batch's column kinds.
func sortKeyClasses(keys []algebra.SortKey, cols []*vector.Vec) []cmpClass {
	classes := make([]cmpClass, len(keys))
	for i, k := range keys {
		classes[i] = classify(cols[k.Pos].Kind, cols[k.Pos].Kind)
	}
	return classes
}

// compareSortRows orders row li of columns l against row ri of columns r
// under the sort keys: negative when the left row sorts first, 0 on a
// tie over every key.
func compareSortRows(l []*vector.Vec, li int, r []*vector.Vec, ri int, keys []algebra.SortKey, classes []cmpClass) int {
	for k, key := range keys {
		c := compareSortLanes(classes[k], l[key.Pos], li, r[key.Pos], ri)
		if c == 0 {
			continue
		}
		if key.Desc {
			return -c
		}
		return c
	}
	return 0
}

// compareTableRows is compareSortRows over two rows of one table.
func compareTableRows(t *vector.Table, i, j int, keys []algebra.SortKey, classes []cmpClass) int {
	l, li := t.At(i)
	r, ri := t.At(j)
	return compareSortRows(l, li, r, ri, keys, classes)
}

// compareSortLanes orders lane li of l against lane ri of r under one
// sort key's class, treating NULL as greater than everything (the row
// engine's NULLS LAST ascending convention).
func compareSortLanes(class cmpClass, l *vector.Vec, li int, r *vector.Vec, ri int) int {
	ln, rn := l.Nulls.Get(li), r.Nulls.Get(ri)
	switch {
	case ln && rn:
		return 0
	case ln:
		return 1
	case rn:
		return -1
	}
	return laneCompare(class, l, li, r, ri)
}
