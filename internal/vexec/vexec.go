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
// through RowSource wherever it is not.
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
	"perm/internal/exec"
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
	pos   int

	// Morsel dispatch (parallel plans): instead of iterating [0, NumRows)
	// the scan claims morsels from the shared dispatcher and windows only
	// its own ranges. morselSeq identifies the current morsel for the
	// sequence tags that restore serial output order.
	disp      *Morsels
	morselSeq int64
	morselEnd int
	// morselsTaken counts the morsels this scan claimed (worker-local;
	// coordinators read it after the worker barrier for EXPLAIN ANALYZE's
	// per-worker morsel counts).
	morselsTaken int

	rfs     []rfBinding
	rfWork  rfScratch
	winCols []*vector.Vec
	winVecs []vector.Vec
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

// SetMorselSource switches the scan to morsel-driven iteration against a
// shared dispatcher (parallel plans only).
func (s *ColScan) SetMorselSource(d *Morsels) { s.disp = d }

// SetActivity attaches the active-query record whose cancellation flag
// the scan polls at every batch boundary (nil: never cancelled).
func (s *ColScan) SetActivity(aq *obs.ActiveQuery) { s.aq = aq }

// CurrentMorsel returns the sequence number of the morsel the scan's
// last batch came from.
func (s *ColScan) CurrentMorsel() int64 { return s.morselSeq }

// CurrentBand implements TagSource: the scan's bands are its morsels.
func (s *ColScan) CurrentBand() int64 { return s.morselSeq }

// MorselsTaken returns how many morsels the scan claimed from its
// dispatcher (0 for a serial scan). Only read it after the scan's worker
// has finished (the parallel operators' barriers publish it).
func (s *ColScan) MorselsTaken() int { return s.morselsTaken }

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
	s.pos = 0
	s.morselSeq, s.morselEnd = 0, 0
	s.morselsTaken = 0
	for i := range s.rfs {
		s.rfs[i].tested, s.rfs[i].admitted, s.rfs[i].dead = 0, 0, false
	}
	if s.winCols == nil {
		s.winVecs = make([]vector.Vec, len(s.Cols))
		s.winCols = make([]*vector.Vec, len(s.Cols))
		for j := range s.winVecs {
			s.winCols[j] = &s.winVecs[j]
		}
	}
	return nil
}

func (s *ColScan) Next() (*vector.Batch, error) {
	if err := s.aq.CancelErr(); err != nil {
		return nil, err
	}
	for {
		limit := s.NumRows
		if s.disp != nil {
			if s.pos >= s.morselEnd {
				seq, lo, hi, ok := s.disp.grab(s.NumRows)
				if !ok {
					return nil, nil
				}
				s.morselsTaken++
				s.morselSeq, s.pos, s.morselEnd = seq, lo, hi
			}
			limit = s.morselEnd
		} else if s.pos >= s.NumRows {
			return nil, nil
		}
		hi := s.pos + vector.BatchSize
		if hi > limit {
			hi = limit
		}
		for j, c := range s.Cols {
			c.WindowInto(s.pos, hi, s.winCols[j])
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

// JoinType enumerates the join types the vectorized hash join supports.
// Right and full outer joins stay on the row engine.
type JoinType uint8

// Vectorized join types.
const (
	InnerJoin JoinType = iota
	LeftJoin
)

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
	Type        JoinType
	LeftKinds   []types.Kind
	RightKinds  []types.Kind
	Publish     []*RuntimeFilter
	Spill       spill.Resources

	// TagSrc, when non-nil, marks the join as sitting on a morsel-driven
	// worker spine: the nearest tag source below its probe side. Grace
	// mode then stores band-derived sequence tags for probe rows and the
	// output merge never lets a batch span bands, so the join remains a
	// valid TagSource for the tap above even though it buffered the whole
	// probe side.
	TagSrc TagSource

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
	leftOpen   bool
	aq         *obs.ActiveQuery
}

// NewHashJoin returns a vectorized hash join node.
func NewHashJoin(left, right Node, leftKeys, rightKeys []*Expr, nullSafe []bool,
	jt JoinType, leftKinds, rightKinds []types.Kind) *HashJoin {
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

// CurrentBand implements TagSource. In-memory mode the join streams (all
// outputs of one probe batch emit before the next is pulled), so the
// source below is still current; Grace mode re-derives the band from the
// sequence tags of the merged output stream.
func (j *HashJoin) CurrentBand() int64 {
	if j.grace != nil && j.grace.merger != nil {
		return j.grace.merger.lastBand
	}
	if j.TagSrc != nil {
		return j.TagSrc.CurrentBand()
	}
	return 0
}

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
			if j.Type == LeftJoin {
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
			if !matched && j.Type == LeftJoin {
				j.outL = append(j.outL, int32(i))
				j.outR = append(j.outR, -1)
			}
		}
		if j.Type == LeftJoin {
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

	// Parallel partial mode (set by NewParallelAgg): sequence numbers come
	// from the morsel tap (global input ordinals) instead of a local
	// counter, and Open stops after flushing all groups as partial records
	// into partition runs — the coordinator merges them across workers.
	Tap      *MorselTap
	partial  bool
	partRuns [spillPartitions]*spill.Run

	groups    rowSet // group key values, one row per group
	numGroups int
	accs      []aggAcc
	hasher    keyHasher
	scratch   aggScratch
	keyBuf    []*vector.Vec // per batch: evaluated group keys, then aggregate arguments
	gidBuf    []int32       // per batch: the group id of every live lane
	resVecs   []*vector.Vec // finalized aggregates, in emission order
	emit      emitter       // group columns, in emission order
	outCols   []*vector.Vec
	outPos    int

	groupKinds []types.Kind
	seqs       []int64
	seqCtr     int64
	pending    int64
	accBytes   int64
	ps         *partitionSet
	merger     *seqMerger
	outRuns    []*spill.Run
}

// NewHashAgg returns a vectorized hash aggregation node.
func NewHashAgg(input Node, groups []*Expr, aggs []AggSpec) *HashAgg {
	return &HashAgg{Input: input, Groups: groups, Aggs: aggs}
}

// Spilled reports whether the aggregation spilled partitions to disk.
func (h *HashAgg) Spilled() bool { return h.ps != nil }

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

// spillGroups flushes the live group table as partial records and resets
// it.
func (h *HashAgg) spillGroups() error {
	if h.ps == nil {
		h.ps = newPartitionSet(h.Spill, recordKinds(h.groupKinds, h), 0)
	}
	if err := flushGroupRecords(h.ps, &h.groups, h.seqs, h); err != nil {
		return err
	}
	h.groups.reset()
	h.numGroups = 0
	h.seqs = h.seqs[:0]
	h.reset()
	h.Spill.Res.Release(h.accBytes)
	h.accBytes = 0
	return nil
}

// insertGroup starts group state for lane i of the key vectors.
func (h *HashAgg) insertGroup(keys []*vector.Vec, i int, hv uint64, seq int64) int {
	g := int(h.groups.insert(keys, i, hv))
	h.numGroups++
	h.newGroup()
	h.seqs = append(h.seqs, seq)
	return g
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
			h.ps.abandon()
			closeRuns(h.outRuns)
			h.outRuns = nil
			closeRuns(h.partRuns[:])
			h.partRuns = [spillPartitions]*spill.Run{}
			h.Spill.Res.ReleaseAll()
		}
	}()
	h.groups.reset()
	h.groupKinds = exprKinds(h.Groups)
	h.numGroups = 0
	h.seqs = h.seqs[:0]
	h.seqCtr, h.pending, h.accBytes = 0, 0, 0
	h.ps, h.merger = nil, nil
	closeRuns(h.outRuns)
	h.outRuns = nil
	closeRuns(h.partRuns[:])
	h.partRuns = [spillPartitions]*spill.Run{}
	h.accs = make([]aggAcc, len(h.Aggs))
	for ai := range h.Aggs {
		h.accs[ai].spec = h.Aggs[ai]
		if h.Aggs[ai].Arg != nil {
			h.accs[ai].argKind = h.Aggs[ai].Arg.Kind()
		}
	}
	budgeted := h.Spill.Enabled()
	stateBytes := int64(len(h.Aggs))*96 + groupOverheadBytes
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
		hs := h.hasher.rows(keys, lanes)
		if cap(h.gidBuf) < len(lanes) {
			h.gidBuf = make([]int32, max(len(lanes), vector.BatchSize))
		}
		gids := h.gidBuf[:len(lanes)]
		// Sequence numbers: the local counter in serial mode, the morsel
		// tap's global input ordinals in parallel partial mode (so group
		// order merges correctly across workers).
		base := h.seqCtr
		if h.Tap != nil {
			base = h.Tap.Base()
		}
		folded := 0 // pairs before this position are already accumulated
		for idx, i := range lanes {
			hv := hs[idx]
			g := int(h.groups.find(keys, i, hv))
			if g < 0 {
				seq := base + int64(idx)
				g = h.insertGroup(keys, i, hv, seq)
				if budgeted {
					h.pending += laneBytes(keys, i) + stateBytes
					if h.pending >= growQuantum {
						if !h.Spill.Res.Grow(h.pending) {
							// The groups are about to be flushed: fold in the
							// lanes resolved against them first.
							h.accumulate(args, lanes[folded:idx], gids[folded:idx])
							folded = idx
							if err := h.spillGroups(); err != nil {
								return err
							}
							h.Spill.Res.Force(h.pending)
							// The group just started was flushed with the
							// rest; restart it for this row.
							g = h.insertGroup(keys, i, hv, seq)
						}
						h.accBytes += h.pending
						h.pending = 0
					}
				}
			}
			gids[idx] = int32(g)
		}
		h.accumulate(args, lanes[folded:], gids[folded:])
		if h.Tap == nil {
			h.seqCtr = base + int64(len(lanes))
		}
		for g, kv := range keys {
			h.Groups[g].FreeResult(kv)
		}
		for ai, av := range args {
			if av != nil {
				h.Aggs[ai].Arg.FreeResult(av)
			}
		}
	}
	if h.partial {
		return h.finishPartial()
	}
	if h.ps != nil {
		// Spilled: flush the tail epoch, merge partitions, stream the
		// sequence merge.
		if h.pending > 0 {
			h.Spill.Res.Force(h.pending)
			h.accBytes += h.pending
			h.pending = 0
		}
		if err := h.spillGroups(); err != nil {
			return err
		}
		runs, err := h.ps.finish()
		if err != nil {
			return err
		}
		resultKinds := make([]types.Kind, len(h.Aggs))
		for ai := range h.Aggs {
			resultKinds[ai] = h.Aggs[ai].ResultKind
		}
		h.outRuns, err = processGroupPartitions(h.Spill, runs, h.groupKinds, h, func(res spill.Resources,
			acc *vector.Table, seqs []int64, order []int32) (*spill.Run, error) {
			if acc.Len() == 0 {
				return nil, nil
			}
			extraKinds := append(append([]types.Kind{}, resultKinds...), types.KindInt)
			return writeGroupRun(res, acc, order, extraKinds, func(g int32, extra []*vector.Vec) {
				for ai := range h.accs {
					appendValue(extra[ai], h.accs[ai].finalize(int(g)))
				}
				appendI(extra[len(extra)-1], seqs[g])
			})
		})
		if err != nil {
			return err
		}
		width := len(h.groupKinds) + len(h.Aggs)
		h.merger, err = newSeqMerger(h.outRuns, width, -1, width)
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
// global aggregate over empty input), emitting groups in insertion order.
func (h *HashAgg) finishInMem() {
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
	h.finishOrdered(order)
}

// finishOrdered finalizes every aggregate into a result vector laid out
// in the given group order and points the emitter at the group columns in
// the same order; Next pairs gathered group columns with result windows.
func (h *HashAgg) finishOrdered(order []int32) {
	h.resVecs = make([]*vector.Vec, len(h.Aggs))
	for ai := range h.accs {
		out := vector.NewVec(h.Aggs[ai].ResultKind, len(order))
		for i, g := range order {
			out.Set(i, h.accs[ai].finalize(int(g)))
		}
		h.resVecs[ai] = out
	}
	h.emit.reset(&h.groups.rows, order)
	h.outPos = 0
}

// finishPartial ends a parallel worker's drain. A worker that stayed in
// memory keeps its live group table for the coordinator's in-memory
// absorb; one that spilled under budget pressure flushes everything into
// partition runs for the disk merge.
func (h *HashAgg) finishPartial() error {
	if h.ps == nil {
		return nil
	}
	return h.flushPartialRuns()
}

// flushPartialRuns force-flushes a worker's groups (live table and any
// earlier flush epochs) into finished partition runs. The coordinator
// calls it on in-memory workers when a sibling spilled, so the
// cross-worker merge sees a uniform representation.
func (h *HashAgg) flushPartialRuns() error {
	if h.numGroups == 0 && h.ps == nil {
		return nil
	}
	if h.pending > 0 {
		h.Spill.Res.Force(h.pending)
		h.accBytes += h.pending
		h.pending = 0
	}
	if err := h.spillGroups(); err != nil {
		return err
	}
	runs, err := h.ps.finishAll()
	if err != nil {
		return err
	}
	h.partRuns = runs
	h.ps = nil
	return nil
}

// hasPartRuns reports whether the worker flushed partial records to
// disk.
func (h *HashAgg) hasPartRuns() bool {
	for _, r := range h.partRuns {
		if r != nil {
			return true
		}
	}
	return false
}

// absorb folds another worker's live group table into h (coordinator
// side, single-threaded after the drain barrier). States combine with
// the same associative merge the spill path uses, and a group's sequence
// number becomes its minimum first-appearance ordinal across workers.
// The merged copy's growth is recorded against h's reservation (Force:
// the inputs already fit worker budgets, the union may not).
func (h *HashAgg) absorb(w *HashAgg) {
	if w.numGroups == 0 {
		return
	}
	kinds := w.stateKinds()
	state := make([]*vector.Vec, len(kinds))
	for i, k := range kinds {
		state[i] = vector.NewVecCap(k, w.numGroups)
	}
	for g := 0; g < w.numGroups; g++ {
		w.appendState(g, state)
	}
	stateBytes := int64(len(h.Aggs))*96 + groupOverheadBytes
	var grown int64
	for g := 0; g < w.numGroups; g++ {
		keys, lane := w.groups.rows.At(g)
		hv := w.groups.hashes[g]
		target := int(h.groups.find(keys, lane, hv))
		if target < 0 {
			target = h.insertGroup(keys, lane, hv, w.seqs[g])
			grown += laneBytes(keys, lane) + stateBytes
		} else if w.seqs[g] < h.seqs[target] {
			h.seqs[target] = w.seqs[g]
		}
		h.mergeState(target, state, g)
	}
	if grown > 0 && h.Spill.Enabled() {
		h.Spill.Res.Force(grown)
		h.accBytes += grown
	}
}

// finishInMemOrdered finalizes like finishInMem but emits groups in
// ascending first-appearance order: after a cross-worker absorb the
// table's insertion order is worker-0-first, not the serial input
// order the sequence numbers record.
func (h *HashAgg) finishInMemOrdered() {
	if h.numGroups == 0 {
		h.finishInMem() // empty grouped agg, or a global agg's default row
		return
	}
	h.finishOrdered(seqOrder(h.seqs, h.numGroups))
}

func (h *HashAgg) Next() (*vector.Batch, error) {
	if h.merger != nil {
		return h.merger.next()
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
	cols = gatherBatch(&h.groups.rows, ids, cols)
	for _, rv := range h.resVecs {
		cols = append(cols, vector.GatherBatch(rv, ids, rv.Kind))
	}
	return cols
}

func (h *HashAgg) Close() error {
	h.emit.close()
	h.groups, h.resVecs, h.accs = rowSet{}, nil, nil
	h.merger.close()
	h.merger = nil
	h.ps.abandon()
	closeRuns(h.outRuns)
	h.outRuns = nil
	closeRuns(h.partRuns[:])
	h.partRuns = [spillPartitions]*spill.Run{}
	h.Spill.Res.ReleaseAll()
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
	obs.Card
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
func sortKeyClasses(keys []exec.SortKey, cols []*vector.Vec) []cmpClass {
	classes := make([]cmpClass, len(keys))
	for i, k := range keys {
		classes[i] = classify(cols[k.Pos].Kind, cols[k.Pos].Kind)
	}
	return classes
}

// compareSortRows orders row li of columns l against row ri of columns r
// under the sort keys: negative when the left row sorts first, 0 on a
// tie over every key.
func compareSortRows(l []*vector.Vec, li int, r []*vector.Vec, ri int, keys []exec.SortKey, classes []cmpClass) int {
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
func compareTableRows(t *vector.Table, i, j int, keys []exec.SortKey, classes []cmpClass) int {
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
