// Grace hash join: partition spilling for the vectorized hash join's
// build side, with the probe side partitioned by the same hash so every
// partition joins independently against an in-memory table. Partitions
// whose build side still exceeds the budget repartition recursively
// under a reseeded hash (skew handling, depth-capped).
//
// Output order is preserved exactly: every probe record carries its
// arrival sequence number, a probe row's matches all live in the one
// partition its key hashes to (emitted in build-input chain order, like
// the in-memory join), and the per-partition output runs — each
// seq-ascending by construction — are recombined by a k-way merge on the
// sequence number. The result is byte-identical to the in-memory join's
// output stream.
package vexec

import (
	"perm/internal/spill"
	"perm/internal/types"
	"perm/internal/vector"
)

// graceJoin is the spilled-mode state of a HashJoin.
type graceJoin struct {
	j          *HashJoin
	res        spill.Resources
	buildKinds []types.Kind // build record: build columns + key columns
	probeKinds []types.Kind // probe record: probe columns + key columns + seq
	buildPS    *partitionSet
	probePS    *partitionSet
	seqCtr     int64
	curBand    int64 // morsel-spine mode: band of the current probe batch
	bandCtr    int64 // morsel-spine mode: probe rows seen within curBand
	outRuns    []*spill.Run
	merger     *seqMerger
}

// cleanup closes everything the grace state may still own: unfinished
// partition writers and finished output runs. Safe to call at any
// failure point and after normal completion (all sub-cleanups are
// no-ops once ownership has moved on).
func (g *graceJoin) cleanup() {
	if g == nil {
		return
	}
	g.buildPS.abandon()
	g.probePS.abandon()
	closeRuns(g.outRuns)
	g.outRuns = nil
}

// joinWorkItem pairs one partition's build and probe runs (either may be
// nil) at a repartitioning depth.
type joinWorkItem struct {
	build, probe *spill.Run
	depth        int
	seed         uint64
}

// startGrace switches the join into Grace mode mid-build: the rows
// accumulated so far are rehashed into build partitions and the
// in-memory build storage is released.
func (j *HashJoin) startGrace(hashes []uint64) (*graceJoin, error) {
	g := &graceJoin{j: j, res: j.Spill, curBand: -1}
	g.buildKinds = append(append([]types.Kind{}, j.RightKinds...), exprKinds(j.RightKeys)...)
	g.probeKinds = append(append([]types.Kind{}, j.LeftKinds...), exprKinds(j.LeftKeys)...)
	g.probeKinds = append(g.probeKinds, types.KindInt)
	g.buildPS = newPartitionSet(j.Spill, g.buildKinds, 0)
	for r, h := range hashes {
		// A build row is already a build record: columns, then keys.
		cols, lane := j.build.At(r)
		if err := g.buildPS.addRecord(cols, lane, h); err != nil {
			g.buildPS.abandon()
			return nil, err
		}
	}
	return g, nil
}

// exprKinds returns the static kinds of compiled expressions.
func exprKinds(es []*Expr) []types.Kind {
	kinds := make([]types.Kind, len(es))
	for i, e := range es {
		kinds[i] = e.Kind()
	}
	return kinds
}

// addBuild routes one build lane (batch columns plus evaluated keys, key
// hash h) into its partition.
func (g *graceJoin) addBuild(cols []*vector.Vec, keys []*vector.Vec, lane int, h uint64) error {
	return g.buildPS.addFunc(h, func(dst []*vector.Vec) {
		for c := range cols {
			dst[c].AppendFrom(cols[c], lane)
		}
		off := len(cols)
		for k := range keys {
			dst[off+k].AppendFrom(keys[k], lane)
		}
	})
}

// runProbe drains the opened probe side into probe partitions, joins
// every partition pair, and prepares the sequence merge. Called from
// HashJoin.Open after the build side finished in Grace mode.
func (g *graceJoin) runProbe() error {
	j := g.j
	g.probePS = newPartitionSet(g.res, g.probeKinds, 0)
	for {
		b, err := j.Left.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		keys, err := j.evalKeys(j.LeftKeys, b)
		if err != nil {
			return err
		}
		// On a morsel-driven spine the sequence tags must stay globally
		// comparable across workers: band<<seqShift | row-within-band,
		// exactly the tap's tag scheme, instead of a join-local counter.
		if j.TagSrc != nil {
			if band := j.TagSrc.CurrentBand(); band != g.curBand {
				g.curBand, g.bandCtr = band, 0
			}
		}
		lanes := resolveSel(b, b.Sel)
		hs := j.hasher.rows(keys, lanes)
		for idx, i := range lanes {
			var seq int64
			if j.TagSrc != nil {
				seq = g.curBand<<seqShift | g.bandCtr
				g.bandCtr++
			} else {
				seq = g.seqCtr
				g.seqCtr++
			}
			if j.Type == InnerJoin && hasNullKey(j.NullSafe, keys, i) {
				continue // matches nothing, emits nothing
			}
			lane := i
			err := g.probePS.addFunc(hs[idx], func(dst []*vector.Vec) {
				for c := range b.Cols {
					dst[c].AppendFrom(b.Cols[c], lane)
				}
				off := len(b.Cols)
				for k := range keys {
					dst[off+k].AppendFrom(keys[k], lane)
				}
				appendI(dst[len(dst)-1], seq)
			})
			if err != nil {
				return err
			}
		}
		j.freeKeys(j.LeftKeys, keys)
	}

	buildRuns, err := g.buildPS.finishAll()
	if err != nil {
		return err
	}
	probeRuns, err := g.probePS.finishAll()
	if err != nil {
		for _, r := range buildRuns {
			r.Close() //nolint:errcheck
		}
		return err
	}
	stack := make([]joinWorkItem, 0, spillPartitions)
	for p := 0; p < spillPartitions; p++ {
		stack = append(stack, joinWorkItem{build: buildRuns[p], probe: probeRuns[p], depth: 1, seed: 1})
	}
	defer func() {
		for _, it := range stack {
			it.build.Close() //nolint:errcheck
			it.probe.Close() //nolint:errcheck
		}
	}()
	for len(stack) > 0 {
		item := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		children, out, err := g.processPartition(item)
		if err != nil {
			return err
		}
		stack = append(stack, children...)
		if out != nil {
			g.outRuns = append(g.outRuns, out)
		}
	}
	width := len(j.LeftKinds) + len(j.RightKinds)
	g.merger, err = newSeqMerger(g.outRuns, width, -1, width)
	if err == nil && j.TagSrc != nil {
		// Batches must not span morsel bands, or the exchange above could
		// not interleave another worker's intervening morsels.
		g.merger.bandShift = seqShift
	}
	return err
}

// processPartition joins one partition pair. It returns child work items
// when the build side had to repartition, or the partition's output run.
// The item's runs are always closed.
func (g *graceJoin) processPartition(item joinWorkItem) (children []joinWorkItem, out *spill.Run, err error) {
	j := g.j
	defer item.build.Close() //nolint:errcheck — temp storage, already unlinked
	defer item.probe.Close() //nolint:errcheck
	if item.probe == nil {
		// No probe rows: inner and left joins emit nothing for this
		// partition regardless of its build rows.
		return nil, nil, nil
	}
	nBuildCols := len(j.RightKinds)
	nKeys := len(j.RightKeys)

	// Load the build partition, repartitioning on budget pressure.
	acc := &vector.Table{}
	var itemBytes int64
	defer func() { g.res.Res.Release(itemBytes) }()
	if item.build != nil {
		for {
			cols, n, rerr := item.build.ReadCols()
			if rerr != nil {
				return nil, nil, rerr
			}
			if n == 0 {
				break
			}
			delta := batchBytes(cols, identitySel[:n])
			granted := g.res.Res.Grow(delta)
			if !granted && item.depth < maxRepartitionDepth {
				children, err := g.repartition(item, acc, cols, n)
				g.res.Res.Release(itemBytes)
				itemBytes = 0
				return children, nil, err
			}
			if !granted {
				g.res.Res.Force(delta) // depth exhausted: complete over budget
			}
			itemBytes += delta
			acc.Append(cols, identitySel[:n])
		}
	}
	// Index the partition's build rows by key hash; probing visits a chain
	// in build-input order, exactly like the in-memory join.
	var index hashIndex
	if acc.Len() > 0 {
		index.build(j.hasher.tableHashes(acc, nBuildCols, nBuildCols+nKeys))
	}

	// Stream the probe partition against the table, emitting seq-tagged
	// pairs.
	w := newPairWriter(g.res, j.LeftKinds, j.RightKinds)
	for {
		cols, n, rerr := item.probe.ReadCols()
		if rerr != nil {
			w.abandon()
			return nil, nil, rerr
		}
		if n == 0 {
			break
		}
		probeData := cols[:len(j.LeftKinds)]
		probeKeys := cols[len(j.LeftKinds) : len(j.LeftKinds)+nKeys]
		seqCol := cols[len(cols)-1]
		hs := j.hasher.rowRange(probeKeys, 0, n)
		for i := 0; i < n; i++ {
			matched := false
			if !j.neverMatch && !hasNullKey(j.NullSafe, probeKeys, i) {
				for bi := index.head(hs[i]); bi >= 0; bi = index.next[bi] {
					row, lane := acc.At(int(bi))
					if storedKeysMatch(j.NullSafe, probeKeys, i, row[nBuildCols:], lane) {
						if err := w.pair(probeData, i, row[:nBuildCols], lane, seqCol.I[i]); err != nil {
							w.abandon()
							return nil, nil, err
						}
						matched = true
					}
				}
			}
			if !matched && j.Type == LeftJoin {
				if err := w.pair(probeData, i, nil, -1, seqCol.I[i]); err != nil {
					w.abandon()
					return nil, nil, err
				}
			}
		}
	}
	out, err = w.finish()
	if err != nil {
		return nil, nil, err
	}
	return nil, out, nil
}

// repartition pushes a skewed partition one level down: the build rows
// loaded so far plus the rest of the build run, and the whole probe run,
// are rerouted under a reseeded hash.
func (g *graceJoin) repartition(item joinWorkItem, acc *vector.Table, cols []*vector.Vec, n int) ([]joinWorkItem, error) {
	j := g.j
	nBuildCols := len(j.RightKinds)
	nKeys := len(j.LeftKeys)
	childBuild := newPartitionSet(g.res, g.buildKinds, item.seed+1)
	if acc.Len() > 0 {
		for r, h := range j.hasher.tableHashes(acc, nBuildCols, nBuildCols+nKeys) {
			row, lane := acc.At(r)
			if err := childBuild.addRecord(row, lane, h); err != nil {
				childBuild.abandon()
				return nil, err
			}
		}
	}
	for {
		hs := j.hasher.rowRange(cols[nBuildCols:], 0, n)
		for i := 0; i < n; i++ {
			if err := childBuild.addRecord(cols, i, hs[i]); err != nil {
				childBuild.abandon()
				return nil, err
			}
		}
		var err error
		cols, n, err = item.build.ReadCols()
		if err != nil {
			childBuild.abandon()
			return nil, err
		}
		if n == 0 {
			break
		}
	}
	childProbe := newPartitionSet(g.res, g.probeKinds, item.seed+1)
	nProbeCols := len(j.LeftKinds)
	for {
		pcols, pn, err := item.probe.ReadCols()
		if err != nil {
			childBuild.abandon()
			childProbe.abandon()
			return nil, err
		}
		if pn == 0 {
			break
		}
		hs := j.hasher.rowRange(pcols[nProbeCols:nProbeCols+nKeys], 0, pn)
		for i := 0; i < pn; i++ {
			if err := childProbe.addRecord(pcols, i, hs[i]); err != nil {
				childBuild.abandon()
				childProbe.abandon()
				return nil, err
			}
		}
	}
	buildRuns, err := childBuild.finishAll()
	if err != nil {
		childBuild.abandon()
		childProbe.abandon()
		return nil, err
	}
	probeRuns, err := childProbe.finishAll()
	if err != nil {
		childProbe.abandon()
		for _, r := range buildRuns {
			r.Close() //nolint:errcheck
		}
		return nil, err
	}
	var children []joinWorkItem
	for p := 0; p < spillPartitions; p++ {
		children = append(children, joinWorkItem{
			build: buildRuns[p], probe: probeRuns[p],
			depth: item.depth + 1, seed: item.seed + 1,
		})
	}
	return children, nil
}

// hasNullKey reports whether lane i is NULL in a plain '=' key: such a row
// matches nothing.
func hasNullKey(nullSafe []bool, keys []*vector.Vec, i int) bool {
	for k, kv := range keys {
		if !nullSafe[k] && kv.Nulls.Get(i) {
			return true
		}
	}
	return false
}

// storedKeysMatch compares a probe row's key lanes against a build row's
// under per-key null-safety.
func storedKeysMatch(nullSafe []bool, pk []*vector.Vec, pi int, bk []*vector.Vec, bi int) bool {
	for k := range pk {
		pn, bn := pk[k].Nulls.Get(pi), bk[k].Nulls.Get(bi)
		if nullSafe[k] {
			if pn || bn {
				if pn && bn {
					continue
				}
				return false
			}
		} else if pn || bn {
			return false
		}
		if !lanesEqualNullSafe(pk[k], pi, bk[k], bi) {
			return false
		}
	}
	return true
}

// pairWriter buffers seq-tagged join output rows and writes them to one
// output run in batch-sized chunks. A nil build side null-extends.
type pairWriter struct {
	res   spill.Resources
	run   *spill.Run
	cols  []*vector.Vec
	kinds []types.Kind
	nL    int
	n     int
	rows  int64
}

func newPairWriter(res spill.Resources, leftKinds, rightKinds []types.Kind) *pairWriter {
	kinds := append(append([]types.Kind{}, leftKinds...), rightKinds...)
	kinds = append(kinds, types.KindInt)
	w := &pairWriter{res: res, kinds: kinds, nL: len(leftKinds)}
	w.resetBuf()
	return w
}

func (w *pairWriter) resetBuf() {
	if w.cols == nil {
		w.cols = newRecordBuf(w.kinds)
	} else {
		resetRecordBuf(w.cols)
	}
	w.n = 0
}

func (w *pairWriter) pair(left []*vector.Vec, li int, right []*vector.Vec, ri int, seq int64) error {
	for c := 0; c < w.nL; c++ {
		w.cols[c].AppendFrom(left[c], li)
	}
	for c := w.nL; c < len(w.kinds)-1; c++ {
		if right == nil {
			appendValue(w.cols[c], types.NewNull(w.kinds[c]))
		} else {
			w.cols[c].AppendFrom(right[c-w.nL], ri)
		}
	}
	appendI(w.cols[len(w.kinds)-1], seq)
	w.n++
	w.rows++
	if w.n >= vector.BatchSize {
		return w.flush()
	}
	return nil
}

func (w *pairWriter) flush() error {
	if w.n == 0 {
		return nil
	}
	if w.run == nil {
		run, err := spill.NewRun(w.res.Dir)
		if err != nil {
			return err
		}
		w.run = run
	}
	if err := w.run.WriteCols(w.cols, w.n); err != nil {
		return err
	}
	w.resetBuf()
	return nil
}

// finish flushes and returns the output run (nil if no rows were
// emitted).
func (w *pairWriter) finish() (*spill.Run, error) {
	if err := w.flush(); err != nil {
		w.abandon()
		return nil, err
	}
	if w.run == nil {
		return nil, nil
	}
	if err := w.run.Finish(); err != nil {
		w.abandon()
		return nil, err
	}
	w.res.Res.NoteSpill(w.run.Bytes())
	return w.run, nil
}

func (w *pairWriter) abandon() {
	if w.run != nil {
		w.run.Close() //nolint:errcheck
		w.run = nil
	}
}
