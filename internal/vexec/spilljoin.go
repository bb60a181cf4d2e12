// Grace hash join: partition spilling for the vectorized hash join's
// build side, with the probe side partitioned by the same hash so every
// partition joins independently against an in-memory table. The
// partitions drain through the group table's partition loop: a partition
// whose build side still exceeds the budget repartitions both sides one
// level down under a reseeded hash, and at the depth cap completes over
// budget.
//
// Output order is preserved exactly: every probe record carries its
// arrival sequence number, a probe row's matches all live in the one
// partition its key hashes to (emitted in build-input chain order, like
// the in-memory join), and the per-partition output runs — each
// seq-ascending by construction — are recombined by the k-way merge on
// the sequence number. The result is byte-identical to the in-memory
// join's output stream.
package vexec

import (
	"perm/internal/algebra"
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
	outKinds   []types.Kind // output record: probe columns + build columns + seq
	buildPS    *partitionSet
	probePS    *partitionSet
	seqCtr     int64
	outRuns    []*spill.Run
	merger     *runMerger
}

// cleanup closes everything the grace state may still own: unfinished
// partition writers, finished output runs and the merge. Safe to call at
// any failure point and after normal completion (all sub-cleanups are
// no-ops once ownership has moved on).
func (g *graceJoin) cleanup() {
	if g == nil {
		return
	}
	g.buildPS.abandon()
	g.probePS.abandon()
	g.merger.close()
	g.merger = nil
	closeRuns(g.outRuns)
	g.outRuns = nil
}

// startGrace switches the join into Grace mode mid-build: the rows
// accumulated so far are rehashed into build partitions and the
// in-memory build storage is released.
func (j *HashJoin) startGrace(hashes []uint64) (*graceJoin, error) {
	g := &graceJoin{j: j, res: j.Spill}
	g.buildKinds = append(append([]types.Kind{}, j.RightKinds...), exprKinds(j.RightKeys)...)
	g.probeKinds = append(append([]types.Kind{}, j.LeftKinds...), exprKinds(j.LeftKeys)...)
	g.probeKinds = append(g.probeKinds, types.KindInt)
	g.outKinds = append(append([]types.Kind{}, j.LeftKinds...), j.RightKinds...)
	g.outKinds = append(g.outKinds, types.KindInt)
	g.buildPS = newPartitionSet(j.Spill, g.buildKinds, 1)
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
// every partition pair, and prepares the merge on the sequence column.
// Called from HashJoin.Open after the build side finished in Grace mode.
func (g *graceJoin) runProbe() (err error) {
	j := g.j
	g.probePS = newPartitionSet(g.res, g.probeKinds, 1)
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
		lanes := resolveSel(b, b.Sel)
		hs := j.hasher.rows(keys, lanes)
		for idx, i := range lanes {
			seq := g.seqCtr
			g.seqCtr++
			if j.Type == algebra.JoinInner && hasNullKey(j.NullSafe, keys, i) {
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
	if g.outRuns, err = drainPartitions([]*partitionSet{g.buildPS, g.probePS}, g.processPartition); err != nil {
		return err
	}
	g.merger, err = newSeqMerge(g.outRuns, g.outKinds[:len(g.outKinds)-1])
	return err
}

// processPartition joins one partition pair. It returns the partition's
// output run, or the build and probe partition sets one level down when
// the build side had to repartition.
func (g *graceJoin) processPartition(it partitionItem) (*spill.Run, []*partitionSet, error) {
	j := g.j
	build, probe := it.runs[0], it.runs[1]
	if probe == nil {
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
	for build != nil {
		cols, n, err := build.ReadCols()
		if err != nil {
			return nil, nil, err
		}
		if n == 0 {
			break
		}
		delta := batchBytes(cols, identitySel[:n])
		if !g.res.Res.Grow(delta) {
			if !it.capped() {
				sets, err := g.repartition(it, acc, cols, n)
				return nil, sets, err
			}
			g.res.Res.Force(delta) // depth exhausted: complete over budget
		}
		itemBytes += delta
		acc.Append(cols, identitySel[:n])
	}
	// Index the partition's build rows by key hash; probing visits a chain
	// in build-input order, exactly like the in-memory join.
	var index hashIndex
	if acc.Len() > 0 {
		index.build(j.hasher.tableHashes(acc, nBuildCols, nBuildCols+nKeys))
	}

	// Stream the probe partition against the table, emitting seq-tagged
	// pairs; a nil build row null-extends.
	w := &runWriter{res: g.res, kinds: g.outKinds}
	nL := len(j.LeftKinds)
	pair := func(left []*vector.Vec, li int, right []*vector.Vec, ri int, seq int64) error {
		return w.add(func(dst []*vector.Vec) {
			for c := 0; c < nL; c++ {
				dst[c].AppendFrom(left[c], li)
			}
			for c := nL; c < len(dst)-1; c++ {
				if right == nil {
					appendValue(dst[c], types.NewNull(dst[c].Kind))
				} else {
					dst[c].AppendFrom(right[c-nL], ri)
				}
			}
			appendI(dst[len(dst)-1], seq)
		})
	}
	for {
		cols, n, err := probe.ReadCols()
		if err != nil {
			w.abandon()
			return nil, nil, err
		}
		if n == 0 {
			break
		}
		probeData := cols[:nL]
		probeKeys := cols[nL : nL+nKeys]
		seqs := cols[len(cols)-1].I
		hs := j.hasher.rowRange(probeKeys, 0, n)
		for i := 0; i < n; i++ {
			matched := false
			if !j.neverMatch && !hasNullKey(j.NullSafe, probeKeys, i) {
				for bi := index.head(hs[i]); bi >= 0; bi = index.next[bi] {
					row, lane := acc.At(int(bi))
					if storedKeysMatch(j.NullSafe, probeKeys, i, row[nBuildCols:], lane) {
						if err := pair(probeData, i, row[:nBuildCols], lane, seqs[i]); err != nil {
							return nil, nil, err
						}
						matched = true
					}
				}
			}
			if !matched && j.Type == algebra.JoinLeft {
				if err := pair(probeData, i, nil, -1, seqs[i]); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	out, err := w.finish()
	return out, nil, err
}

// repartition splits a skewed partition one level down: the build rows
// loaded so far, the batch that was denied and the rest of the build run
// into one partition set, the whole probe run into another, each routed
// by the hash of its key columns.
func (g *graceJoin) repartition(it partitionItem, acc *vector.Table, cols []*vector.Vec, n int) ([]*partitionSet, error) {
	j := g.j
	nBuildCols, nKeys := len(j.RightKinds), len(j.RightKeys)
	build, probe := it.split(g.res, g.buildKinds), it.split(g.res, g.probeKinds)
	err := func() error {
		for _, chunk := range acc.Chunks() {
			rows := chunk[0].Len()
			for lo := 0; lo < rows; lo += vector.BatchSize {
				if err := build.addRows(&j.hasher, chunk, lo, min(lo+vector.BatchSize, rows), nBuildCols, nKeys); err != nil {
					return err
				}
			}
		}
		if err := build.addRows(&j.hasher, cols, 0, n, nBuildCols, nKeys); err != nil {
			return err
		}
		if err := build.addRun(&j.hasher, it.runs[0], nBuildCols, nKeys); err != nil {
			return err
		}
		return probe.addRun(&j.hasher, it.runs[1], len(j.LeftKinds), nKeys)
	}()
	if err != nil {
		build.abandon()
		probe.abandon()
		return nil, err
	}
	return []*partitionSet{build, probe}, nil
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
