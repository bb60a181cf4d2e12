// Vectorized nested-loop join: the fallback join for conditions without
// extractable equi-keys (cross joins, theta joins, and the cross-shaped
// outer joins the provenance rewriter emits for sublink provenance).
// The right side is materialized into columns once; probe batches then
// pair with it in batch-sized chunks assembled by gather, so no boxed
// row is ever built — on provenance-rewritten queries whose output is a
// wide cross product this replaces one row allocation per pair with
// columnar copies.
package vexec

import (
	"perm/internal/algebra"
	"perm/internal/obs"
	"perm/internal/types"
	"perm/internal/vector"
)

// NLJoin is a vectorized nested-loop join (inner or left outer; right
// and full stay on the row engine). Cond, when non-nil, is evaluated
// over the concatenated pair batch and participates in the match
// decision, so left joins with arbitrary residual conditions are
// supported.
type NLJoin struct {
	obs.Card
	Left, Right Node
	Cond        *Expr            // nil = cross join
	Type        algebra.JoinKind // JoinInner or JoinLeft
	LeftKinds   []types.Kind
	RightKinds  []types.Kind

	build vector.Table

	curBatch *vector.Batch
	lanes    []int // live lanes of curBatch
	li, ri   int   // pair cursor into lanes × build rows
	matched  []bool
	flushed  bool // null-extension for curBatch emitted

	pairL, pairR []int32
	emitOwned    []*vector.Vec
	emitBuf      []*vector.Vec
	aq           *obs.ActiveQuery
}

// NewNLJoin returns a vectorized nested-loop join node.
func NewNLJoin(left, right Node, cond *Expr, jt algebra.JoinKind, leftKinds, rightKinds []types.Kind) *NLJoin {
	return &NLJoin{Left: left, Right: right, Cond: cond, Type: jt, LeftKinds: leftKinds, RightKinds: rightKinds}
}

func (j *NLJoin) Open() error {
	j.build = vector.Table{}
	if err := j.Right.Open(); err != nil {
		return err
	}
	for {
		b, err := j.Right.Next()
		if err != nil {
			j.Right.Close() //nolint:errcheck — unwinding after a failed build
			return err
		}
		if b == nil {
			break
		}
		j.build.Append(b.Cols, resolveSel(b, b.Sel))
	}
	if err := j.Right.Close(); err != nil {
		return err
	}
	j.curBatch = nil
	j.flushed = true
	return j.Left.Open()
}

// SetActivity attaches the active-query registration so cooperative
// cancellation is observed once per emitted batch: a cross join emits
// millions of batches per probe-scan pull, so polling at the scans alone
// would leave cancellation latency unbounded.
func (j *NLJoin) SetActivity(aq *obs.ActiveQuery) { j.aq = aq }

func (j *NLJoin) Next() (*vector.Batch, error) {
	if err := j.aq.CancelErr(); err != nil {
		return nil, err
	}
	for {
		if j.curBatch != nil {
			b, err := j.pairChunk()
			if err != nil {
				return nil, err
			}
			if b != nil {
				return b, nil
			}
		}
		b, err := j.Left.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		j.curBatch = b
		j.lanes = resolveSel(b, b.Sel)
		j.li, j.ri = 0, 0
		j.flushed = false
		if j.Type == algebra.JoinLeft {
			if cap(j.matched) < len(j.lanes) {
				j.matched = make([]bool, len(j.lanes))
			} else {
				j.matched = j.matched[:len(j.lanes)]
				for i := range j.matched {
					j.matched[i] = false
				}
			}
		}
	}
}

// pairChunk assembles and emits the next batch of surviving pairs from
// the current probe batch, or the null-extended unmatched lanes once all
// pairs are exhausted (left join). Returns nil when the probe batch is
// fully consumed.
func (j *NLJoin) pairChunk() (*vector.Batch, error) {
	n := j.build.Len()
	for j.li < len(j.lanes) {
		// Collect up to BatchSize candidate pairs.
		j.pairL, j.pairR = j.pairL[:0], j.pairR[:0]
		for j.li < len(j.lanes) && len(j.pairL) < vector.BatchSize {
			if n == 0 {
				j.li = len(j.lanes)
				break
			}
			j.pairL = append(j.pairL, int32(j.lanes[j.li]))
			j.pairR = append(j.pairR, int32(j.ri))
			j.ri++
			if j.ri >= n {
				j.ri = 0
				j.li++
			}
		}
		if len(j.pairL) == 0 {
			break
		}
		out := j.gatherPairs(j.pairL, j.pairR)
		if j.Cond != nil {
			sel, err := j.Cond.selectTrue(out, identitySel[:out.N])
			if err != nil {
				return nil, err
			}
			if j.Type == algebra.JoinLeft {
				// Map surviving pairs back to their probe lanes. The
				// chunk covers a contiguous run of (lane, build) pairs;
				// recover the lane index from the chunk position.
				for _, i := range sel {
					j.markMatched(j.pairL[i])
				}
			}
			if len(sel) == 0 {
				continue
			}
			if len(sel) < out.N {
				out.Sel = sel
			}
			return out, nil
		}
		if j.Type == algebra.JoinLeft {
			for _, l := range j.pairL {
				j.markMatched(l)
			}
		}
		return out, nil
	}
	// Pairs exhausted: emit null-extended unmatched lanes (left join).
	if j.Type == algebra.JoinLeft && !j.flushed {
		j.flushed = true
		j.pairL = j.pairL[:0]
		for idx, lane := range j.lanes {
			if !j.matched[idx] {
				j.pairL = append(j.pairL, int32(lane))
			}
		}
		if len(j.pairL) > 0 {
			j.pairR = j.pairR[:0]
			for range j.pairL {
				j.pairR = append(j.pairR, -1)
			}
			out := j.gatherPairs(j.pairL, j.pairR)
			j.curBatch = nil
			return out, nil
		}
	}
	j.curBatch = nil
	return nil, nil
}

// markMatched records that probe lane `lane` produced a pair. Lanes are
// in increasing order in j.lanes; a linear scan from the current cursor
// would be O(1), but chunk boundaries make binary search simpler.
func (j *NLJoin) markMatched(lane int32) {
	lo, hi := 0, len(j.lanes)
	for lo < hi {
		mid := (lo + hi) / 2
		if int32(j.lanes[mid]) < lane {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(j.lanes) && int32(j.lanes[lo]) == lane {
		j.matched[lo] = true
	}
}

// gatherPairs materializes a pair chunk into an output batch, recycling
// the previous chunk's buffers. A build index of -1 produces NULLs
// (null extension).
func (j *NLJoin) gatherPairs(pairL, pairR []int32) *vector.Batch {
	for _, v := range j.emitOwned {
		v.Free()
	}
	j.emitOwned = j.emitOwned[:0]
	if j.emitBuf == nil {
		j.emitBuf = make([]*vector.Vec, len(j.LeftKinds)+len(j.RightKinds))
	}
	cols := j.emitBuf
	for c, k := range j.LeftKinds {
		cols[c] = vector.GatherBatch(j.curBatch.Cols[c], pairL, k)
	}
	off := len(j.LeftKinds)
	for c, k := range j.RightKinds {
		cols[off+c] = vector.NewBatchVec(k, len(pairR))
		j.build.GatherCol(c, pairR, cols[off+c])
	}
	j.emitOwned = append(j.emitOwned, cols...)
	return &vector.Batch{N: len(pairL), Cols: cols}
}

func (j *NLJoin) Close() error {
	err := j.Left.Close()
	for _, v := range j.emitOwned {
		v.Free()
	}
	j.emitOwned = j.emitOwned[:0]
	j.build = vector.Table{}
	j.curBatch = nil
	return err
}
