// Vectorized bag/set operations, implementing the multiset semantics of
// the paper's Fig. 1 exactly like the row engine's SetOp: UNION ALL adds
// multiplicities (and streams), INTERSECT ALL takes the minimum, EXCEPT
// ALL subtracts; the set variants apply DISTINCT projection to the
// multiset result. Output order is first appearance across the left then
// right input, matching the row engine. Under a memory budget the
// distinct-row table spills partial records (row, per-side counts,
// first-appearance sequence number) into hash partitions; partitions
// merge the counts independently and a final sequence merge restores the
// exact in-memory output order, multiplicities expanded on the fly.
package vexec

import (
	"perm/internal/exec"
	"perm/internal/obs"
	"perm/internal/spill"
	"perm/internal/types"
	"perm/internal/vector"
)

// VecSetOp computes a set operation over two vectorized inputs whose
// column kinds match exactly (the planner checks; mismatched branches
// stay on the row engine).
type VecSetOp struct {
	obs.Card
	Left, Right Node
	Kind        exec.SetOpKind
	All         bool
	Spill       spill.Resources

	// Streaming state (UNION ALL).
	phase int // 0 = left, 1 = right, 2 = done

	// Materialized state (everything else).
	acc    rowSet
	hasher keyHasher
	nL, mR []int64
	emit   emitter

	// Budget-driven spill state.
	kinds    []types.Kind
	seqs     []int64
	seqCtr   int64
	pending  int64
	accBytes int64
	ps       *partitionSet
	merger   *seqMerger
	outRuns  []*spill.Run
}

// NewVecSetOp returns a vectorized set-operation node.
func NewVecSetOp(left, right Node, kind exec.SetOpKind, all bool) *VecSetOp {
	return &VecSetOp{Left: left, Right: right, Kind: kind, All: all}
}

// streaming reports whether the operation passes batches through without
// materializing (UNION ALL).
func (s *VecSetOp) streaming() bool { return s.Kind == exec.Union && s.All }

// Spilled reports whether the operator spilled partitions to disk.
func (s *VecSetOp) Spilled() bool { return s.ps != nil }

// stateKinds etc. implement groupStater over the per-side multiplicity
// counters.
func (s *VecSetOp) stateKinds() []types.Kind { return []types.Kind{types.KindInt, types.KindInt} }

func (s *VecSetOp) reset() { s.nL, s.mR = s.nL[:0], s.mR[:0] }

func (s *VecSetOp) newGroup() {
	s.nL = append(s.nL, 0)
	s.mR = append(s.mR, 0)
}

func (s *VecSetOp) appendState(g int, dst []*vector.Vec) {
	appendI(dst[0], s.nL[g])
	appendI(dst[1], s.mR[g])
}

func (s *VecSetOp) mergeState(g int, state []*vector.Vec, lane int) {
	s.nL[g] += state[0].I[lane]
	s.mR[g] += state[1].I[lane]
}

// countFor computes the output multiplicity of distinct row e under the
// operation's multiset semantics.
func (s *VecSetOp) countFor(e int) int64 {
	var count int64
	switch s.Kind {
	case exec.Union:
		// Set semantics: distinct union.
		if s.nL[e]+s.mR[e] > 0 {
			count = 1
		}
	case exec.Intersect:
		count = s.nL[e]
		if s.mR[e] < count {
			count = s.mR[e]
		}
		if !s.All && count > 0 {
			count = 1
		}
	case exec.Except:
		if s.All {
			count = s.nL[e] - s.mR[e]
		} else if s.nL[e] > 0 && s.mR[e] == 0 {
			count = 1
		}
	}
	return count
}

// spillGroups flushes the live distinct-row table into the partition set
// and resets it.
func (s *VecSetOp) spillGroups() error {
	if s.ps == nil {
		s.ps = newPartitionSet(s.Spill, recordKinds(s.kinds, s), 0)
	}
	if err := flushGroupRecords(s.ps, &s.acc, s.seqs, s); err != nil {
		return err
	}
	s.acc.reset()
	s.seqs = s.seqs[:0]
	s.nL, s.mR = s.nL[:0], s.mR[:0]
	s.Spill.Res.Release(s.accBytes)
	s.accBytes = 0
	return nil
}

func (s *VecSetOp) Open() (err error) {
	if s.streaming() {
		s.phase = 0
		return s.Left.Open()
	}
	s.acc.reset()
	s.nL, s.mR = s.nL[:0], s.mR[:0]
	s.seqs = s.seqs[:0]
	s.seqCtr, s.pending, s.accBytes = 0, 0, 0
	s.ps, s.merger = nil, nil
	closeRuns(s.outRuns)
	s.outRuns = nil
	// A failed Open never sees a matching Close from the parent: unwind
	// the spill state here (reserved bytes, partition writers, outputs).
	defer func() {
		if err != nil {
			s.ps.abandon()
			closeRuns(s.outRuns)
			s.outRuns = nil
			s.acc = rowSet{}
			s.Spill.Res.ReleaseAll()
		}
	}()
	if err := s.Left.Open(); err != nil {
		return err
	}
	if err := s.drain(s.Left, true); err != nil {
		s.Left.Close() //nolint:errcheck — unwinding after a failed drain
		return err
	}
	if err := s.Left.Close(); err != nil {
		return err
	}
	if err := s.Right.Open(); err != nil {
		return err
	}
	if err := s.drain(s.Right, false); err != nil {
		s.Right.Close() //nolint:errcheck — unwinding after a failed drain
		return err
	}
	if err := s.Right.Close(); err != nil {
		return err
	}

	if s.ps == nil {
		// Emit multiplicities per distinct row, in first-appearance order.
		var order []int32
		for e := 0; e < s.acc.rows.Len(); e++ {
			for i := int64(0); i < s.countFor(e); i++ {
				order = append(order, int32(e))
			}
		}
		s.emit.reset(&s.acc.rows, order)
		return nil
	}
	if s.pending > 0 {
		s.Spill.Res.Force(s.pending)
		s.accBytes += s.pending
		s.pending = 0
	}
	if err := s.spillGroups(); err != nil {
		return err
	}
	runs, err := s.ps.finish()
	if err != nil {
		return err
	}
	s.outRuns, err = processGroupPartitions(s.Spill, runs, s.kinds, s, func(res spill.Resources,
		acc *vector.Table, seqs []int64, order []int32) (*spill.Run, error) {
		kept := order[:0]
		for _, g := range order {
			if s.countFor(int(g)) > 0 {
				kept = append(kept, g)
			}
		}
		if len(kept) == 0 {
			return nil, nil
		}
		return writeGroupRun(res, acc, kept, []types.Kind{types.KindInt, types.KindInt},
			func(g int32, extra []*vector.Vec) {
				appendI(extra[0], s.countFor(int(g)))
				appendI(extra[1], seqs[g])
			})
	})
	if err != nil {
		return err
	}
	s.merger, err = newSeqMerger(s.outRuns, len(s.kinds), len(s.kinds), len(s.kinds)+1)
	return err
}

// startGroup adds lane i of b (key hash h) as a new distinct row with zero
// counts, first seen at seq.
func (s *VecSetOp) startGroup(b *vector.Batch, i int, h uint64, seq int64) int32 {
	s.newGroup()
	s.seqs = append(s.seqs, seq)
	return s.acc.insert(b.Cols, i, h)
}

// drain folds one input into the distinct-row table with per-side
// multiplicities, spilling partial records under budget pressure.
func (s *VecSetOp) drain(in Node, left bool) error {
	budgeted := s.Spill.Enabled()
	for {
		b, err := in.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if s.kinds == nil {
			s.kinds = colKinds(b.Cols)
		}
		lanes := resolveSel(b, b.Sel)
		hs := s.hasher.rows(b.Cols, lanes)
		for idx, i := range lanes {
			seq := s.seqCtr
			s.seqCtr++
			h := hs[idx]
			e := s.acc.find(b.Cols, i, h)
			if e < 0 {
				e = s.startGroup(b, i, h, seq)
				if budgeted {
					s.pending += laneBytes(b.Cols, i) + groupOverheadBytes
					if s.pending >= growQuantum {
						if !s.Spill.Res.Grow(s.pending) {
							if err := s.spillGroups(); err != nil {
								return err
							}
							s.Spill.Res.Force(s.pending)
							// The row just counted was flushed with the
							// rest; restart its group.
							e = s.startGroup(b, i, h, seq)
						}
						s.accBytes += s.pending
						s.pending = 0
					}
				}
			}
			if left {
				s.nL[e]++
			} else {
				s.mR[e]++
			}
		}
	}
}

func (s *VecSetOp) Next() (*vector.Batch, error) {
	if !s.streaming() {
		if s.merger != nil {
			return s.merger.next()
		}
		return s.emit.next(), nil
	}
	for {
		switch s.phase {
		case 0:
			b, err := s.Left.Next()
			if err != nil {
				return nil, err
			}
			if b != nil {
				return b, nil
			}
			if err := s.Left.Close(); err != nil {
				return nil, err
			}
			if err := s.Right.Open(); err != nil {
				return nil, err
			}
			s.phase = 1
		case 1:
			b, err := s.Right.Next()
			if err != nil {
				return nil, err
			}
			if b != nil {
				return b, nil
			}
			if err := s.Right.Close(); err != nil {
				return nil, err
			}
			s.phase = 2
		default:
			return nil, nil
		}
	}
}

func (s *VecSetOp) Close() error {
	s.emit.close()
	s.acc = rowSet{}
	s.merger.close()
	s.merger = nil
	s.ps.abandon()
	closeRuns(s.outRuns)
	s.outRuns = nil
	s.Spill.Res.ReleaseAll()
	if s.streaming() {
		// Inputs were closed as their phases completed; closing again is
		// harmless for our nodes but skip the bookkeeping.
		switch s.phase {
		case 0:
			return s.Left.Close()
		case 1:
			return s.Right.Close()
		}
	}
	return nil
}
