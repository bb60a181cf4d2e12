// Vectorized bag/set operations, implementing the multiset semantics of
// the paper's Fig. 1 exactly like the row engine's SetOp: UNION ALL adds
// multiplicities (and streams), INTERSECT ALL takes the minimum, EXCEPT
// ALL subtracts; the set variants apply DISTINCT projection to the
// multiset result. Output order is first appearance across the left then
// right input, matching the row engine. Under a memory budget the
// distinct-row table spills partial records (row, per-side counts,
// first-appearance sequence number) into hash partitions; partitions
// merge the counts independently and write each surviving row as many
// times as its multiplicity, and a final sequence merge restores the
// exact in-memory output order.
package vexec

import (
	"perm/internal/algebra"
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
	Kind        algebra.SetOpKind
	All         bool
	Spill       spill.Resources

	// Streaming state (UNION ALL).
	phase int // 0 = left, 1 = right, 2 = done

	// Materialized state (everything else).
	tab    groupTable
	nL, mR []int64
	emit   emitter
}

// NewVecSetOp returns a vectorized set-operation node.
func NewVecSetOp(left, right Node, kind algebra.SetOpKind, all bool) *VecSetOp {
	return &VecSetOp{Left: left, Right: right, Kind: kind, All: all}
}

// streaming reports whether the operation passes batches through without
// materializing (UNION ALL).
func (s *VecSetOp) streaming() bool { return s.Kind == algebra.SetUnion && s.All }

// Spilled reports whether the operator spilled partitions to disk.
func (s *VecSetOp) Spilled() bool { return s.tab.spilled() }

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

func (s *VecSetOp) resultKinds() []types.Kind       { return nil }
func (s *VecSetOp) appendResult(int, []*vector.Vec) {}

// copies computes the output multiplicity of distinct row e under the
// operation's multiset semantics.
func (s *VecSetOp) copies(e int) int64 {
	var count int64
	switch s.Kind {
	case algebra.SetUnion:
		// Set semantics: distinct union.
		if s.nL[e]+s.mR[e] > 0 {
			count = 1
		}
	case algebra.SetIntersect:
		count = s.nL[e]
		if s.mR[e] < count {
			count = s.mR[e]
		}
		if !s.All && count > 0 {
			count = 1
		}
	case algebra.SetExcept:
		if s.All {
			count = s.nL[e] - s.mR[e]
		} else if s.nL[e] > 0 && s.mR[e] == 0 {
			count = 1
		}
	}
	return count
}

func (s *VecSetOp) Open() (err error) {
	if s.streaming() {
		s.phase = 0
		return s.Left.Open()
	}
	s.tab.open(s.Spill, s, groupOverheadBytes)
	// A failed Open never sees a matching Close from the parent: unwind
	// the spill state here (reserved bytes, partition writers, outputs).
	defer func() {
		if err != nil {
			s.tab.close()
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
	if err := s.tab.finish(); err != nil || s.tab.spilled() {
		return err
	}
	// Emit multiplicities per distinct row, in first-appearance order.
	var order []int32
	for e := 0; e < s.tab.set.rows.Len(); e++ {
		for i := int64(0); i < s.copies(e); i++ {
			order = append(order, int32(e))
		}
	}
	s.emit.reset(&s.tab.set.rows, order)
	return nil
}

// drain folds one input into the distinct-row table with per-side
// multiplicities.
func (s *VecSetOp) drain(in Node, left bool) error {
	for {
		b, err := in.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		lanes := resolveSel(b, b.Sel)
		hs := s.tab.hasher.rows(b.Cols, lanes)
		for idx, i := range lanes {
			e := s.tab.set.find(b.Cols, i, hs[idx])
			if e < 0 {
				if e, err = s.tab.add(b.Cols, i, hs[idx]); err != nil {
					return err
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
		if s.tab.spilled() {
			return s.tab.merger.next()
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
	s.tab.close()
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
