// Aggregate accumulators. One aggAcc holds the per-group state of one
// aggregate in struct-of-arrays form, and only the arrays its function
// reads at finalization: COUNT a counter; SUM a running sum (two for int
// arguments, mirroring the row engine) and a saw-a-value flag; AVG sum
// and counter; MIN/MAX a set flag and one payload array of the argument's
// kind. A batch is folded in by one typed loop over (lane, group id)
// pairs — sum[g[k]] += v[lanes[k]] — in lane order, so a group's float
// additions happen in exactly the order the row engine performs them.
package vexec

import (
	"perm/internal/algebra"
	"perm/internal/types"
	"perm/internal/vector"
)

type aggAcc struct {
	spec    AggSpec
	argKind types.Kind
	count   []int64   // COUNT, AVG
	sumI    []int64   // SUM/AVG over int
	sumF    []float64 // SUM/AVG
	sawAny  []bool    // SUM/AVG: some non-NULL input
	mmSet   []bool    // MIN/MAX: payload holds a value
	mI      []int64   // MIN/MAX payload for int/date/bool arguments
	mF      []float64
	mS      []string
}

func (a *aggAcc) isSum() bool {
	return a.spec.Fn == algebra.AggSum || a.spec.Fn == algebra.AggAvg
}

func (a *aggAcc) isMinMax() bool {
	return a.spec.Fn == algebra.AggMin || a.spec.Fn == algebra.AggMax
}

// addGroup appends one zero-state group.
func (a *aggAcc) addGroup() {
	switch {
	case a.spec.Fn == algebra.AggCount:
		a.count = append(a.count, 0)
	case a.isSum():
		a.count = append(a.count, 0)
		a.sumF = append(a.sumF, 0)
		a.sawAny = append(a.sawAny, false)
		if a.argKind == types.KindInt {
			a.sumI = append(a.sumI, 0)
		}
	case a.isMinMax():
		a.mmSet = append(a.mmSet, false)
		switch a.argKind {
		case types.KindFloat:
			a.mF = append(a.mF, 0)
		case types.KindString:
			a.mS = append(a.mS, "")
		default:
			a.mI = append(a.mI, 0)
		}
	}
}

// aggScratch is the per-operator scratch of accumulate: the (lane, group)
// pairs of a batch compacted to the argument's non-NULL lanes.
type aggScratch struct {
	lanes []int
	gids  []int32
}

// accumulate folds the listed lanes of arg into their groups: lanes[k]
// belongs to group gids[k].
func (a *aggAcc) accumulate(arg *vector.Vec, lanes []int, gids []int32, sc *aggScratch) {
	if a.spec.Star {
		for _, g := range gids {
			a.count[g]++
		}
		return
	}
	if len(lanes) == 0 {
		return
	}
	if arg.Nulls.AnyInRange(lanes[0], lanes[len(lanes)-1]+1) {
		// NULL inputs contribute nothing: drop their pairs once, so the
		// loops below never look at the bitmap.
		sc.lanes, sc.gids = sc.lanes[:0], sc.gids[:0]
		for k, i := range lanes {
			if !arg.Nulls.Get(i) {
				sc.lanes = append(sc.lanes, i)
				sc.gids = append(sc.gids, gids[k])
			}
		}
		lanes, gids = sc.lanes, sc.gids
	}
	switch a.spec.Fn {
	case algebra.AggCount:
		for _, g := range gids {
			a.count[g]++
		}
	case algebra.AggSum, algebra.AggAvg:
		if a.argKind == types.KindInt {
			v := arg.I
			for k, i := range lanes {
				g := gids[k]
				a.count[g]++
				a.sumI[g] += v[i]
				a.sumF[g] += float64(v[i])
				a.sawAny[g] = true
			}
		} else {
			v := arg.F
			for k, i := range lanes {
				g := gids[k]
				a.count[g]++
				a.sumF[g] += v[i]
				a.sawAny[g] = true
			}
		}
	case algebra.AggMin:
		a.minMax(arg, lanes, gids, true)
	case algebra.AggMax:
		a.minMax(arg, lanes, gids, false)
	}
}

// extreme keeps the smaller (min) or larger value per group.
func extreme[T ordered](m []T, set []bool, v []T, lanes []int, gids []int32, min bool) {
	if min {
		for k, i := range lanes {
			if g := gids[k]; !set[g] || v[i] < m[g] {
				m[g], set[g] = v[i], true
			}
		}
		return
	}
	for k, i := range lanes {
		if g := gids[k]; !set[g] || v[i] > m[g] {
			m[g], set[g] = v[i], true
		}
	}
}

func (a *aggAcc) minMax(arg *vector.Vec, lanes []int, gids []int32, min bool) {
	switch a.argKind {
	case types.KindInt, types.KindDate:
		extreme(a.mI, a.mmSet, arg.I, lanes, gids, min)
	case types.KindFloat:
		extreme(a.mF, a.mmSet, arg.F, lanes, gids, min)
	case types.KindString:
		extreme(a.mS, a.mmSet, arg.S, lanes, gids, min)
	default: // bool, kept as 0/1: false < true
		for k, i := range lanes {
			var x int64
			if arg.B[i] {
				x = 1
			}
			if g := gids[k]; !a.mmSet[g] || (min && x < a.mI[g]) || (!min && x > a.mI[g]) {
				a.mI[g], a.mmSet[g] = x, true
			}
		}
	}
}

// aggStateWidth is the number of serialized state columns per aggregate
// in a spilled partial-group record.
const aggStateWidth = 8

// aggStateKinds is the record layout of one aggregate's accumulator
// state: count, sumI, sumF, sawAny, mmSet, mI, mF, mS. Columns an
// aggregate keeps no array for are written as zero values.
func aggStateKinds() []types.Kind {
	return []types.Kind{
		types.KindInt, types.KindInt, types.KindFloat,
		types.KindBool, types.KindBool,
		types.KindInt, types.KindFloat, types.KindString,
	}
}

// stateAt reads group g of a state array the aggregate may not keep.
func stateAt[T any](s []T, g int) T {
	if s == nil {
		var zero T
		return zero
	}
	return s[g]
}

// appendState serializes group g's accumulator, one value per state
// column.
func (a *aggAcc) appendState(g int, dst []*vector.Vec) {
	appendI(dst[0], stateAt(a.count, g))
	appendI(dst[1], stateAt(a.sumI, g))
	appendF(dst[2], stateAt(a.sumF, g))
	appendB(dst[3], stateAt(a.sawAny, g))
	appendB(dst[4], stateAt(a.mmSet, g))
	appendI(dst[5], stateAt(a.mI, g))
	appendF(dst[6], stateAt(a.mF, g))
	appendS(dst[7], stateAt(a.mS, g))
}

// mergeState folds a serialized partial state into group g. All merges
// are associative, so partials from any number of flush epochs combine
// into exactly the state a single-pass aggregation would have built.
func (a *aggAcc) mergeState(g int, st []*vector.Vec, lane int) {
	switch {
	case a.spec.Fn == algebra.AggCount:
		a.count[g] += st[0].I[lane]
	case a.isSum():
		a.count[g] += st[0].I[lane]
		a.sumF[g] += st[2].F[lane]
		a.sawAny[g] = a.sawAny[g] || st[3].B[lane]
		if a.sumI != nil {
			a.sumI[g] += st[1].I[lane]
		}
	case a.isMinMax() && st[4].B[lane]:
		min := a.spec.Fn == algebra.AggMin
		first := !a.mmSet[g]
		a.mmSet[g] = true
		switch a.argKind {
		case types.KindFloat:
			if m := st[6].F[lane]; first || (min && m < a.mF[g]) || (!min && m > a.mF[g]) {
				a.mF[g] = m
			}
		case types.KindString:
			if m := st[7].S[lane]; first || (min && m < a.mS[g]) || (!min && m > a.mS[g]) {
				a.mS[g] = m
			}
		default: // int, date, and bool (stored in mI)
			if m := st[5].I[lane]; first || (min && m < a.mI[g]) || (!min && m > a.mI[g]) {
				a.mI[g] = m
			}
		}
	}
}

// finalize boxes group g's result, mirroring the row engine's finalize.
func (a *aggAcc) finalize(g int) types.Value {
	switch a.spec.Fn {
	case algebra.AggCount:
		return types.NewInt(a.count[g])
	case algebra.AggSum:
		if !a.sawAny[g] {
			return types.NewNull(a.spec.ResultKind)
		}
		if a.spec.ResultKind == types.KindInt {
			return types.NewInt(stateAt(a.sumI, g))
		}
		return types.NewFloat(a.sumF[g])
	case algebra.AggAvg:
		if !a.sawAny[g] || a.count[g] == 0 {
			return types.NewNull(types.KindFloat)
		}
		return types.NewFloat(a.sumF[g] / float64(a.count[g]))
	case algebra.AggMin, algebra.AggMax:
		if !a.mmSet[g] {
			return types.NewNull(a.spec.ResultKind)
		}
		switch a.argKind {
		case types.KindInt:
			return types.NewInt(a.mI[g])
		case types.KindDate:
			return types.NewDate(a.mI[g])
		case types.KindFloat:
			return types.NewFloat(a.mF[g])
		case types.KindString:
			return types.NewString(a.mS[g])
		default:
			return types.NewBool(a.mI[g] != 0)
		}
	default:
		return types.NullValue
	}
}
