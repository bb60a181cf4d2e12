// Select kernels: typed, op-specialised loops that narrow a selection
// vector. Every kernel reads the lanes listed in sel (always explicit —
// callers resolve a nil selection against the shared identity prefix),
// writes the survivors into out in the same increasing order and returns
// out[:k]. out must have room for len(sel) lanes. The loops store the lane
// first and advance the write position on the comparison's outcome, which
// the compiler turns into a conditional move: no branch depends on the
// data, so a 50 % selective predicate costs what a 1 % one does.
//
// Comparison semantics are those of types.Compare's three-way outcome
// (a<b → -1, a>b → +1, otherwise 0): a NaN therefore compares "equal" to
// everything, exactly like the row engine, which is why the orderings are
// written with < and > only (LE is !(a>b), GE is !(a<b)) and float
// equality has its own kernel.
package vexec

import (
	"strings"

	"perm/internal/types"
	"perm/internal/vector"
)

// ordered is the set of payload types the comparison kernels are
// instantiated for: int/date lanes, float lanes and string lanes.
type ordered interface{ ~int64 | ~float64 | ~string }

// scratch returns the operator scratch buf resized to n elements,
// reallocating it when it cannot hold them: the first input sizes it, and
// every regrowth at least doubles it, up to BatchSize. A 40-row input
// pays for 40 lanes, and a stream of batches growing to BatchSize
// reallocates at most log2(BatchSize/first) times. An operator's
// per-batch lane buffers go through it; their contents are not kept
// across calls.
func scratch[S ~[]E, E any](buf *S, n int) S {
	if cap(*buf) < n {
		*buf = make(S, n, max(n, min(2*cap(*buf), vector.BatchSize)))
	}
	return (*buf)[:n]
}

// selScratch returns buf emptied with room for n lanes, never nil: a nil
// selection means "all rows".
func selScratch(buf *[]int, n int) []int { return scratch(buf, max(n, 1))[:0] }

// selCmpVC keeps the lanes where v[i] op c. EQ and NE use the natural
// operators: they are exact for int and string lanes; float lanes go
// through selEqFloatVC.
func selCmpVC[T ordered](op cmpOp, v []T, c T, sel, out []int) []int {
	out = out[:len(sel)]
	k := 0
	switch op {
	case cmpEQ:
		for _, i := range sel {
			out[k] = i
			if v[i] == c {
				k++
			}
		}
	case cmpNE:
		for _, i := range sel {
			out[k] = i
			if v[i] != c {
				k++
			}
		}
	case cmpLT:
		for _, i := range sel {
			out[k] = i
			if v[i] < c {
				k++
			}
		}
	case cmpLE:
		for _, i := range sel {
			out[k] = i
			if !(v[i] > c) {
				k++
			}
		}
	case cmpGT:
		for _, i := range sel {
			out[k] = i
			if v[i] > c {
				k++
			}
		}
	default: // cmpGE
		for _, i := range sel {
			out[k] = i
			if !(v[i] < c) {
				k++
			}
		}
	}
	return out[:k]
}

// selCmpVV keeps the lanes where l[i] op r[i].
func selCmpVV[T ordered](op cmpOp, l, r []T, sel, out []int) []int {
	out = out[:len(sel)]
	k := 0
	switch op {
	case cmpEQ:
		for _, i := range sel {
			out[k] = i
			if l[i] == r[i] {
				k++
			}
		}
	case cmpNE:
		for _, i := range sel {
			out[k] = i
			if l[i] != r[i] {
				k++
			}
		}
	case cmpLT:
		for _, i := range sel {
			out[k] = i
			if l[i] < r[i] {
				k++
			}
		}
	case cmpLE:
		for _, i := range sel {
			out[k] = i
			if !(l[i] > r[i]) {
				k++
			}
		}
	case cmpGT:
		for _, i := range sel {
			out[k] = i
			if l[i] > r[i] {
				k++
			}
		}
	default: // cmpGE
		for _, i := range sel {
			out[k] = i
			if !(l[i] < r[i]) {
				k++
			}
		}
	}
	return out[:k]
}

// selEqFloatVC is float equality (ne: inequality) against a constant
// under the three-way outcome: equal means neither less nor greater.
func selEqFloatVC(ne bool, v []float64, c float64, sel, out []int) []int {
	out = out[:len(sel)]
	k := 0
	for _, i := range sel {
		out[k] = i
		if (v[i] < c || v[i] > c) == ne {
			k++
		}
	}
	return out[:k]
}

// selEqFloatVV is selEqFloatVC between two vectors.
func selEqFloatVV(ne bool, l, r []float64, sel, out []int) []int {
	out = out[:len(sel)]
	k := 0
	for _, i := range sel {
		out[k] = i
		if (l[i] < r[i] || l[i] > r[i]) == ne {
			k++
		}
	}
	return out[:k]
}

// selRange keeps the lanes with lo ≤ v[i] ≤ hi, each bound strict when
// its Inc flag is false: two conjuncts on one column in one pass.
func selRange[T ordered](v []T, lo, hi T, loInc, hiInc bool, sel, out []int) []int {
	out = out[:len(sel)]
	k := 0
	switch {
	case loInc && hiInc:
		for _, i := range sel {
			out[k] = i
			if x := v[i]; !(x < lo) && !(x > hi) {
				k++
			}
		}
	case loInc:
		for _, i := range sel {
			out[k] = i
			if x := v[i]; !(x < lo) && x < hi {
				k++
			}
		}
	case hiInc:
		for _, i := range sel {
			out[k] = i
			if x := v[i]; x > lo && !(x > hi) {
				k++
			}
		}
	default:
		for _, i := range sel {
			out[k] = i
			if x := v[i]; x > lo && x < hi {
				k++
			}
		}
	}
	return out[:k]
}

// selNulls keeps the lanes whose bit in nulls equals want.
func selNulls(nulls vector.Bitmap, want bool, sel, out []int) []int {
	out = out[:len(sel)]
	k := 0
	for _, i := range sel {
		out[k] = i
		if nulls.Get(i) == want {
			k++
		}
	}
	return out[:k]
}

// selBothNotNull keeps the lanes that are NULL in neither bitmap.
func selBothNotNull(a, b vector.Bitmap, sel, out []int) []int {
	out = out[:len(sel)]
	k := 0
	for _, i := range sel {
		out[k] = i
		if !a.Get(i) && !b.Get(i) {
			k++
		}
	}
	return out[:k]
}

// selBool keeps the lanes where v[i] == want.
func selBool(v []bool, want bool, sel, out []int) []int {
	out = out[:len(sel)]
	k := 0
	for _, i := range sel {
		out[k] = i
		if v[i] == want {
			k++
		}
	}
	return out[:k]
}

// likeMatcher is a LIKE pattern compiled once: patterns made of a literal
// with % at either end (the shapes TPC-H uses) become prefix, suffix,
// substring or equality tests; anything else runs the general matcher.
type likeMatcher struct {
	mode likeMode
	lit  string // the literal part, or the whole pattern for likeGeneral
}

type likeMode uint8

const (
	likeGeneral likeMode = iota
	likeExact
	likePrefix
	likeSuffix
	likeContains
)

func compileLike(pattern string) likeMatcher {
	head := strings.HasPrefix(pattern, "%")
	tail := len(pattern) > 1 && strings.HasSuffix(pattern, "%")
	lit := pattern
	if head {
		lit = lit[1:]
	}
	if tail {
		lit = lit[:len(lit)-1]
	}
	switch {
	case strings.ContainsAny(lit, "%_"):
		return likeMatcher{mode: likeGeneral, lit: pattern}
	case head && tail:
		return likeMatcher{mode: likeContains, lit: lit}
	case head:
		return likeMatcher{mode: likeSuffix, lit: lit}
	case tail:
		return likeMatcher{mode: likePrefix, lit: lit}
	default:
		return likeMatcher{mode: likeExact, lit: lit}
	}
}

// selLikeVC keeps the lanes where (v[i] LIKE pattern) == want.
func selLikeVC(m likeMatcher, want bool, v []string, sel, out []int) []int {
	out = out[:len(sel)]
	k := 0
	switch m.mode {
	case likeExact:
		for _, i := range sel {
			out[k] = i
			if (v[i] == m.lit) == want {
				k++
			}
		}
	case likePrefix:
		for _, i := range sel {
			out[k] = i
			if strings.HasPrefix(v[i], m.lit) == want {
				k++
			}
		}
	case likeSuffix:
		for _, i := range sel {
			out[k] = i
			if strings.HasSuffix(v[i], m.lit) == want {
				k++
			}
		}
	case likeContains:
		for _, i := range sel {
			out[k] = i
			if strings.Contains(v[i], m.lit) == want {
				k++
			}
		}
	default:
		for _, i := range sel {
			out[k] = i
			if types.MatchLike(v[i], m.lit) == want {
				k++
			}
		}
	}
	return out[:k]
}

// selLikeVV is LIKE with a per-lane pattern.
func selLikeVV(want bool, v, pattern []string, sel, out []int) []int {
	out = out[:len(sel)]
	k := 0
	for _, i := range sel {
		out[k] = i
		if types.MatchLike(v[i], pattern[i]) == want {
			k++
		}
	}
	return out[:k]
}

// selDiff writes the lanes of a that are not in b (both increasing, b a
// subset of a) into out, which may be a itself: the write position never
// overtakes the read position.
func selDiff(a, b, out []int) []int {
	out = out[:len(a)]
	k, j := 0, 0
	for _, i := range a {
		if j < len(b) && b[j] == i {
			j++
			continue
		}
		out[k] = i
		k++
	}
	return out[:k]
}

// selUnion merges two disjoint increasing lane lists into out (distinct
// from both).
func selUnion(a, b, out []int) []int {
	out = out[:len(a)+len(b)]
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
	return out
}
