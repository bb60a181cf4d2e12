// Runtime join filters: when a vectorized hash join finishes its build
// side, it publishes a compact summary of the build keys — a min/max
// range (numeric and date keys) plus a small Bloom filter — that
// probe-side scans apply as an extra selection pass. Probe tuples whose key cannot possibly match any
// build row are pruned before they flow through the (potentially deep)
// probe-side pipeline; the payoff is largest on provenance-rewritten
// joins whose build side is the small rewritten subquery.
package vexec

import (
	"sync/atomic"

	"perm/internal/types"
	"perm/internal/vector"
)

// bloomMaxBits caps the Bloom filter size (64 KiB of bits = 8 KiB).
const bloomMaxBits = 1 << 16

// RuntimeFilter is the published summary of one hash-join build key. It
// is created unready at plan time, bound to the probe-side scan column,
// and published by the join when the build completes; the join's Open
// order (build before probe) guarantees publication happens before the
// scan produces its first batch. A filter never admits a lane the join
// would not also match, so pruning is semantically invisible: it only
// removes inner-join probe tuples that produce no output.
type RuntimeFilter struct {
	// NullSafe mirrors the key's comparison semantics: a null-safe key
	// (IS NOT DISTINCT FROM) matches NULL with NULL, so NULL probe lanes
	// are admitted iff the build side saw a NULL; for a plain '=' key a
	// NULL probe lane matches nothing and is pruned outright.
	NullSafe bool

	// Publication is atomic and exactly-once: the first builder to call
	// PublishFrom claims the filter (claimed CAS), writes the summary
	// fields, and only then stores ready — so once a probe-side reader
	// observes Ready() the summary is complete, and concurrent builders
	// (replicated pipelines racing on a shared filter) can never produce
	// a torn or twice-written summary.
	claimed   atomic.Bool
	ready     atomic.Bool
	hasNull   bool
	buildKind types.Kind

	hasRange   bool
	minI, maxI int64
	minF, maxF float64

	bloom []uint64
	mask  uint64 // word-index mask: len(bloom)-1
}

// NewRuntimeFilter returns an unready filter for a key with the given
// null-comparison semantics.
func NewRuntimeFilter(nullSafe bool) *RuntimeFilter {
	return &RuntimeFilter{NullSafe: nullSafe}
}

// PublishFrom summarizes the build-key lanes — one key column of kind
// kind, handed over as the chunks of the join's build table — and marks
// the filter ready. An empty build publishes an empty Bloom filter, which
// rejects everything — correct, since an inner join with an empty build
// side emits nothing. Publication happens exactly once: after the first
// builder claims the filter, later calls return without touching it.
func (rf *RuntimeFilter) PublishFrom(kind types.Kind, chunks []*vector.Vec) {
	if !rf.claimed.CompareAndSwap(false, true) {
		return
	}
	rf.buildKind = kind
	n := 0
	for _, keys := range chunks {
		n += keys.Len()
	}
	bits := 64
	for bits < 8*n && bits < bloomMaxBits {
		bits <<= 1
	}
	rf.bloom = make([]uint64, bits/64)
	rf.mask = uint64(bits/64 - 1)
	rf.hasNull = false
	rf.hasRange = false
	var kh keyHasher
	var col [1]*vector.Vec
	for _, keys := range chunks {
		col[0] = keys
		for lo, n := 0, keys.Len(); lo < n; lo += vector.BatchSize {
			hi := min(lo+vector.BatchSize, n)
			hs := kh.rowRange(col[:], lo, hi)
			if !keys.Nulls.AnyInRange(lo, hi) {
				for _, h := range hs {
					rf.setBits(h)
				}
				rf.widen(keys, lo, hi)
				continue
			}
			for k, h := range hs {
				if keys.Nulls.Get(lo + k) {
					rf.hasNull = true
					continue
				}
				rf.setBits(h)
				rf.widen(keys, lo+k, lo+k+1)
			}
		}
	}
	rf.ready.Store(true)
}

// widen grows the min/max range over rows lo..hi-1 (all non-NULL) of a
// build-key column, one typed loop per kind.
func (rf *RuntimeFilter) widen(keys *vector.Vec, lo, hi int) {
	first := !rf.hasRange
	switch keys.Kind {
	case types.KindInt, types.KindDate:
		for _, v := range keys.I[lo:hi] {
			if first || v < rf.minI {
				rf.minI = v
			}
			if first || v > rf.maxI {
				rf.maxI = v
			}
			first = false
		}
		// Float probe columns test against the same bounds.
		rf.minF, rf.maxF = float64(rf.minI), float64(rf.maxI)
	case types.KindFloat:
		for _, f := range keys.F[lo:hi] {
			if first || f < rf.minF {
				rf.minF = f
			}
			if first || f > rf.maxF {
				rf.maxF = f
			}
			first = false
		}
	default:
		// Strings keep no range: two string comparisons per probe lane cost
		// more than the hash and Bloom test that follow them anyway.
		return
	}
	rf.hasRange = true
}

// Ready reports whether the summary has been published. The atomic load
// pairs with PublishFrom's final store: a reader that observes true also
// observes every summary field written before it.
func (rf *RuntimeFilter) Ready() bool { return rf.ready.Load() }

// bloomWord locates the two Bloom bits of a key hash: both sit in one
// 64-bit word of the filter (a blocked Bloom filter), so a test is one
// load. The row hash's halves are correlated for float64-boxed integers
// (their mantissa tails are zero), so the positions come from its
// finalized form.
func (rf *RuntimeFilter) bloomWord(h uint64) (word, bits uint64) {
	h = mix64(h)
	return (h >> 12) & rf.mask, 1<<(h&63) | 1<<((h>>6)&63)
}

func (rf *RuntimeFilter) setBits(h uint64) {
	w, bits := rf.bloomWord(h)
	rf.bloom[w] |= bits
}

func (rf *RuntimeFilter) testBits(h uint64) bool {
	w, bits := rf.bloomWord(h)
	return rf.bloom[w]&bits == bits
}

// rfScratch is the per-scan scratch of admit.
type rfScratch struct {
	hasher       keyHasher
	col          [1]*vector.Vec
	nulls, union []int
}

// admit narrows lanes (increasing) to the probe lanes of col that can
// possibly match a build row, writing into out, which may share lanes'
// storage. It is conservative in exactly one direction: it may admit lanes
// that do not match, never the reverse. Three passes, each a typed loop:
// the min/max range, the column hash (the kernel the joins hash their
// keys with), the Bloom test.
func (rf *RuntimeFilter) admit(col *vector.Vec, lanes, out []int, sc *rfScratch) []int {
	if len(lanes) == 0 {
		return lanes
	}
	var nullLanes []int
	if col.Nulls.AnyInRange(lanes[0], lanes[len(lanes)-1]+1) {
		if rf.NullSafe && rf.hasNull {
			nullLanes = selNulls(col.Nulls, true, lanes, selScratch(&sc.nulls, len(lanes)))
		}
		lanes = selNulls(col.Nulls, false, lanes, out)
	}
	if rf.hasRange {
		switch classify(col.Kind, rf.buildKind) {
		case classInt:
			lanes = selRange(col.I, rf.minI, rf.maxI, true, true, lanes, out)
		case classFloat:
			f, tmp := floatLanes(col, lanes, col.Len())
			lanes = selRange(f, rf.minF, rf.maxF, true, true, lanes, out)
			tmp.Free()
		}
	}
	sc.col[0] = col
	hs := sc.hasher.rows(sc.col[:], lanes)
	out = out[:len(lanes)]
	k := 0
	for idx, i := range lanes {
		out[k] = i
		if rf.testBits(hs[idx]) {
			k++
		}
	}
	out = out[:k]
	if len(nullLanes) > 0 {
		return selUnion(out, nullLanes, selScratch(&sc.union, len(out)+len(nullLanes)))
	}
	return out
}
