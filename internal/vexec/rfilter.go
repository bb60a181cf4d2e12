// Runtime join filters: when a vectorized hash join finishes its build
// side, it publishes a compact summary of the build keys — a min/max
// range plus a small Bloom filter — that probe-side scans apply as an
// extra selection pass. Probe tuples whose key cannot possibly match any
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
	minS, maxS string

	bloom []uint64
	mask  uint64
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
	rf.mask = uint64(bits - 1)
	rf.hasNull = false
	rf.hasRange = false
	first := true
	for _, keys := range chunks {
		for i, n := 0, keys.Len(); i < n; i++ {
			if keys.Nulls.Get(i) {
				rf.hasNull = true
				continue
			}
			h := mix64(hashLane(fnvOffset64, keys, i))
			rf.setBit(h & rf.mask)
			rf.setBit((h >> 32) & rf.mask)
			switch keys.Kind {
			case types.KindInt, types.KindDate:
				v := keys.I[i]
				if first || v < rf.minI {
					rf.minI = v
				}
				if first || v > rf.maxI {
					rf.maxI = v
				}
				f := float64(v)
				if first || f < rf.minF {
					rf.minF = f
				}
				if first || f > rf.maxF {
					rf.maxF = f
				}
				first, rf.hasRange = false, true
			case types.KindFloat:
				f := keys.F[i]
				if first || f < rf.minF {
					rf.minF = f
				}
				if first || f > rf.maxF {
					rf.maxF = f
				}
				first, rf.hasRange = false, true
			case types.KindString:
				s := keys.S[i]
				if first || s < rf.minS {
					rf.minS = s
				}
				if first || s > rf.maxS {
					rf.maxS = s
				}
				first, rf.hasRange = false, true
			}
		}
	}
	rf.ready.Store(true)
}

// Ready reports whether the summary has been published. The atomic load
// pairs with PublishFrom's final store: a reader that observes true also
// observes every summary field written before it.
func (rf *RuntimeFilter) Ready() bool { return rf.ready.Load() }

func (rf *RuntimeFilter) setBit(b uint64) { rf.bloom[b>>6] |= 1 << (b & 63) }
func (rf *RuntimeFilter) testBit(b uint64) bool {
	return rf.bloom[b>>6]&(1<<(b&63)) != 0
}

// mix64 is the murmur3 finalizer. The raw FNV lane hash keeps the low
// bits of float64-boxed integers constant (their mantissa tails are
// zero), which would make low-bit Bloom probes value-independent;
// finalizing spreads every input bit over the whole word.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// admit reports whether probe lane i of col can possibly match a build
// row. It is conservative in exactly one direction: it may admit lanes
// that do not match, never the reverse.
func (rf *RuntimeFilter) admit(col *vector.Vec, i int) bool {
	if col.Nulls.Get(i) {
		return rf.NullSafe && rf.hasNull
	}
	if rf.hasRange {
		switch classify(col.Kind, rf.buildKind) {
		case classInt:
			if v := col.I[i]; v < rf.minI || v > rf.maxI {
				return false
			}
		case classFloat:
			if f := numAt(col, i); f < rf.minF || f > rf.maxF {
				return false
			}
		case classString:
			if s := col.S[i]; s < rf.minS || s > rf.maxS {
				return false
			}
		}
	}
	h := mix64(hashLane(fnvOffset64, col, i))
	return rf.testBit(h&rf.mask) && rf.testBit((h>>32)&rf.mask)
}
