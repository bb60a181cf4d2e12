// Batch hashing and the open-addressing hash index shared by hash join,
// hash aggregation, DISTINCT, the set operations, their spill paths and
// the runtime join filters. Keys hash column at a time: one typed loop per
// key column folds that column's lanes into a []uint64 of running row
// hashes, so the kind is examined once per column and batch.
package vexec

import (
	"math"

	"perm/internal/types"
	"perm/internal/vector"
)

const (
	hashSeed = 0x243f6a8885a308d3
	hashMul  = 0x9e3779b97f4a7c15
	// hashNull is what a NULL lane contributes (grouping and null-safe joins
	// treat NULLs as equal).
	hashNull = 0x5851f42d4c957f2d
)

// hashMix folds one lane's value bits into a running row hash. The
// multiplication spreads every input bit upwards, so the top of the word
// is well mixed whatever the input (float64-boxed integers carry all
// their information in the high mantissa bits and leave the low word
// constant); the shift folds the high half back down for the next round.
// The hash index therefore takes its slot from the top bits; consumers of
// the low bits (Bloom probes, spill partitions) finalize with mix64.
func hashMix(h, x uint64) uint64 {
	h = (h ^ x) * hashMul
	return h ^ h>>32
}

// hashString digests a string eight bytes at a time.
func hashString(s string) uint64 {
	h := uint64(len(s))
	for len(s) >= 8 {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = hashMix(h, w)
		s = s[8:]
	}
	var w uint64
	for j := 0; j < len(s); j++ {
		w |= uint64(s[j]) << (8 * uint(j))
	}
	return hashMix(h, w)
}

// keyHasher holds the per-operator scratch of batch hashing.
type keyHasher struct {
	h     []uint64
	saved []savedHash
	lanes []int
}

// savedHash remembers a NULL lane's running hash from before its column
// was folded in, so the typed loops need not test for NULLs.
type savedHash struct {
	idx  int
	prev uint64
}

// rows hashes the listed lanes of the key columns: result[k] is the hash
// of lane lanes[k]. Numeric lanes hash by their float64 value so int and
// float keys that compare equal hash equal. The result is the hasher's
// scratch, valid until its next call.
func (kh *keyHasher) rows(cols []*vector.Vec, lanes []int) []uint64 {
	h := scratch(&kh.h, len(lanes))
	for k := range h {
		h[k] = hashSeed
	}
	if len(lanes) == 0 {
		return h
	}
	for _, v := range cols {
		kh.saved = kh.saved[:0]
		if v.Nulls.AnyInRange(lanes[0], lanes[len(lanes)-1]+1) {
			for k, i := range lanes {
				if v.Nulls.Get(i) {
					kh.saved = append(kh.saved, savedHash{k, h[k]})
				}
			}
		}
		switch v.Kind {
		case types.KindInt:
			for k, i := range lanes {
				h[k] = hashMix(h[k], math.Float64bits(float64(v.I[i])))
			}
		case types.KindFloat:
			for k, i := range lanes {
				h[k] = hashMix(h[k], math.Float64bits(v.F[i]))
			}
		case types.KindDate:
			for k, i := range lanes {
				h[k] = hashMix(h[k], uint64(v.I[i]))
			}
		case types.KindString:
			for k, i := range lanes {
				h[k] = hashMix(h[k], hashString(v.S[i]))
			}
		case types.KindBool:
			for k, i := range lanes {
				x := uint64(1)
				if v.B[i] {
					x = 2
				}
				h[k] = hashMix(h[k], x)
			}
		}
		for _, s := range kh.saved {
			h[s.idx] = hashMix(s.prev, hashNull)
		}
	}
	return h
}

// rowRange hashes rows lo..hi-1 (at most BatchSize of them) of stored
// columns: the chunks of a Table, the batches read back from a spill run.
func (kh *keyHasher) rowRange(cols []*vector.Vec, lo, hi int) []uint64 {
	if lo == 0 {
		return kh.rows(cols, identitySel[:hi])
	}
	kh.lanes = kh.lanes[:0]
	for i := lo; i < hi; i++ {
		kh.lanes = append(kh.lanes, i)
	}
	return kh.rows(cols, kh.lanes)
}

// tableHashes hashes columns from..to-1 of every row of a table, in
// row-id order.
func (kh *keyHasher) tableHashes(t *vector.Table, from, to int) []uint64 {
	out := make([]uint64, 0, t.Len())
	for _, chunk := range t.Chunks() {
		n := chunk[0].Len()
		for lo := 0; lo < n; lo += vector.BatchSize {
			out = append(out, kh.rowRange(chunk[from:to], lo, min(lo+vector.BatchSize, n))...)
		}
	}
	return out
}

// mix64 is the murmur3 finalizer: spill partitioning reseeds a row hash
// through it per repartitioning level.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ---------------------------------------------------------------------------
// Hash index

// hashIndex maps 64-bit row hashes to chains of dense row ids: one
// open-addressing table (linear probing, at most half full) whose slots
// hold a hash and the first id carrying it, plus a per-id link to the
// next id with the same hash. Ids with equal hashes but different keys
// share a chain; callers verify keys.
type hashIndex struct {
	slotHash []uint64
	slotHead []int32 // -1: empty
	next     []int32 // per id: next id of the chain, -1 ends it
	shift    uint    // 64 - log2(len(slotHead)): a hash's home slot is its top bits
	used     int
}

// reset empties the index, sized for about n ids.
func (ix *hashIndex) reset(n int) {
	size, bits := 16, uint(4)
	for size < 2*n {
		size, bits = size<<1, bits+1
	}
	ix.shift = 64 - bits
	if len(ix.slotHead) == size {
		for i := range ix.slotHead {
			ix.slotHead[i] = -1
		}
	} else {
		ix.slotHash = make([]uint64, size)
		ix.slotHead = make([]int32, size)
		for i := range ix.slotHead {
			ix.slotHead[i] = -1
		}
	}
	ix.next = ix.next[:0]
	ix.used = 0
}

// slot returns the slot holding h, or the empty slot where it belongs.
func (ix *hashIndex) slot(h uint64) uint64 {
	p, mask := h>>ix.shift, uint64(len(ix.slotHead)-1)
	for ix.slotHead[p] >= 0 && ix.slotHash[p] != h {
		p = (p + 1) & mask
	}
	return p
}

// head returns the first id of h's chain, -1 when no id has that hash.
func (ix *hashIndex) head(h uint64) int32 {
	if ix.slotHead == nil {
		return -1
	}
	return ix.slotHead[ix.slot(h)]
}

// add appends the next dense id (len(next) before the call) under hash h,
// at the front of its chain, and returns it.
func (ix *hashIndex) add(h uint64) int32 {
	if 2*(ix.used+1) > len(ix.slotHead) {
		ix.grow()
	}
	id := int32(len(ix.next))
	p := ix.slot(h)
	if ix.slotHead[p] < 0 {
		ix.slotHash[p] = h
		ix.used++
	}
	ix.next = append(ix.next, ix.slotHead[p])
	ix.slotHead[p] = id
	return id
}

func (ix *hashIndex) grow() {
	oldHash, oldHead := ix.slotHash, ix.slotHead
	if len(oldHead) == 0 {
		ix.reset(0)
		return
	}
	ix.slotHash = make([]uint64, 2*len(oldHead))
	ix.slotHead = make([]int32, 2*len(oldHead))
	for i := range ix.slotHead {
		ix.slotHead[i] = -1
	}
	ix.shift--
	for p, head := range oldHead {
		if head >= 0 {
			q := ix.slot(oldHash[p])
			ix.slotHash[q], ix.slotHead[q] = oldHash[p], head
		}
	}
}

// build indexes ids 0..len(hashes)-1 at once, threading every chain in
// ascending id order (a join probe visits build rows in input order).
func (ix *hashIndex) build(hashes []uint64) {
	ix.reset(len(hashes))
	if cap(ix.next) < len(hashes) {
		ix.next = make([]int32, len(hashes))
	}
	ix.next = ix.next[:len(hashes)]
	for id := len(hashes) - 1; id >= 0; id-- {
		p := ix.slot(hashes[id])
		if ix.slotHead[p] < 0 {
			ix.slotHash[p] = hashes[id]
			ix.used++
		}
		ix.next[id] = ix.slotHead[p]
		ix.slotHead[p] = int32(id)
	}
}

// ---------------------------------------------------------------------------
// Key verification

// lanesEqualNullSafe compares key lane a[i] with b[j] treating NULLs as
// equal (grouping / IS NOT DISTINCT FROM semantics). Kind pairs outside
// the comparable classes never match.
func lanesEqualNullSafe(a *vector.Vec, i int, b *vector.Vec, j int) bool {
	an, bn := a.Nulls.Get(i), b.Nulls.Get(j)
	if an || bn {
		return an && bn
	}
	if a.Kind == b.Kind {
		switch a.Kind {
		case types.KindInt, types.KindDate:
			return a.I[i] == b.I[j]
		case types.KindString:
			return a.S[i] == b.S[j]
		case types.KindBool:
			return a.B[i] == b.B[j]
		}
	}
	class := classify(a.Kind, b.Kind)
	if class == classNone {
		return false
	}
	return laneCompare(class, a, i, b, j) == 0
}

// rowsEqual compares lane i of batch columns a against stored row j of
// columns b, null-safe, across all columns.
func rowsEqual(a []*vector.Vec, i int, b []*vector.Vec, j int) bool {
	for c := range a {
		if !lanesEqualNullSafe(a[c], i, b[c], j) {
			return false
		}
	}
	return true
}

// rowSet is a set of distinct key rows with dense ids in insertion order:
// the group table of hash aggregation, DISTINCT, the set operations and
// the partition merges of their spill paths.
type rowSet struct {
	rows   vector.Table
	hashes []uint64 // per id: the row's key hash
	index  hashIndex
}

// reset empties the set.
func (s *rowSet) reset() {
	s.rows = vector.Table{}
	s.hashes = s.hashes[:0]
	s.index.reset(0)
}

// find returns the id of the stored row equal (null-safe) to lane of cols,
// whose hash is h, or -1.
func (s *rowSet) find(cols []*vector.Vec, lane int, h uint64) int32 {
	for id := s.index.head(h); id >= 0; id = s.index.next[id] {
		if stored, sl := s.rows.At(int(id)); rowsEqual(cols, lane, stored, sl) {
			return id
		}
	}
	return -1
}

// insert appends lane of cols as a new row and returns its id.
func (s *rowSet) insert(cols []*vector.Vec, lane int, h uint64) int32 {
	s.hashes = append(s.hashes, h)
	s.rows.AppendLane(cols, lane)
	return s.index.add(h)
}
