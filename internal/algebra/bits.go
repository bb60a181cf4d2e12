package algebra

import "math/bits"

// Bits is a set of small integers: range-table positions (a relation set)
// or column positions of one entry. Members bitsMin..bitsMin+63 share one
// word, so the sets the planner and optimizer build per conjunct and per
// plan fragment cost no allocation; only wider blocks spill into more. The
// sentinel indices of output and flat references (-1, -2) are members too,
// so "references something no fragment contains" is a plain subset test.
// The zero value is empty. A copy shares the extra words: do not Add to
// one (Union returns a set that shares nothing).
type Bits struct {
	low  uint64
	more []uint64 // members from bitsMin+64 up, 64 per word
}

const bitsMin = -2

// BitsOf returns the set of the given members.
func BitsOf(members ...int) (s Bits) {
	for _, i := range members {
		s.Add(i)
	}
	return s
}

// Add inserts i (i >= -2).
func (s *Bits) Add(i int) {
	i -= bitsMin
	if i < 64 {
		s.low |= 1 << uint(i)
		return
	}
	w := i/64 - 1
	for len(s.more) <= w {
		s.more = append(s.more, 0)
	}
	s.more[w] |= 1 << uint(i%64)
}

// Has reports whether i is a member.
func (s Bits) Has(i int) bool {
	i -= bitsMin
	if i < 64 {
		return i >= 0 && s.low&(1<<uint(i)) != 0
	}
	w := i/64 - 1
	return w < len(s.more) && s.more[w]&(1<<uint(i%64)) != 0
}

// Empty reports whether the set has no members (nothing removes members,
// so extra words are there only when one of them is set).
func (s Bits) Empty() bool { return s.low == 0 && s.more == nil }

// Len counts the members.
func (s Bits) Len() int {
	n := bits.OnesCount64(s.low)
	for _, w := range s.more {
		n += bits.OnesCount64(w)
	}
	return n
}

// SubsetOf reports whether every member of s is a member of t.
func (s Bits) SubsetOf(t Bits) bool {
	if s.low&^t.low != 0 {
		return false
	}
	for i, w := range s.more {
		if i < len(t.more) {
			w &^= t.more[i]
		}
		if w != 0 {
			return false
		}
	}
	return true
}

// Union returns the members of either set.
func (s Bits) Union(t Bits) Bits {
	out := Bits{low: s.low | t.low}
	if len(s.more) < len(t.more) {
		s, t = t, s
	}
	if len(s.more) > 0 {
		out.more = append([]uint64(nil), s.more...)
		for i, w := range t.more {
			out.more[i] |= w
		}
	}
	return out
}
