// Ring: the one bounded history under the engine event log, the
// plan-flip history and the completed-trace store. Each keeps the newest
// capacity values and numbers every value by a sequence that starts at 1,
// so a reader can snapshot all of it or poll for what is new.
package obs

import "sync"

// Ring is a fixed-size, mutex-guarded ring buffer. Puts are rare (one
// per event, flip or sampled trace, never per row), so a mutex costs
// nothing measurable and keeps Snapshot a plain ordered copy.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	seq   int64 // sequence number of the newest value; 0 before the first Put
	stamp func(*T, int64)
}

// NewRing returns a ring keeping the newest capacity values. stamp, when
// non-nil, writes each value's sequence number into it as it is put.
func NewRing[T any](capacity int, stamp func(*T, int64)) *Ring[T] {
	return &Ring[T]{buf: make([]T, capacity), stamp: stamp}
}

// Put appends v, overwriting the oldest value once the ring is full.
func (r *Ring[T]) Put(v T) {
	r.mu.Lock()
	r.seq++
	if r.stamp != nil {
		r.stamp(&v, r.seq)
	}
	r.buf[(r.seq-1)%int64(len(r.buf))] = v
	r.mu.Unlock()
}

// Snapshot returns the retained values, oldest first.
func (r *Ring[T]) Snapshot() []T { return r.Since(0) }

// Since returns the retained values numbered after seq, oldest first: a
// streamer that polls with the last sequence number it saw reads only
// what is new.
func (r *Ring[T]) Since(seq int64) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	first := max(seq, r.seq-int64(len(r.buf))) + 1
	out := make([]T, 0, max(r.seq-first+1, 0))
	for s := first; s <= r.seq; s++ {
		out = append(out, r.buf[(s-1)%int64(len(r.buf))])
	}
	return out
}

// LastSeq returns the sequence number of the newest value (0 when none
// has been put).
func (r *Ring[T]) LastSeq() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Len reports how many values the ring holds.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(min(r.seq, int64(len(r.buf))))
}
