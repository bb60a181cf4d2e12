// Package qcache implements the shared compiled-query cache of the Perm
// engine: a sharded LRU of compilation artifacts (analyzed, provenance-
// rewritten and optimized query trees) keyed by SQL text plus an options
// fingerprint.
//
// Every entry is tagged with the catalog version it was compiled under.
// Lookups present the current version; an entry compiled under an older
// version is treated as a miss and dropped (the catalog bumps its version
// on every DDL and DML statement, so stale artifacts can never be
// served). Because compiled artifacts are immutable after optimization,
// a hit can be shared by any number of concurrent sessions without
// copying; only per-execution state (physical plans, iterators, data
// snapshots) is rebuilt per call.
package qcache

import (
	"container/list"
	"hash/maphash"
	"strconv"
	"sync"
	"sync/atomic"

	"perm/internal/obs"
)

// numShards spreads contention across independently-locked LRU shards.
// Keys are distributed by hash, so concurrent sessions compiling
// different statements rarely collide on a shard lock.
const numShards = 16

// Entry is one cached compilation artifact.
type Entry struct {
	// Value is the compiled artifact. It must be immutable: hits hand
	// the same pointer to concurrent sessions.
	Value any
	// Version is the catalog version the artifact was compiled under.
	Version uint64
}

// Stats are cumulative cache counters.
type Stats struct {
	Hits          uint64 // lookups served from the cache
	Misses        uint64 // lookups that found no entry
	Invalidations uint64 // entries dropped because the catalog version moved
	Evictions     uint64 // entries dropped by LRU capacity pressure
}

// Cache is a sharded LRU cache of compiled-query artifacts. The zero
// value is not usable; use New.
type Cache struct {
	seed   maphash.Seed
	shards [numShards]shard

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
	evictions     atomic.Uint64
}

type shard struct {
	mu    sync.Mutex
	cap   int
	order *list.List               // front = most recently used
	items map[string]*list.Element // key → element; element value is *node
}

type node struct {
	key   string
	entry Entry
}

// New returns a cache holding at most capacity entries in total
// (rounded up to a multiple of the shard count; a non-positive capacity
// defaults to 256).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 256
	}
	perShard := (capacity + numShards - 1) / numShards
	c := &Cache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].order = list.New()
		c.shards[i].items = make(map[string]*list.Element)
	}
	return c
}

func (c *Cache) shard(key string) *shard {
	return &c.shards[maphash.String(c.seed, key)%numShards]
}

// Get returns the artifact cached under key, if it was compiled under
// the given catalog version. An entry compiled under a different version
// is removed and reported absent (counted as an invalidation), so callers
// always recompile against the current catalog. Get does not count the
// lookup as a hit or a miss: the caller learns only afterwards whether the
// key names a cacheable statement at all, and then calls Count.
func (c *Cache) Get(key string, version uint64) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	n := el.Value.(*node)
	if n.entry.Version != version {
		stale := n.entry.Version
		s.order.Remove(el)
		delete(s.items, key)
		s.mu.Unlock()
		c.invalidations.Add(1)
		obs.Events.Record(obs.EventCacheInvalidation, "", "",
			"compiled artifact from catalog version "+strconv.FormatUint(stale, 10)+
				" dropped at version "+strconv.FormatUint(version, 10))
		return nil, false
	}
	s.order.MoveToFront(el)
	v := n.entry.Value
	s.mu.Unlock()
	return v, true
}

// Count counts one lookup of a cacheable statement, a hit or a miss.
func (c *Cache) Count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// Put stores an artifact compiled under the given catalog version,
// evicting the least recently used entry of the shard if it is full. A
// concurrent Put for the same key wins by recency (last writer stays).
func (c *Cache) Put(key string, value any, version uint64) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		n := el.Value.(*node)
		n.entry = Entry{Value: value, Version: version}
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.items[key] = s.order.PushFront(&node{key: key, entry: Entry{Value: value, Version: version}})
	var evicted bool
	if s.order.Len() > s.cap {
		oldest := s.order.Back()
		n := oldest.Value.(*node)
		s.order.Remove(oldest)
		delete(s.items, n.key)
		evicted = true
	}
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	}
}

// Len returns the number of cached entries (including any not yet
// invalidated by catalog-version drift).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Purge drops every entry.
func (c *Cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.order.Init()
		s.items = make(map[string]*list.Element)
		s.mu.Unlock()
	}
}

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Evictions:     c.evictions.Load(),
	}
}
