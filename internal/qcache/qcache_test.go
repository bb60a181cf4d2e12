package qcache

import (
	"fmt"
	"sync"
	"testing"
)

// TestHitMiss: Get finds what Put stored; only Count moves the hit and
// miss counters.
func TestHitMiss(t *testing.T) {
	c := New(8)
	if _, ok := c.Get("q1", 1); ok {
		t.Fatal("empty cache produced a hit")
	}
	c.Put("q1", "artifact-1", 1)
	v, ok := c.Get("q1", 1)
	if !ok || v.(string) != "artifact-1" {
		t.Fatalf("expected hit with artifact-1, got %v %v", v, ok)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v after two uncounted lookups", st)
	}
	c.Count(false)
	c.Count(true)
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestVersionInvalidation(t *testing.T) {
	c := New(8)
	c.Put("q1", "compiled@3", 3)
	// Catalog moved on: the stale artifact must not be served.
	if _, ok := c.Get("q1", 4); ok {
		t.Fatal("served artifact compiled under an older catalog version")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry not removed; len = %d", c.Len())
	}
	// Recompiled under the new version: hit again.
	c.Put("q1", "compiled@4", 4)
	v, ok := c.Get("q1", 4)
	if !ok || v.(string) != "compiled@4" {
		t.Fatalf("expected recompiled artifact, got %v %v", v, ok)
	}
}

func TestOlderVersionLookupInvalidates(t *testing.T) {
	// A lookup under a version older than the entry's is equally a
	// mismatch (cannot happen with a monotonic catalog, but the cache
	// must not serve it either way).
	c := New(8)
	c.Put("q1", "compiled@5", 5)
	if _, ok := c.Get("q1", 2); ok {
		t.Fatal("served artifact from a different version world")
	}
}

func TestPutReplaces(t *testing.T) {
	c := New(8)
	c.Put("q1", "old", 1)
	c.Put("q1", "new", 2)
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	v, ok := c.Get("q1", 2)
	if !ok || v.(string) != "new" {
		t.Fatalf("expected replaced artifact, got %v %v", v, ok)
	}
}

func TestLRUEviction(t *testing.T) {
	// A single-shard-sized cache: overfilling one shard must evict its
	// least recently used entry. Use a capacity of numShards so each
	// shard holds exactly one entry; inserting two keys that land in the
	// same shard evicts the older.
	c := New(1) // rounds to 1 entry per shard
	// Find two keys in the same shard.
	var k1, k2 string
	k1 = "key-0"
	s1 := c.shard(k1)
	for i := 1; ; i++ {
		k := fmt.Sprintf("key-%d", i)
		if c.shard(k) == s1 {
			k2 = k
			break
		}
	}
	c.Put(k1, 1, 1)
	c.Put(k2, 2, 1)
	if _, ok := c.Get(k1, 1); ok {
		t.Fatal("LRU entry not evicted")
	}
	if v, ok := c.Get(k2, 1); !ok || v.(int) != 2 {
		t.Fatal("most recent entry evicted")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestLRURecencyOrder(t *testing.T) {
	c := New(1)
	// Three same-shard keys, capacity one per shard.
	s0 := c.shard("k0")
	keys := []string{"k0"}
	for i := 1; len(keys) < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shard(k) == s0 {
			keys = append(keys, k)
		}
	}
	c.Put(keys[0], 0, 1)
	c.Get(keys[0], 1) // touch
	c.Put(keys[1], 1, 1)
	// keys[0] was evicted by keys[1] (cap 1); keys[1] must be present.
	if _, ok := c.Get(keys[1], 1); !ok {
		t.Fatal("expected most-recent key present")
	}
}

func TestPurge(t *testing.T) {
	c := New(64)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("q%d", i), i, 1)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("len after purge = %d", c.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("q%d", i%40)
				if v, ok := c.Get(key, uint64(i%3)); ok {
					if v.(string) != key {
						t.Errorf("wrong artifact for %s: %v", key, v)
					}
				} else {
					c.Put(key, key, uint64(i%3))
				}
			}
		}(g)
	}
	wg.Wait()
}
