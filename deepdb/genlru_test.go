package deepdb

import (
	"fmt"
	"testing"
)

// TestGenLRUGenerationRule pins the three-way generation rule both caches
// share, through both key encodings: an equal generation hits, an older
// entry is evicted by the lookup that finds it, and a newer entry is
// neither served to nor clobbered by an older reader.
func TestGenLRUGenerationRule(t *testing.T) {
	for _, ways := range []int{1, 8} {
		c := newGenLRU[int](64, ways)
		c.put("k", 5, 50)

		if v, ok := lruGet(c, "k", 5); !ok || v != 50 {
			t.Fatalf("ways=%d: equal generation: got (%v, %v), want a hit on 50", ways, v, ok)
		}
		if v, ok := lruGet(c, []byte("k"), 5); !ok || v != 50 {
			t.Fatalf("ways=%d: []byte key: got (%v, %v), want a hit on 50", ways, v, ok)
		}

		// An older reader misses, leaves the entry alone, and cannot
		// overwrite it with its own (older) value.
		if _, ok := lruGet(c, "k", 4); ok {
			t.Fatalf("ways=%d: a generation-4 reader was served a generation-5 entry", ways)
		}
		c.put("k", 4, 40)
		if v, ok := lruGet(c, "k", 5); !ok || v != 50 {
			t.Fatalf("ways=%d: newer entry clobbered by an older put: got (%v, %v)", ways, v, ok)
		}
		if n := c.evictions.Load(); n != 0 {
			t.Fatalf("ways=%d: %d evictions before any entry went stale", ways, n)
		}

		// A newer reader evicts the stale entry on lookup, then stores its own.
		if _, ok := lruGet(c, []byte("k"), 6); ok {
			t.Fatalf("ways=%d: a generation-6 reader was served a generation-5 entry", ways)
		}
		if n, ev := c.size(), c.evictions.Load(); n != 0 || ev != 1 {
			t.Fatalf("ways=%d: after the stale lookup: size %d, evictions %d; want 0 and 1", ways, n, ev)
		}
		c.put("k", 6, 60)
		if v, ok := lruGet(c, "k", 6); !ok || v != 60 {
			t.Fatalf("ways=%d: got (%v, %v), want a hit on 60", ways, v, ok)
		}
		if h, m := c.hits.Load(), c.misses.Load(); h != 4 || m != 2 {
			t.Fatalf("ways=%d: hits %d, misses %d; want 4 and 2", ways, h, m)
		}
	}
}

// TestGenLRUCapacity: a one-way cache holds exactly its capacity and
// evicts the least recently used key; a disabled cache is nil.
func TestGenLRUCapacity(t *testing.T) {
	if newGenLRU[int](0, 8) != nil {
		t.Fatal("capacity 0 built a cache")
	}
	c := newGenLRU[int](3, 1)
	for i := 0; i < 3; i++ {
		c.put(fmt.Sprint(i), 1, i)
	}
	lruGet(c, "0", 1) // 1 is now the least recently used
	c.put("3", 1, 3)
	if _, ok := lruGet(c, "1", 1); ok {
		t.Fatal("least recently used key survived an insert at capacity")
	}
	for _, k := range []string{"0", "2", "3"} {
		if _, ok := lruGet(c, k, 1); !ok {
			t.Fatalf("key %s evicted out of LRU order", k)
		}
	}
	if n, ev := c.size(), c.evictions.Load(); n != 3 || ev != 1 {
		t.Fatalf("size %d, evictions %d; want 3 and 1", n, ev)
	}
	// More ways than entries: the way count clamps to the capacity.
	if w := len(newGenLRU[int](3, 8).ways); w != 3 {
		t.Fatalf("capacity 3 over 8 ways built %d ways, want 3", w)
	}
}
