package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// lru is a bounded map with least-recently-used eviction; the service keeps
// one for results and one for prepared plans. Every key embeds the snapshot
// pin (Registry.PlanPin), so invalidation is structural: a publish or a data
// mutation moves the pin, the stale entry simply stops being addressed, and
// the LRU bound reclaims it. The cache itself never has to guess whether an
// entry is still valid.
type lru[V any] struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	evictions atomic.Int64 // entries removed by the size bound
}

// lruEntry is one resident value.
type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](max int) *lru[V] {
	return &lru[V]{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// get returns the value for key, promoting it to most recently used. The
// value is shared — callers must treat it as immutable.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put inserts or refreshes the value for key, evicting from the LRU tail
// past the size bound.
func (c *lru[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	for len(c.entries) > c.max {
		tail := c.order.Back()
		c.order.Remove(tail)
		delete(c.entries, tail.Value.(*lruEntry[V]).key)
		c.evictions.Add(1)
	}
}

// len returns the resident entry count.
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
