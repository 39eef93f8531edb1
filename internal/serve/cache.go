package serve

import (
	"container/list"
	"sync"
)

// lru is a fixed-capacity, mutex-guarded LRU map. Values are whatever the
// caller stores (the result cache stores marshaled response bodies, the
// sweep cache stores *bgpsim.LeakSweep values); eviction is strictly
// least-recently-used on Get/Put order.
type lru struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recent; elements hold *lruEntry
	m   map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newLRU(max int) *lru {
	if max < 1 {
		max = 1
	}
	return &lru{max: max, ll: list.New(), m: make(map[string]*list.Element, max)}
}

// Get returns the cached value and marks it most recently used.
func (c *lru) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put inserts or refreshes key, evicting the least recently used entry
// when the cache is full.
func (c *lru) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry).key)
	}
	c.m[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
}

// Len returns the number of cached entries.
func (c *lru) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
