// Package lru provides a byte-budgeted least-recently-used map. It is the
// storage policy behind the service layer's plan/state cache: entries carry
// an explicit cost (a state vector is 16·2^n bytes, a plan a few hundred),
// and inserting past the budget evicts from the cold end until the new
// entry fits.
//
// The cache is not safe for concurrent use; callers hold their own lock
// (the service serializes cache access under its job mutex).
package lru

import "container/list"

// Cache is a string-keyed LRU with a total-cost capacity.
type Cache struct {
	capacity int64
	size     int64
	ll       *list.List // front = most recent
	items    map[string]*list.Element
	// Evicted, when non-nil, observes each eviction (for tests/metrics).
	Evicted func(key string, value any, cost int64)
}

type entry struct {
	key   string
	value any
	cost  int64
}

// New returns a cache that holds at most capacity total cost. A capacity
// ≤ 0 disables storage: Put becomes a no-op and Get always misses.
func New(capacity int64) *Cache {
	return &Cache{capacity: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the value for key and marks it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).value, true
}

// Put inserts or replaces key, reporting whether the entry was stored. An
// entry whose cost alone exceeds the capacity is not stored (and an
// existing entry under that key is dropped), so one oversized value can
// never wipe the whole cache; the false return lets callers keeping
// residency gauges skip the phantom insertion.
func (c *Cache) Put(key string, value any, cost int64) bool {
	if cost < 0 {
		cost = 0
	}
	if el, ok := c.items[key]; ok {
		c.removeElement(el)
	}
	if c.capacity <= 0 || cost > c.capacity {
		return false
	}
	for c.size+cost > c.capacity {
		c.removeElement(c.ll.Back())
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, value: value, cost: cost})
	c.size += cost
	return true
}

// Remove drops key if present.
func (c *Cache) Remove(key string) {
	if el, ok := c.items[key]; ok {
		c.removeElement(el)
	}
}

func (c *Cache) removeElement(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.size -= e.cost
	if c.Evicted != nil {
		c.Evicted(e.key, e.value, e.cost)
	}
}

// Len returns the number of stored entries.
func (c *Cache) Len() int { return c.ll.Len() }

// Size returns the summed cost of stored entries.
func (c *Cache) Size() int64 { return c.size }
