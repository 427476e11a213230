// Package cache provides the small, dependency-free bounded LRU map behind
// the server's result cache. It is not paper machinery — the paper's §V
// indexes are offline structures — but the online caching layer a serving
// process needs.
package cache

import (
	"container/list"
	"sync"
)

// LRU is a bounded least-recently-used map. The zero value is not usable;
// construct with New. All methods are safe for concurrent use: a single
// mutex guards the map and recency list, which keeps the implementation
// obviously correct under the -race test load (concurrent requests hammer
// the cache from every handler goroutine).
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	items map[K]*list.Element
	order *list.List // front = most recently used
}

// entry is one key/value pair stored in the recency list.
type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an LRU holding at most capacity entries. A capacity below 1
// yields a cache that stores nothing (every Get misses), which lets callers
// disable caching without branching at every call site.
func New[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{
		cap:   capacity,
		items: make(map[K]*list.Element),
		order: list.New(),
	}
}

// Get returns the cached value for key and whether it was present, marking
// the entry most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Add stores key → val, evicting the least recently used entry when the
// cache is full. Adding an existing key updates its value and recency.
func (c *LRU[K, V]) Add(key K, val V) {
	if c.cap < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.items, oldest.Value.(*entry[K, V]).key)
		}
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
}

// Len reports the number of cached entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
