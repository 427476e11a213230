package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestBasicGetAdd(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache reported a hit")
	}
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) = %d, %v", v, ok)
	}
	// "a" is now most recent; adding "c" should evict "b".
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("LRU entry b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("recently used entry evicted: %d, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Errorf("Get(c) = %d, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len() = %d, want 2", c.Len())
	}
}

func TestUpdateExisting(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("a", 9)
	if v, _ := c.Get("a"); v != 9 {
		t.Errorf("update lost: got %d", v)
	}
	if c.Len() != 1 {
		t.Errorf("Len() = %d after duplicate add", c.Len())
	}
}

func TestZeroCapacityStoresNothing(t *testing.T) {
	c := New[string, int](0)
	c.Add("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Error("zero-capacity cache stored a value")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int, int](64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := (w*31 + i) % 100
				got, ok := c.Get(k)
				if !ok {
					c.Add(k, k*2)
					continue
				}
				if got != k*2 {
					t.Errorf("Get(%d) = %d", k, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("cache exceeded capacity: %d", c.Len())
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New[string, int](3)
	for i := 0; i < 10; i++ {
		c.Add(fmt.Sprintf("k%d", i), i)
	}
	if c.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", c.Len())
	}
	for i := 7; i < 10; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("recent key k%d missing", i)
		}
	}
}
