package jtt

import (
	"testing"

	"cirank/internal/graph"
)

// chainGraph builds a bidirectional path graph 0-1-2-…-(n-1).
func chainGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddNode(graph.Node{Relation: "R", Text: "x", Words: 1})
	}
	for i := 0; i+1 < n; i++ {
		b.AddBiEdge(graph.NodeID(i), graph.NodeID(i+1), 1, 1)
	}
	return b.Build()
}

// TestArenaMatchesHeap grows and merges the same trees through the arena and
// the heap constructors and demands identical structure and canonical keys.
func TestArenaMatchesHeap(t *testing.T) {
	g := chainGraph(8)
	var a Arena

	ht := NewSingle(3)
	at := a.NewSingle(3)
	for _, v := range []graph.NodeID{2, 1} {
		var err error
		if ht, err = ht.Grow(g, v); err != nil {
			t.Fatal(err)
		}
		if at = a.GrowEdge(at, v); at == nil {
			t.Fatalf("arena grow onto %d failed", v)
		}
	}
	if hk, ak := ht.CanonicalKey(), at.CanonicalKey(); hk != ak {
		t.Fatalf("arena key %s, heap key %s", ak, hk)
	}
	if at.Root() != ht.Root() || at.Depth() != ht.Depth() || at.Diameter() != ht.Diameter() {
		t.Fatalf("arena tree shape differs: root %d depth %d diam %d", at.Root(), at.Depth(), at.Diameter())
	}

	// Merge two same-root subtrees, arena vs heap.
	left, err := NewSingle(2).Grow(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	aleft := a.GrowEdge(a.NewSingle(2), 1)
	right, err := NewSingle(0).Grow(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	aright := a.GrowEdge(a.NewSingle(0), 1)
	hm, err := left.Merge(right)
	if err != nil {
		t.Fatal(err)
	}
	am, err := a.Merge(aleft, aright)
	if err != nil {
		t.Fatal(err)
	}
	if hm.CanonicalKey() != am.CanonicalKey() {
		t.Fatalf("merge keys differ: %s vs %s", am.CanonicalKey(), hm.CanonicalKey())
	}

	// Failed operations must not consume arena storage or corrupt state.
	if a.GrowEdge(am, 0) != nil {
		t.Fatal("grow into contained node succeeded")
	}
	if _, err := a.Merge(am, am); err == nil {
		t.Fatal("overlapping merge succeeded")
	}
}

// TestArenaResetReuse verifies that Reset recycles storage: after a reset,
// new trees are valid and Clone detaches survivors correctly.
func TestArenaResetReuse(t *testing.T) {
	var a Arena
	first := a.GrowEdge(a.NewSingle(1), 2)
	keep := first.Clone()
	wantKey := keep.CanonicalKey()

	a.Reset()
	// Overwrite the recycled storage with different trees.
	for i := 0; i < 1000; i++ {
		tr := a.GrowEdge(a.NewSingle(4), 5)
		if tr.Root() != 5 || tr.Size() != 2 {
			t.Fatalf("post-reset tree corrupt: root %d size %d", tr.Root(), tr.Size())
		}
	}
	if got := keep.CanonicalKey(); got != wantKey {
		t.Fatalf("cloned tree mutated by arena reuse: %s, want %s", got, wantKey)
	}
}
