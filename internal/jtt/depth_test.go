package jtt

import (
	"math/rand"
	"testing"
	"unsafe"

	"cirank/internal/graph"
)

// walkDepth is the depth oracle: the parent-chain walk Depth performed before
// the tree carried its depth as a field.
func walkDepth(t *Tree) int {
	max := 0
	for _, v := range t.nodes {
		if d := t.depthOf(v); d > max {
			max = d
		}
	}
	return max
}

// randomConnectedGraph builds a random spanning tree over n nodes plus extra
// bidirectional edges, so roots have several neighbours to grow to and
// same-root subtrees to merge.
func randomConnectedGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddNode(graph.Node{Relation: "R", Text: "x", Words: 1})
	}
	for i := 1; i < n; i++ {
		b.AddBiEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)), 1, 1)
	}
	for i := 0; i < extra; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			b.AddBiEdge(graph.NodeID(u), graph.NodeID(v), 1, 1)
		}
	}
	return b.Build()
}

// treeMaker is the constructor family under test: the heap functions or one
// Arena's.
type treeMaker struct {
	single func(v graph.NodeID) *Tree
	grow   func(t *Tree, g *graph.Graph, v graph.NodeID) (*Tree, error)
	merge  func(a, b *Tree) (*Tree, error)
}

func heapMaker() treeMaker {
	return treeMaker{
		single: NewSingle,
		grow:   func(t *Tree, g *graph.Graph, v graph.NodeID) (*Tree, error) { return t.Grow(g, v) },
		merge:  func(a, b *Tree) (*Tree, error) { return a.Merge(b) },
	}
}

// arenaMaker grows with GrowEdge — legal here because the property test only
// grows to out-neighbours of the root — and holds it to the checked heap
// grow's verdict and result.
func arenaMaker(t *testing.T, a *Arena) treeMaker {
	return treeMaker{
		single: a.NewSingle,
		grow: func(tr *Tree, g *graph.Graph, v graph.NodeID) (*Tree, error) {
			want, err := tr.Grow(g, v)
			got := a.GrowEdge(tr, v)
			if (got == nil) != (err != nil) {
				t.Fatalf("GrowEdge(%d) = %v, checked grow says %v", v, got, err)
			}
			if got != nil && (got.Root() != want.Root() || got.CanonicalKey() != want.CanonicalKey()) {
				t.Fatalf("GrowEdge(%d) built %s, checked grow %s", v, got.CanonicalKey(), want.CanonicalKey())
			}
			return got, err
		},
		merge: a.Merge,
	}
}

// runDepthOps applies steps random operations to a growing pool of trees and
// checks after each that the depth field equals the parent-chain walk.
func runDepthOps(t *testing.T, rng *rand.Rand, g *graph.Graph, mk treeMaker, steps int) {
	t.Helper()
	n := g.NumNodes()
	pool := []*Tree{mk.single(graph.NodeID(rng.Intn(n)))}
	check := func(op string, nt *Tree) {
		t.Helper()
		if got, want := nt.Depth(), walkDepth(nt); got != want {
			t.Fatalf("%s: Depth() = %d, parent-chain walk says %d (tree %s rooted at %d)",
				op, got, want, nt.CanonicalKey(), nt.Root())
		}
		pool = append(pool, nt)
	}
	for i := 0; i < steps; i++ {
		tr := pool[rng.Intn(len(pool))]
		switch op := rng.Intn(8); op {
		case 0:
			check("NewSingle", mk.single(graph.NodeID(rng.Intn(n))))
		case 1, 2: // grow through the root, as the search does
			edges := g.OutEdges(tr.Root())
			if nt, err := mk.grow(tr, g, edges[rng.Intn(len(edges))].To); err == nil {
				check("Grow", nt)
			}
		case 3: // merge with any same-root, non-overlapping pool tree
			for _, other := range pool {
				if nt, err := mk.merge(tr, other); err == nil {
					check("Merge", nt)
					break
				}
			}
		case 4: // attach a leaf under a random node
			p := tr.nodes[rng.Intn(len(tr.nodes))]
			edges := g.OutEdges(p)
			if nt, err := tr.Attach(edges[rng.Intn(len(edges))].To, p); err == nil {
				check("Attach", nt)
			}
		case 5:
			check("Reroot", tr.Reroot(tr.nodes[rng.Intn(len(tr.nodes))]))
		case 6:
			salt := graph.NodeID(rng.Intn(3))
			check("Reduce", tr.Reduce(func(v graph.NodeID) bool { return (v+salt)%3 == 0 }))
		case 7:
			check("Clone", tr.Clone())
		}
	}
}

// TestDepthFieldMatchesWalk is the depth invariant: after random sequences of
// every constructor, on the heap and on an arena, Depth() equals the
// parent-chain walk. The arena rounds run across Reset with every recycled
// header poisoned, so a constructor that forgot to set the field would
// report the stale value.
func TestDepthFieldMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 24, 16)
		runDepthOps(t, rng, g, heapMaker(), 400)

		var a Arena
		for round := 0; round < 3; round++ {
			runDepthOps(t, rng, g, arenaMaker(t, &a), 400)
			for _, slab := range a.slabs {
				for i := range slab {
					slab[i].depth = 1 << 20
					slab[i].root = graph.InvalidNode
				}
			}
			a.Reset()
		}
	}
}

// TestTreeHeaderSize pins the header at 56 bytes: the depth field lives in
// the padding after root, so the arena's header slabs did not grow.
func TestTreeHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(Tree{}); got != 56 {
		t.Errorf("Tree header is %d bytes, want 56", got)
	}
}

// TestGrowEdgeOverlapTakesNoStorage checks the one rejection GrowEdge still
// makes, and that it makes it before the arena hands anything out.
func TestGrowEdgeOverlapTakesNoStorage(t *testing.T) {
	var a Arena
	tr := a.GrowEdge(a.NewSingle(3), 2)
	if tr == nil || tr.Root() != 2 || tr.Depth() != 1 {
		t.Fatalf("GrowEdge(3 -> 2) = %v", tr)
	}
	before := a.Trees()
	if got := a.GrowEdge(tr, 3); got != nil {
		t.Fatalf("GrowEdge into a contained node returned %s", got.CanonicalKey())
	}
	if a.Trees() != before {
		t.Errorf("rejected GrowEdge took a header: %d trees, want %d", a.Trees(), before)
	}
}

// TestArenaResetCapsRetention grows an arena well past its retention caps
// and checks Reset drops the excess but keeps the arena usable.
func TestArenaResetCapsRetention(t *testing.T) {
	var a Arena
	const trees = (arenaKeepSlabs + 3) * arenaChunkTrees
	for i := 0; i < trees; i++ {
		tr := a.NewSingle(1)
		for v := graph.NodeID(2); v < 40; v++ { // 39-node chains fill chunks quickly
			tr = a.GrowEdge(tr, v)
		}
		if a.Trees() > trees {
			break
		}
	}
	if len(a.chunks) <= arenaKeepChunks || len(a.slabs) <= arenaKeepSlabs {
		t.Fatalf("fixture too small: %d chunks, %d slabs", len(a.chunks), len(a.slabs))
	}
	a.Reset()
	if len(a.chunks) > arenaKeepChunks || len(a.slabs) > arenaKeepSlabs {
		t.Errorf("Reset retained %d chunks and %d slabs, caps are %d and %d",
			len(a.chunks), len(a.slabs), arenaKeepChunks, arenaKeepSlabs)
	}
	if a.Trees() != 0 {
		t.Errorf("Trees() = %d after Reset", a.Trees())
	}
	if tr := a.GrowEdge(a.NewSingle(5), 6); tr.Size() != 2 || tr.Depth() != 1 {
		t.Errorf("post-reset tree corrupt: size %d depth %d", tr.Size(), tr.Depth())
	}
}
