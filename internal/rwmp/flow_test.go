package rwmp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/textindex"
)

// The walk* functions are the per-pair evaluation the flow table replaced,
// kept verbatim as the oracle: every path factor re-finds its edge weights in
// the graph and re-sums each split denominator over the tree's edge view.

func walkSplitDenominator(m *Model, t *jtt.Tree, u graph.NodeID) float64 {
	sum := 0.0
	root := t.Root()
	nodes, par := t.NodeView(), t.ParentView()
	pu, hasPar := t.Parent(u)
	for i, v := range nodes {
		if (v == root || par[i] != u) && !(hasPar && v == pu) {
			continue
		}
		if w, ok := m.g.Weight(u, v); ok {
			sum += w
		}
	}
	return sum
}

func walkPathFactor(m *Model, t *jtt.Tree, src, dst graph.NodeID) float64 {
	if src == dst {
		return 1
	}
	path := t.Path(src, dst)
	factor := 1.0
	for i := 0; i+1 < len(path); i++ {
		u, next := path[i], path[i+1]
		w, ok := m.g.Weight(u, next)
		if !ok {
			return 0
		}
		denom := walkSplitDenominator(m, t, u)
		if denom <= 0 {
			return 0
		}
		factor *= w / denom
		if i > 0 {
			factor *= m.damp[u]
		}
	}
	return factor
}

func walkDelivered(m *Model, t *jtt.Tree, src, dst graph.NodeID, terms []string) float64 {
	count := m.Generation(src, terms)
	if count == 0 || src == dst {
		return count
	}
	return count * walkPathFactor(m, t, src, dst)
}

func walkNodeScore(m *Model, t *jtt.Tree, v graph.NodeID, sources []graph.NodeID, terms []string) float64 {
	minFlow := math.Inf(1)
	others := 0
	for _, s := range sources {
		if s == v {
			continue
		}
		others++
		if f := walkDelivered(m, t, s, v, terms); f < minFlow {
			minFlow = f
		}
	}
	if others == 0 {
		return m.Generation(v, terms)
	}
	return minFlow
}

func walkScoreTree(m *Model, t *jtt.Tree, sources []graph.NodeID, terms []string) float64 {
	if len(sources) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range sources {
		sum += walkNodeScore(m, t, v, sources, terms)
	}
	return sum / float64(len(sources))
}

// flowGraph builds a seeded random graph for the flow-table property test:
// node 0 is a hub adjacent to everything, the other pairs are joined at
// random, and every direction carries its own irregular weight (so the order
// a denominator is summed in shows in its last bits).
func flowGraph(t *testing.T, rng *rand.Rand, n int) *Model {
	t.Helper()
	words := []string{"kw0", "kw1", "kw0 kw1 pad", "free", "free pad"}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		text := words[rng.Intn(len(words))]
		b.AddNode(graph.Node{Relation: "R", Text: text, Words: textindex.WordCount(text)})
	}
	for a := 0; a < n; a++ {
		for c := a + 1; c < n; c++ {
			if a != 0 && rng.Intn(3) != 0 {
				continue
			}
			b.AddBiEdge(graph.NodeID(a), graph.NodeID(c), 0.05+rng.Float64(), 0.05+rng.Float64())
		}
	}
	g := b.Build()
	imp := make([]float64, n)
	sum := 0.0
	for i := range imp {
		imp[i] = 0.1 + rng.Float64()
		sum += imp[i]
	}
	for i := range imp {
		imp[i] /= sum
	}
	m, err := New(g, textindex.Build(g), imp, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// heapTree attaches up to size-1 random nodes under random tree nodes no
// deeper than maxDepth-1: bushy shapes, stars around the hub included. Some
// attachments claim a non-edge, as jtt.Attach lets a caller do, so paths
// over a missing edge occur.
func heapTree(rng *rand.Rand, g *graph.Graph, size, maxDepth int) *jtt.Tree {
	t := jtt.NewSingle(graph.NodeID(rng.Intn(g.NumNodes())))
	depth := map[graph.NodeID]int{t.Root(): 0}
	for tries := 0; t.Size() < size && tries < 20*size; tries++ {
		parent := t.NodeView()[rng.Intn(t.Size())]
		child := graph.NodeID(rng.Intn(g.NumNodes()))
		if depth[parent] >= maxDepth || t.Contains(child) || !g.HasEdge(parent, child) && rng.Intn(4) != 0 {
			continue
		}
		t = t.MustAttach(child, parent)
		depth[child] = depth[parent] + 1
	}
	return t
}

// arenaTree builds the shape the search builds: chains grown root-ward to a
// common root, then merged.
func arenaTree(rng *rand.Rand, a *jtt.Arena, g *graph.Graph, branches, maxDepth int) *jtt.Tree {
	root := graph.NodeID(rng.Intn(g.NumNodes()))
	t := a.NewSingle(root)
	for b := 0; b < branches; b++ {
		// Walk away from the root, then grow back along the walk.
		walk := []graph.NodeID{root}
		for len(walk) <= 1+rng.Intn(maxDepth) {
			edges := g.OutEdges(walk[len(walk)-1])
			if len(edges) == 0 {
				break
			}
			next := edges[rng.Intn(len(edges))].To
			if t.Contains(next) || containsNode(walk, next) {
				break
			}
			walk = append(walk, next)
		}
		chain := a.NewSingle(walk[len(walk)-1])
		for i := len(walk) - 2; i >= 0; i-- {
			chain = a.GrowEdge(chain, walk[i])
		}
		if merged, err := a.Merge(t, chain); err == nil {
			t = merged
		}
	}
	return t
}

func containsNode(list []graph.NodeID, v graph.NodeID) bool {
	for _, u := range list {
		if u == v {
			return true
		}
	}
	return false
}

// TestFlowTableMatchesPerPairWalk holds every table-driven result to the
// per-pair walk bit for bit, on seeded random trees of depth 0–3 from the
// heap and from an arena, over graphs with a hub and per-direction weights.
func TestFlowTableMatchesPerPairWalk(t *testing.T) {
	terms := []string{"kw0", "kw1"}
	var zeroFactors, midParents int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := flowGraph(t, rng, 14)
		var arena jtt.Arena
		var f Flow // refilled tree after tree, as the search's workers do
		for i := 0; i < 30; i++ {
			var tr *jtt.Tree
			if i%2 == 0 {
				tr = heapTree(rng, m.g, 1+rng.Intn(7), rng.Intn(4))
			} else {
				tr = arenaTree(rng, &arena, m.g, rng.Intn(4), 1+rng.Intn(3))
			}
			label := fmt.Sprintf("seed %d tree %d (%s)", seed, i, tr.CanonicalKey())
			nodes := tr.NodeView()
			f.SetTree(m, tr)
			for _, src := range nodes {
				if p, ok := tr.Parent(src); ok {
					if kids := tr.Children(src); len(kids) >= 2 && kids[0] < p && p < kids[len(kids)-1] {
						midParents++
					}
				}
				for _, dst := range nodes {
					want := walkPathFactor(m, tr, src, dst)
					if want == 0 {
						zeroFactors++
					}
					if got := m.PathFactor(tr, src, dst); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: PathFactor(%d→%d) = %x, walk gives %x", label, src, dst, math.Float64bits(got), math.Float64bits(want))
					}
					if got := f.Factor(tr.Slot(src), tr.Slot(dst)); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: reused Flow.Factor(%d→%d) = %x, walk gives %x", label, src, dst, math.Float64bits(got), math.Float64bits(want))
					}
					got, wantD := m.Delivered(tr, src, dst, terms), walkDelivered(m, tr, src, dst, terms)
					if math.Float64bits(got) != math.Float64bits(wantD) {
						t.Fatalf("%s: Delivered(%d→%d) = %v, walk gives %v", label, src, dst, got, wantD)
					}
				}
			}
			sources := m.SourcesIn(tr, terms)
			for _, v := range sources {
				got, want := m.NodeScore(tr, v, sources, terms), walkNodeScore(m, tr, v, sources, terms)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: NodeScore(%d) = %v, walk gives %v", label, v, got, want)
				}
			}
			got, want := m.ScoreTree(tr, sources, terms), walkScoreTree(m, tr, sources, terms)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: ScoreTree = %v, walk gives %v", label, got, want)
			}
			if got := m.Score(tr, terms); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Score = %v, walk gives %v", label, got, want)
			}
		}
	}
	// The cases the table could get wrong must actually occur: a claimed
	// non-edge on a path, and a node whose parent sorts between its children.
	if zeroFactors < 100 || midParents < 20 {
		t.Fatalf("weak fixture: %d zero factors, %d nodes with the parent between children", zeroFactors, midParents)
	}
}

// TestTreeScoringWrappersDoNotAllocate pins the stack buffers of the Model
// methods: scoring an answer-sized tree builds its table without the heap.
func TestTreeScoringWrappersDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := flowGraph(t, rng, 14)
	tr := heapTree(rng, m.g, flowBuf, 3)
	terms := []string{"kw0", "kw1"}
	sources := m.SourcesIn(tr, terms)
	nodes := tr.NodeView()
	if n := testing.AllocsPerRun(50, func() {
		m.PathFactor(tr, nodes[0], nodes[len(nodes)-1])
		m.ScoreTree(tr, sources, terms)
	}); n != 0 {
		t.Errorf("PathFactor + ScoreTree allocate %.0f times on a %d-node tree", n, tr.Size())
	}
}
