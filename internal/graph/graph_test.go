package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func buildLine(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddNode(Node{Relation: "R", Key: "k", Text: "t", Words: 1})
	}
	for i := 0; i+1 < n; i++ {
		b.AddBiEdge(NodeID(i), NodeID(i+1), 1.0, 0.5)
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := buildLine(t, 4)
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 6 {
		t.Fatalf("NumEdges = %d, want 6", g.NumEdges())
	}
	if w, ok := g.Weight(0, 1); !ok || w != 1.0 {
		t.Errorf("Weight(0,1) = %v, %v; want 1.0, true", w, ok)
	}
	if w, ok := g.Weight(1, 0); !ok || w != 0.5 {
		t.Errorf("Weight(1,0) = %v, %v; want 0.5, true", w, ok)
	}
	if _, ok := g.Weight(0, 3); ok {
		t.Error("Weight(0,3) exists, want absent")
	}
	if d := g.OutDegree(1); d != 2 {
		t.Errorf("OutDegree(1) = %d, want 2", d)
	}
	if s := g.OutWeightSum(1); s != 1.5 {
		t.Errorf("OutWeightSum(1) = %g, want 1.5", s)
	}
}

func TestAddEdgeOverwrites(t *testing.T) {
	b := NewBuilder(2)
	b.AddNode(Node{})
	b.AddNode(Node{})
	b.AddBiEdge(0, 1, 1.0, 3.0)
	b.AddBiEdge(1, 0, 0.5, 2.0)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (overwrite)", g.NumEdges())
	}
	if w, _ := g.Weight(0, 1); w != 2.0 {
		t.Errorf("Weight(0,1) = %g, want 2.0", w)
	}
	if w, _ := g.Weight(1, 0); w != 0.5 {
		t.Errorf("Weight(1,0) = %g, want 0.5", w)
	}
}

func TestSelfLoopsDropped(t *testing.T) {
	b := NewBuilder(1)
	b.AddNode(Node{})
	b.AddBiEdge(0, 0, 1.0, 1.0)
	if g := b.Build(); g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0 (self-loop dropped)", g.NumEdges())
	}
}

func TestAddEdgePanics(t *testing.T) {
	for name, f := range map[string]func(*Builder){
		"out of range":    func(b *Builder) { b.AddBiEdge(0, 5, 1, 1) },
		"zero weight":     func(b *Builder) { b.AddBiEdge(0, 1, 0, 1) },
		"neg weight":      func(b *Builder) { b.AddBiEdge(0, 1, 1, -1) },
		"NaN weight":      func(b *Builder) { b.AddBiEdge(0, 1, math.NaN(), 1) },
		"infinite weight": func(b *Builder) { b.AddBiEdge(0, 1, 1, math.Inf(1)) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			b := NewBuilder(2)
			b.AddNode(Node{})
			b.AddNode(Node{})
			f(b)
		})
	}
}

func TestBFSAllShortestPathsDiamond(t *testing.T) {
	// 0 → {1, 2} → 3: node 3 has two shortest-path predecessors.
	b := NewBuilder(4)
	for i := 0; i < 4; i++ {
		b.AddNode(Node{})
	}
	b.AddBiEdge(0, 1, 1, 1)
	b.AddBiEdge(0, 2, 1, 1)
	b.AddBiEdge(1, 3, 1, 1)
	b.AddBiEdge(2, 3, 1, 1)
	g := b.Build()
	tr := g.BFSAllShortestPaths(0, 5)
	if tr.Dist[3] != 2 {
		t.Fatalf("Dist[3] = %d, want 2", tr.Dist[3])
	}
	if len(tr.Preds[3]) != 2 {
		t.Fatalf("Preds[3] = %v, want two predecessors", tr.Preds[3])
	}
}

func TestWeightTables(t *testing.T) {
	imdb := DefaultIMDBWeights()
	if w := imdb.Weight(RelActor, RelMovie, 0); w != 1.0 {
		t.Errorf("Actor→Movie = %g, want 1.0", w)
	}
	if w := imdb.Weight(RelMovie, RelProducer, 0); w != 0.5 {
		t.Errorf("Movie→Producer = %g, want 0.5", w)
	}
	dblp := DefaultDBLPWeights()
	if w := dblp.Weight(RelCitingPaper, RelCitedPaper, 0); w != 0.5 {
		t.Errorf("citing→cited = %g, want 0.5", w)
	}
	if w := dblp.Weight(RelCitedPaper, RelCitingPaper, 0); w != 0.1 {
		t.Errorf("cited→citing = %g, want 0.1", w)
	}
	if w := dblp.Weight("X", "Y", 0.7); w != 0.7 {
		t.Errorf("default weight = %g, want 0.7", w)
	}
}

func randomGraph(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddNode(Node{Relation: "R", Words: 1})
	}
	for i := 0; i < m; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		b.AddBiEdge(u, v, rng.Float64()+0.1, rng.Float64()+0.1)
	}
	return b.Build()
}

// TestEdgeOrderIndependence pins the property the parallel build pipeline
// leans on: the frozen adjacency — OutEdges ordering, Weight/HasEdge answers
// and OutWeightSum — depends only on the edge set, never on the order (or
// map-iteration accident) in which AddBiEdge recorded it. Two builders insert
// the same random edge set in different permutations and must freeze to
// identical graphs.
func TestEdgeOrderIndependence(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(7))
	type edge struct {
		from, to NodeID
		w, back  float64
	}
	var edges []edge
	for f := 0; f < n; f++ {
		for _, off := range []int{1, 3, 7, 11} {
			to := NodeID((f + off) % n)
			if NodeID(f) == to {
				continue
			}
			edges = append(edges, edge{NodeID(f), to, 0.1 + rng.Float64(), 0.1 + rng.Float64()})
		}
	}
	build := func(perm []int) *Graph {
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddNode(Node{Relation: "T", Key: fmt.Sprint(i)})
		}
		for _, i := range perm {
			e := edges[i]
			b.AddBiEdge(e.from, e.to, e.w, e.back)
		}
		return b.Build()
	}
	fwd := make([]int, len(edges))
	for i := range fwd {
		fwd[i] = i
	}
	g1 := build(fwd)
	g2 := build(rng.Perm(len(edges)))
	for v := NodeID(0); v < n; v++ {
		if !reflect.DeepEqual(g1.OutEdges(v), g2.OutEdges(v)) {
			t.Fatalf("node %d: OutEdges differ across insertion orders:\n%v\n%v", v, g1.OutEdges(v), g2.OutEdges(v))
		}
		if g1.OutWeightSum(v) != g2.OutWeightSum(v) {
			t.Fatalf("node %d: OutWeightSum differs across insertion orders", v)
		}
	}
}

// TestWeightBinarySearch cross-checks the sorted-slice binary search in
// Weight/HasEdge against a plain map on a high-degree hub, including the
// boundary probes sort.Search can get subtly wrong (first edge, last edge,
// targets below, between and above every stored destination).
func TestWeightBinarySearch(t *testing.T) {
	const n = 201
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddNode(Node{Relation: "T", Key: fmt.Sprint(i)})
	}
	want := map[NodeID]float64{}
	// Hub node 0 links to every odd node; even targets must miss.
	for to := NodeID(1); to < n; to += 2 {
		w := 1.0 + float64(to)/n
		b.AddBiEdge(0, to, w, 1)
		want[to] = w
	}
	g := b.Build()
	if deg := g.OutDegree(0); deg != len(want) {
		t.Fatalf("hub degree = %d, want %d", deg, len(want))
	}
	for to := NodeID(0); to < n; to++ {
		w, ok := g.Weight(0, to)
		wantW, wantOK := want[to]
		if ok != wantOK || w != wantW {
			t.Fatalf("Weight(0, %d) = (%g, %v), want (%g, %v)", to, w, ok, wantW, wantOK)
		}
		if g.HasEdge(0, to) != wantOK {
			t.Fatalf("HasEdge(0, %d) = %v, want %v", to, !wantOK, wantOK)
		}
	}
	// No out-edges at all: the search must report a clean miss.
	if _, ok := g.Weight(2, 0); ok {
		t.Fatal("Weight on an edgeless node reported an edge")
	}
}
