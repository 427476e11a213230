package pathindex

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cirank/internal/graph"
)

// bruteStats enumerates all simple paths from u to v of at most maxHops
// hops and returns the minimum hop count and the maximum retention (product
// of damp over intermediate nodes). found is false if no such path exists.
func bruteStats(g *graph.Graph, damp []float64, u, v graph.NodeID, maxHops int) (minHops int, maxRet float64, found bool) {
	minHops = maxHops + 1
	var dfs func(cur graph.NodeID, hops int, ret float64, visited map[graph.NodeID]bool)
	dfs = func(cur graph.NodeID, hops int, ret float64, visited map[graph.NodeID]bool) {
		if cur == v {
			found = true
			if hops < minHops {
				minHops = hops
			}
			if ret > maxRet {
				maxRet = ret
			}
			return
		}
		if hops == maxHops {
			return
		}
		for _, e := range g.OutEdges(cur) {
			if visited[e.To] {
				continue
			}
			visited[e.To] = true
			nr := ret
			if cur != u {
				// cur is an intermediate for the extended path... damp is
				// applied when leaving an intermediate; equivalently the
				// product over strictly-between nodes. We multiply when
				// stepping off a non-source node.
				nr *= damp[cur]
			}
			dfs(e.To, hops+1, nr, visited)
			delete(visited, e.To)
		}
	}
	dfs(u, 0, 1, map[graph.NodeID]bool{u: true})
	return minHops, maxRet, found
}

// randomBipartite builds a movie/person-style graph: stars[i]=true for hub
// nodes; every edge connects a hub to a non-hub (so the hub set is a vertex
// cover).
func randomBipartite(rng *rand.Rand, hubs, others, edges int) (*graph.Graph, []bool) {
	n := hubs + others
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddNode(graph.Node{})
	}
	for i := 0; i < edges; i++ {
		h := graph.NodeID(rng.Intn(hubs))
		o := graph.NodeID(hubs + rng.Intn(others))
		b.AddBiEdge(h, o, rng.Float64()+0.1, rng.Float64()+0.1)
	}
	isStar := make([]bool, n)
	for i := 0; i < hubs; i++ {
		isStar[i] = true
	}
	return b.Build(), isStar
}

func randomDamp(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.1 + 0.85*rng.Float64()
	}
	return out
}

func TestBuildNaiveValidation(t *testing.T) {
	g, _ := randomBipartite(rand.New(rand.NewSource(1)), 2, 3, 4)
	if _, err := BuildNaive(g, randomDamp(rand.New(rand.NewSource(2)), 5), 0); err == nil {
		t.Error("maxDepth 0 accepted")
	}
	if _, err := BuildNaive(g, []float64{1}, 4); err == nil {
		t.Error("wrong damp length accepted")
	}
}

func TestBuildStarValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, isStar := randomBipartite(rng, 2, 3, 6)
	damp := randomDamp(rng, 5)
	if _, err := BuildStar(g, damp, isStar, 0); err == nil {
		t.Error("maxDepth 0 accepted")
	}
	if _, err := BuildStar(g, damp, make([]bool, 1), 4); err == nil {
		t.Error("wrong isStar length accepted")
	}
	// Flipping star membership breaks the vertex cover.
	bad := make([]bool, len(isStar))
	if _, err := BuildStar(g, damp, bad, 4); err == nil && g.NumEdges() > 0 {
		t.Error("non-cover star set accepted")
	}
}

func TestNaiveIndexMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, _ := randomBipartite(rng, 2+rng.Intn(3), 3+rng.Intn(4), 8+rng.Intn(8))
		damp := randomDamp(rng, g.NumNodes())
		maxDepth := 4
		ix, err := BuildNaive(g, damp, maxDepth)
		if err != nil {
			return false
		}
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				uid, vid := graph.NodeID(u), graph.NodeID(v)
				hops, ret, found := bruteStats(g, damp, uid, vid, maxDepth)
				lb := ix.DistanceLB(uid, vid)
				ub := ix.RetentionUB(uid, vid)
				if found {
					if lb > hops {
						t.Logf("dist lb %d > true %d for %d→%d", lb, hops, u, v)
						return false
					}
					if ub < ret-1e-12 {
						t.Logf("ret ub %g < true %g for %d→%d", ub, ret, u, v)
						return false
					}
					// Within the horizon the naive index is exact.
					if lb != hops {
						t.Logf("dist %d != true %d for %d→%d", lb, hops, u, v)
						return false
					}
				} else if lb != maxDepth+1 {
					t.Logf("unreachable pair %d→%d got lb %d", u, v, lb)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStarIndexSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, isStar := randomBipartite(rng, 2+rng.Intn(3), 3+rng.Intn(4), 8+rng.Intn(8))
		damp := randomDamp(rng, g.NumNodes())
		maxDepth := 4
		ix, err := BuildStar(g, damp, isStar, maxDepth)
		if err != nil {
			return false
		}
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				uid, vid := graph.NodeID(u), graph.NodeID(v)
				hops, ret, found := bruteStats(g, damp, uid, vid, maxDepth)
				if !found {
					continue
				}
				if lb := ix.DistanceLB(uid, vid); lb > hops {
					t.Logf("star dist lb %d > true %d for %d→%d (star %v,%v)", lb, hops, u, v, isStar[u], isStar[v])
					return false
				}
				if ub := ix.RetentionUB(uid, vid); ub < ret-1e-12 {
					t.Logf("star ret ub %g < true %g for %d→%d (star %v,%v)", ub, ret, u, v, isStar[u], isStar[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStarStarExactWithinHorizon(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, isStar := randomBipartite(rng, 4, 6, 20)
	damp := randomDamp(rng, g.NumNodes())
	ix, err := BuildStar(g, damp, isStar, 6)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			hops, _, found := bruteStats(g, damp, graph.NodeID(u), graph.NodeID(v), 6)
			if !found {
				continue
			}
			if lb := ix.DistanceLB(graph.NodeID(u), graph.NodeID(v)); lb != hops {
				t.Errorf("star-star dist %d, true %d for %d→%d", lb, hops, u, v)
			}
		}
	}
}

func TestIdentityAndAdjacent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, isStar := randomBipartite(rng, 2, 3, 6)
	damp := randomDamp(rng, g.NumNodes())
	star, err := BuildStar(g, damp, isStar, 4)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := BuildNaive(g, damp, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []Index{star, naive} {
		if d := ix.DistanceLB(0, 0); d != 0 {
			t.Errorf("DistanceLB(0,0) = %d", d)
		}
		if r := ix.RetentionUB(0, 0); r != 1 {
			t.Errorf("RetentionUB(0,0) = %g", r)
		}
	}
	// Find an adjacent pair: retention must be exactly 1 (no intermediate).
	for u := 0; u < g.NumNodes(); u++ {
		for _, e := range g.OutEdges(graph.NodeID(u)) {
			if r := star.RetentionUB(graph.NodeID(u), e.To); r != 1 {
				t.Fatalf("adjacent retention = %g, want 1", r)
			}
			if d := star.DistanceLB(graph.NodeID(u), e.To); d > 1 {
				t.Fatalf("adjacent distance lb = %d, want ≤1", d)
			}
			return
		}
	}
}

func TestStarIndexSmallerThanNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, isStar := randomBipartite(rng, 3, 30, 60)
	damp := randomDamp(rng, g.NumNodes())
	star, err := BuildStar(g, damp, isStar, 4)
	if err != nil {
		t.Fatal(err)
	}
	if star.numStar != 3 {
		t.Errorf("numStar = %d, want 3", star.numStar)
	}
	// 3×3 tables vs 33×33: the point of the design.
	if got := star.numStar * star.numStar; got >= g.NumNodes()*g.NumNodes() {
		t.Errorf("star table size %d not smaller than naive %d", got, g.NumNodes()*g.NumNodes())
	}
}

func TestFarRetention(t *testing.T) {
	damp := []float64{0.5, 0.8, 0.3}
	if got := farRetention(damp, 3); math.Abs(got-0.512) > 1e-12 {
		t.Errorf("farRetention = %g, want 0.512", got)
	}
}
