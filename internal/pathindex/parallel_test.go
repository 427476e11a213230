package pathindex

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"cirank/internal/graph"
)

// refBoundedStats is the reference for boundedStatsInto: identical layer
// loop and frontier order, but with plain per-source maps instead of the
// pooled epoch-stamped buffers. If the stamp machinery ever leaks state
// between sources or layers, this catches it.
func refBoundedStats(g *graph.Graph, src graph.NodeID, maxDepth int, damp []float64) (map[graph.NodeID]int, map[graph.NodeID]float64) {
	dist := map[graph.NodeID]int{src: 0}
	ret := map[graph.NodeID]float64{src: 1}
	frontier := []graph.NodeID{src}
	for depth := 0; depth < maxDepth && len(frontier) > 0; depth++ {
		queued := make(map[graph.NodeID]bool)
		var next []graph.NodeID
		for _, u := range frontier {
			through := ret[u]
			if u != src {
				through *= damp[u]
			}
			for _, e := range g.OutEdges(u) {
				v := e.To
				if _, seen := dist[v]; !seen {
					dist[v] = depth + 1
					ret[v] = through
					queued[v] = true
					next = append(next, v)
				} else if through > ret[v] {
					ret[v] = through
					if !queued[v] {
						queued[v] = true
						next = append(next, v)
					}
				}
			}
		}
		frontier = next
	}
	return dist, ret
}

// refNaive builds a NaiveIndex from refBoundedStats, mirroring
// BuildNaiveContext's defaulting.
func refNaive(g *graph.Graph, damp []float64, maxDepth int) *NaiveIndex {
	n := g.NumNodes()
	ix := &NaiveIndex{n: n, maxDepth: maxDepth, dist: make([]uint8, n*n), ret: make([]float64, n*n)}
	far := farRetention(damp, maxDepth)
	for i := range ix.dist {
		ix.dist[i] = uint8(maxDepth + 1)
		ix.ret[i] = far
	}
	for v := 0; v < n; v++ {
		dist, ret := refBoundedStats(g, graph.NodeID(v), maxDepth, damp)
		row := v * n
		for node, d := range dist {
			ix.dist[row+int(node)] = uint8(d)
			ix.ret[row+int(node)] = ret[node]
		}
	}
	return ix
}

// randomCase generates a graph + damp pair; the bipartite shape keeps the
// hub set a valid vertex cover so the same case drives the star tests.
func randomCase(seed int64) (*graph.Graph, []bool, []float64, int) {
	rng := rand.New(rand.NewSource(seed))
	g, isStar := randomBipartite(rng, 3+rng.Intn(6), 8+rng.Intn(24), 20+rng.Intn(60))
	damp := randomDamp(rng, g.NumNodes())
	return g, isStar, damp, 1 + rng.Intn(6)
}

func TestBuildNaiveMatchesMapReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g, _, damp, maxDepth := randomCase(seed)
		got, err := BuildNaiveContext(context.Background(), g, damp, maxDepth, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := refNaive(g, damp, maxDepth)
		if !bytes.Equal(got.dist, want.dist) {
			t.Fatalf("seed %d: pooled dist table differs from map reference", seed)
		}
		if !reflect.DeepEqual(got.ret, want.ret) {
			t.Fatalf("seed %d: pooled ret table differs from map reference", seed)
		}
	}
}

// TestBuildNaiveWorkerCountInvariant is the determinism suite's naive-index
// leg: every worker count must produce byte-identical tables.
func TestBuildNaiveWorkerCountInvariant(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g, _, damp, maxDepth := randomCase(seed)
		base, err := BuildNaiveContext(context.Background(), g, damp, maxDepth, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			got, err := BuildNaiveContext(context.Background(), g, damp, maxDepth, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.dist, base.dist) || !reflect.DeepEqual(got.ret, base.ret) {
				t.Fatalf("seed %d: naive index differs at workers=%d", seed, workers)
			}
		}
	}
}

// TestBuildStarWorkerCountInvariant certifies the star index the same way,
// comparing every field of the two indexes.
func TestBuildStarWorkerCountInvariant(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g, isStar, damp, maxDepth := randomCase(seed)
		base, err := BuildStarContext(context.Background(), g, damp, isStar, maxDepth, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			ix, err := BuildStarContext(context.Background(), g, damp, isStar, maxDepth, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ix, base) {
				t.Fatalf("seed %d: star index differs at workers=%d", seed, workers)
			}
		}
	}
}

// TestScratchReuseAcrossSources pins the O(touched) reset: one scratch
// driven over many sources must agree with a fresh scratch per source.
func TestScratchReuseAcrossSources(t *testing.T) {
	g, _, damp, maxDepth := randomCase(7)
	shared := newBFSScratch(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		fresh := newBFSScratch(g.NumNodes())
		boundedStatsInto(shared, g, graph.NodeID(v), maxDepth, damp)
		boundedStatsInto(fresh, g, graph.NodeID(v), maxDepth, damp)
		if !reflect.DeepEqual(shared.touched, fresh.touched) {
			t.Fatalf("source %d: touched sets differ between reused and fresh scratch", v)
		}
		for _, u := range fresh.touched {
			if shared.dist[u] != fresh.dist[u] || shared.ret[u] != fresh.ret[u] {
				t.Fatalf("source %d: node %d stats differ between reused and fresh scratch", v, u)
			}
		}
	}
}

// TestScratchEpochWrap forces both stamp counters across the uint32 wrap
// and checks traversals stay correct on the other side.
func TestScratchEpochWrap(t *testing.T) {
	g, _, damp, maxDepth := randomCase(3)
	s := newBFSScratch(g.NumNodes())
	boundedStatsInto(s, g, 0, maxDepth, damp)
	wantTouched := append([]graph.NodeID(nil), s.touched...)
	wantDist := append([]int32(nil), s.dist...)
	wantRet := append([]float64(nil), s.ret...)
	s.epoch = ^uint32(0) - 1
	s.layer = ^uint32(0) - 1
	for i := 0; i < 4; i++ {
		boundedStatsInto(s, g, 0, maxDepth, damp)
		if !reflect.DeepEqual(s.touched, wantTouched) {
			t.Fatalf("wrap step %d: touched differs", i)
		}
		for _, u := range wantTouched {
			if s.dist[u] != wantDist[u] || s.ret[u] != wantRet[u] {
				t.Fatalf("wrap step %d: stats differ at node %d", i, u)
			}
		}
	}
}

func TestBuildCancellation(t *testing.T) {
	g, isStar, damp, _ := randomCase(5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildNaiveContext(ctx, g, damp, 4, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled naive build: err = %v, want context.Canceled", err)
	}
	if _, err := BuildStarContext(ctx, g, damp, isStar, 4, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled star build: err = %v, want context.Canceled", err)
	}
	if _, err := BuildNaiveContext(ctx, g, damp, 4, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sequential naive build: err = %v, want context.Canceled", err)
	}
}

func TestMemStats(t *testing.T) {
	g, isStar, damp, _ := randomCase(9)
	naive, err := BuildNaive(g, damp, 4)
	if err != nil {
		t.Fatal(err)
	}
	star, err := BuildStar(g, damp, isStar, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	nm, sm := naive.MemStats(), star.MemStats()
	if nm.Entries != n*n {
		t.Errorf("naive entries = %d, want %d", nm.Entries, n*n)
	}
	if want := int64(n*n) * 9; nm.Bytes != want {
		t.Errorf("naive bytes = %d, want %d", nm.Bytes, want)
	}
	s := star.NumStarNodes()
	if sm.Entries != s*s {
		t.Errorf("star entries = %d, want %d", sm.Entries, s*s)
	}
	if sm.Bytes <= 0 || sm.Bytes >= nm.Bytes {
		t.Errorf("star bytes = %d, want in (0, %d): the size comparison of §V", sm.Bytes, nm.Bytes)
	}
}
