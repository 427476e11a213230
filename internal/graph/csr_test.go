package graph

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// nodesOf copies g's node records, since FromCSR takes them as a slice.
func nodesOf(g *Graph) []Node {
	out := make([]Node, g.NumNodes())
	for i := range out {
		out[i] = *g.Node(NodeID(i))
	}
	return out
}

func TestFromCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 2+rng.Intn(20), rng.Intn(40))
		offsets, edges, outSum := g.CSR()
		re, err := FromCSR(nodesOf(g), offsets, edges, outSum)
		if err != nil {
			t.Fatalf("trial %d: FromCSR rejected a valid layout: %v", trial, err)
		}
		if re.NumNodes() != g.NumNodes() || re.NumEdges() != g.NumEdges() {
			t.Fatalf("trial %d: shape %d/%d, want %d/%d",
				trial, re.NumNodes(), re.NumEdges(), g.NumNodes(), g.NumEdges())
		}
		for v := 0; v < g.NumNodes(); v++ {
			id := NodeID(v)
			if re.OutWeightSum(id) != g.OutWeightSum(id) {
				t.Fatalf("trial %d: node %d out-sum differs", trial, v)
			}
			a, b := g.OutEdges(id), re.OutEdges(id)
			if len(a) != len(b) {
				t.Fatalf("trial %d: node %d degree %d, want %d", trial, v, len(b), len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d: node %d edge %d = %+v, want %+v", trial, v, i, b[i], a[i])
				}
			}
		}
	}
}

// TestWeightsReverseIndex is the reverse index's property test over graphs
// made by Builder and by a CSR() → FromCSR round trip: for every ordered
// pair, present or absent, Weights(a, b) is (Weight(a, b), Weight(b, a)) and
// agrees with a scan of both adjacency lists, and rev pairs every edge with
// the edge running back along it (so rev[rev[k]] == k), which
// ReverseWeight reads.
func TestWeightsReverseIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scan := func(g *Graph, from, to NodeID) (float64, bool) {
		for _, e := range g.OutEdges(from) {
			if e.To == to {
				return e.Weight, true
			}
		}
		return 0, false
	}
	for trial := 0; trial < 40; trial++ {
		// Dense and sparse graphs, so both the hub side and the leaf side of
		// a pair get to be the shorter list.
		n := 2 + rng.Intn(24)
		built := randomGraph(rng, n, rng.Intn(4*n))
		offsets, edges, outSum := built.CSR()
		loaded, err := FromCSR(nodesOf(built), offsets, edges, outSum)
		if err != nil {
			t.Fatal(err)
		}
		for name, g := range map[string]*Graph{"built": built, "loaded": loaded} {
			if len(g.rev) != g.NumEdges() {
				t.Fatalf("trial %d %s: reverse index of %d entries for %d edges", trial, name, len(g.rev), g.NumEdges())
			}
			for u := 0; u < n; u++ {
				for k := g.offsets[u]; k < g.offsets[u+1]; k++ {
					r := g.rev[k]
					if g.rev[r] != k || g.flat[r].To != NodeID(u) || r < g.offsets[g.flat[k].To] || r >= g.offsets[g.flat[k].To+1] {
						t.Fatalf("trial %d %s: edge %d (%d→%d) has reverse index %d", trial, name, k, u, g.flat[k].To, r)
					}
				}
			}
			checkReverseWeights(t, g)
			for a := NodeID(0); a < NodeID(n); a++ {
				for b := NodeID(0); b < NodeID(n); b++ {
					ab, ba, ok := g.Weights(a, b)
					wab, okAB := g.Weight(a, b)
					wba, okBA := g.Weight(b, a)
					sab, sokAB := scan(g, a, b)
					sba, sokBA := scan(g, b, a)
					if ab != wab || ba != wba || ok != okAB || ok != okBA ||
						ab != sab || ba != sba || ok != sokAB || ok != sokBA {
						t.Fatalf("trial %d %s: Weights(%d, %d) = (%g, %g, %v); Weight both ways (%g, %v) (%g, %v); scan (%g, %v) (%g, %v)",
							trial, name, a, b, ab, ba, ok, wab, okAB, wba, okBA, sab, sokAB, sba, sokBA)
					}
				}
			}
		}
	}
}

func TestFromCSRRejectsBrokenLayouts(t *testing.T) {
	// A valid two-node layout, one edge each way, to mutate from.
	nodes := []Node{{Relation: "R", Words: 1}, {Relation: "R", Words: 1}}
	offsets := []int32{0, 1, 2}
	edges := []HalfEdge{{To: 1, Weight: 2}, {To: 0, Weight: 0.5}}
	outSum := []float64{2, 0.5}
	if _, err := FromCSR(nodes, offsets, edges, outSum); err != nil {
		t.Fatalf("baseline layout rejected: %v", err)
	}
	three := []Node{{Words: 1}, {Words: 1}, {Words: 1}}

	cases := []struct {
		name string
		f    func() ([]Node, []int32, []HalfEdge, []float64)
	}{
		{"short offsets", func() ([]Node, []int32, []HalfEdge, []float64) {
			return nodes, []int32{0, 1}, edges, outSum
		}},
		{"short outSum", func() ([]Node, []int32, []HalfEdge, []float64) {
			return nodes, offsets, edges, []float64{2}
		}},
		{"nonzero first offset", func() ([]Node, []int32, []HalfEdge, []float64) {
			return nodes, []int32{1, 1, 2}, edges, outSum
		}},
		{"last offset under edge count", func() ([]Node, []int32, []HalfEdge, []float64) {
			return nodes, []int32{0, 1, 1}, edges, outSum
		}},
		{"decreasing offsets", func() ([]Node, []int32, []HalfEdge, []float64) {
			return three, []int32{0, 2, 1, 2},
				[]HalfEdge{{To: 1, Weight: 1}, {To: 2, Weight: 1}}, []float64{2, 0, 0}
		}},
		{"unsorted adjacency", func() ([]Node, []int32, []HalfEdge, []float64) {
			return nodes, []int32{0, 2, 3},
				[]HalfEdge{{To: 1, Weight: 1}, {To: 1, Weight: 1}, {To: 0, Weight: 1}}, []float64{2, 1}
		}},
		{"target out of range", func() ([]Node, []int32, []HalfEdge, []float64) {
			return nodes, offsets, []HalfEdge{{To: 5, Weight: 2}, {To: 0, Weight: 0.5}}, outSum
		}},
		{"self-loop", func() ([]Node, []int32, []HalfEdge, []float64) {
			return nodes, []int32{0, 0, 1}, []HalfEdge{{To: 1, Weight: 2}}, []float64{0, 2}
		}},
		{"zero weight", func() ([]Node, []int32, []HalfEdge, []float64) {
			return nodes, offsets, []HalfEdge{{To: 1, Weight: 0}, {To: 0, Weight: 0.5}}, []float64{0, 0.5}
		}},
		{"infinite weight", func() ([]Node, []int32, []HalfEdge, []float64) {
			inf := math.Inf(1)
			return nodes, offsets, []HalfEdge{{To: 1, Weight: inf}, {To: 0, Weight: 0.5}}, []float64{inf, 0.5}
		}},
		{"out-sum mismatch", func() ([]Node, []int32, []HalfEdge, []float64) {
			return nodes, offsets, edges, []float64{3, 0.5}
		}},
		{"negative word count", func() ([]Node, []int32, []HalfEdge, []float64) {
			bad := []Node{{Relation: "R", Words: -1}, {Relation: "R", Words: 1}}
			return bad, offsets, edges, outSum
		}},
		// Every check above passes and the reverse of 0→1 is missing.
		{"one-way edge", func() ([]Node, []int32, []HalfEdge, []float64) {
			return nodes, []int32{0, 1, 1}, edges[:1], []float64{2, 0}
		}},
		// 0↔1 is a pair, 1→2 and 2→0 are not: node 2's cursor still sits on
		// 2→0 when 1→2 arrives.
		{"one-way pair of edges", func() ([]Node, []int32, []HalfEdge, []float64) {
			return three, []int32{0, 1, 3, 4},
				[]HalfEdge{{To: 1, Weight: 1}, {To: 0, Weight: 1}, {To: 2, Weight: 1}, {To: 0, Weight: 1}}, []float64{1, 2, 1}
		}},
	}
	for _, c := range cases {
		n, o, e, s := c.f()
		_, err := FromCSR(n, o, e, s)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if strings.HasPrefix(c.name, "one-way") != strings.Contains(err.Error(), "no reverse") {
			t.Errorf("%s: rejected by the wrong check: %v", c.name, err)
		}
	}
}

func TestEdgeWireRoundTrip(t *testing.T) {
	edges := []HalfEdge{{To: 0, Weight: 0.125}, {To: 7, Weight: 1}, {To: 1 << 20, Weight: 3.5}}
	b := AppendEdges(nil, edges)
	if len(b) != halfEdgeWireSize*len(edges) {
		t.Fatalf("encoded %d bytes, want %d", len(b), halfEdgeWireSize*len(edges))
	}
	for _, alias := range []bool{false, true} {
		got := EdgesFromBytes(b, alias)
		if len(got) != len(edges) {
			t.Fatalf("alias=%v: decoded %d edges, want %d", alias, len(got), len(edges))
		}
		for i := range edges {
			if got[i] != edges[i] {
				t.Errorf("alias=%v: edge %d = %+v, want %+v", alias, i, got[i], edges[i])
			}
		}
	}
	// The copying path must not share the backing bytes.
	cp := EdgesFromBytes(b, false)
	b[0] ^= 0xff
	if cp[0].To != edges[0].To {
		t.Error("copy decode shares the source bytes")
	}
	b[0] ^= 0xff

	// A misaligned buffer must fall back to decoding a copy, not alias a
	// misaligned pointer.
	odd := append([]byte{0xaa}, b...)[1:]
	if !edgeAligned(odd) {
		got := EdgesFromBytes(odd, true)
		for i := range edges {
			if got[i] != edges[i] {
				t.Errorf("misaligned decode: edge %d = %+v, want %+v", i, got[i], edges[i])
			}
		}
	}

	if EdgesFromBytes(nil, true) != nil || len(EdgesFromBytes(nil, false)) != 0 {
		t.Error("empty input must decode to an empty slice")
	}
	if !edgeAligned(nil) {
		t.Error("empty buffer reported misaligned")
	}
}
