package graph

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// biEdge is one AddBiEdge call.
type biEdge struct {
	a, c     NodeID
	wAC, wCA float64
}

// mapReferenceCSR is the map-per-node Builder that Build replaced, kept as
// the reference its sorted-slice accumulation must match bit for bit: each
// directed edge overwrites its map slot, each node's list is sorted by
// destination and summed in that order.
func mapReferenceCSR(n int, calls []biEdge) (offsets []int32, flat []HalfEdge, outSum []float64) {
	adj := make([]map[NodeID]float64, n)
	add := func(from, to NodeID, w float64) {
		if from == to {
			return
		}
		if adj[from] == nil {
			adj[from] = make(map[NodeID]float64, 4)
		}
		adj[from][to] = w
	}
	for _, e := range calls {
		add(e.a, e.c, e.wAC)
		add(e.c, e.a, e.wCA)
	}
	offsets = make([]int32, n+1)
	outSum = make([]float64, n)
	for i := 0; i < n; i++ {
		offsets[i] = int32(len(flat))
		start := len(flat)
		for to, w := range adj[i] {
			flat = append(flat, HalfEdge{To: to, Weight: w})
		}
		part := flat[start:]
		sort.Slice(part, func(x, y int) bool { return part[x].To < part[y].To })
		sum := 0.0
		for _, e := range part {
			sum += e.Weight
		}
		outSum[i] = sum
	}
	offsets[n] = int32(len(flat))
	return offsets, flat, outSum
}

// checkBuildMatchesReference builds calls over n nodes with Builder and
// fails unless the CSR equals the map reference's bit for bit and passes
// FromCSR.
func checkBuildMatchesReference(t *testing.T, n int, calls []biEdge) {
	t.Helper()
	b := NewBuilder(n)
	nodes := make([]Node, n)
	for i := range nodes {
		b.AddNode(nodes[i])
	}
	for _, e := range calls {
		b.AddBiEdge(e.a, e.c, e.wAC, e.wCA)
	}
	offsets, flat, outSum := b.Build().CSR()
	wantOff, wantFlat, wantSum := mapReferenceCSR(n, calls)
	if !reflect.DeepEqual(offsets, wantOff) {
		t.Fatalf("offsets %v, reference %v", offsets, wantOff)
	}
	if len(flat) != len(wantFlat) {
		t.Fatalf("%d edges, reference %d", len(flat), len(wantFlat))
	}
	for k := range flat {
		if flat[k].To != wantFlat[k].To || math.Float64bits(flat[k].Weight) != math.Float64bits(wantFlat[k].Weight) {
			t.Fatalf("edge %d = %v, reference %v", k, flat[k], wantFlat[k])
		}
	}
	for i := range outSum {
		if math.Float64bits(outSum[i]) != math.Float64bits(wantSum[i]) {
			t.Fatalf("outSum[%d] = %v, reference %v", i, outSum[i], wantSum[i])
		}
	}
	if _, err := FromCSR(nodes, offsets, flat, outSum); err != nil {
		t.Fatalf("FromCSR refuses the built layout: %v", err)
	}
}

// TestBuildMatchesMapReference drives Builder with random AddBiEdge
// sequences, dense enough that pairs repeat in both directions and
// self-loops occur, against the map reference.
func TestBuildMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		calls := make([]biEdge, rng.Intn(4*n))
		for i := range calls {
			calls[i] = biEdge{
				NodeID(rng.Intn(n)), NodeID(rng.Intn(n)),
				0.1 + rng.Float64(), 0.1 + rng.Float64(),
			}
		}
		checkBuildMatchesReference(t, n, calls)
	}
}

// FuzzGraphBuild decodes an arbitrary AddBiEdge sequence — the first byte
// sizes the graph, each further four bytes are one call's endpoints and
// weights — and checks Build against the map reference and FromCSR.
func FuzzGraphBuild(f *testing.F) {
	f.Add([]byte{3, 0, 1, 7, 3, 1, 0, 2, 5})
	f.Add([]byte{5, 0, 1, 1, 2, 1, 2, 3, 4, 2, 2, 9, 9, 1, 0, 8, 8, 0, 4, 6, 1})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%32)
		var calls []biEdge
		for p := data[1:]; len(p) >= 4; p = p[4:] {
			calls = append(calls, biEdge{
				NodeID(int(p[0]) % n), NodeID(int(p[1]) % n),
				// Non-dyadic weights, so summing them in any order but
				// the reference's shows in the last bits.
				(float64(p[2]) + 1) / 7, (float64(p[3]) + 1) / 7,
			})
		}
		checkBuildMatchesReference(t, n, calls)
	})
}
