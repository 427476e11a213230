package datagen

import (
	"math/rand"
	"testing"

	"cirank/internal/graph"
)

// linearCitationIndex is the scan citationPool replaced: it subtracts the
// weights 1 + inCites[i] from the draw x in paper order and returns the
// paper at which x turns negative.
func linearCitationIndex(inCites []int, x int) int {
	for i, c := range inCites {
		x -= 1 + c
		if x < 0 {
			return i
		}
	}
	return len(inCites) - 1
}

func TestBuildCitationPoolMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		// A pool sized for more papers than have joined it, as in the
		// generator, where later papers have not been written yet.
		n := 1 + rng.Intn(40)
		pool := newCitationPool(n + rng.Intn(5))
		inCites := make([]int, n)
		for i := range inCites {
			if rng.Intn(3) == 0 {
				inCites[i] = rng.Intn(20)
			}
			pool.add(i, 1+inCites[i])
		}
		total := n
		for _, c := range inCites {
			total += c
		}
		if pool.total != total {
			t.Fatalf("trial %d: pool total %d, want %d", trial, pool.total, total)
		}
		for x := 0; x < total; x++ {
			if got, want := pool.find(x), linearCitationIndex(inCites, x); got != want {
				t.Fatalf("trial %d: find(%d) = %d, linear scan %d (inCites %v)", trial, x, got, want, inCites)
			}
		}
	}
}

// countCommonConnectorsMap and bestCommonConnectorMap are the map-counting
// versions commonConnectors replaced.
func (b *Built) countCommonConnectorsMap(people []graph.NodeID) int {
	total := 0
	for _, k := range b.connectorCounts(people) {
		if k == len(people) {
			total++
		}
	}
	return total
}

func (b *Built) bestCommonConnectorMap(people []graph.NodeID) graph.NodeID {
	var best graph.NodeID = graph.InvalidNode
	bestPop := -1.0
	for c, k := range b.connectorCounts(people) {
		if k != len(people) {
			continue
		}
		if pop := b.connectorPop(c); pop > bestPop || (pop == bestPop && c < best) {
			best, bestPop = c, pop
		}
	}
	return best
}

func (b *Built) connectorCounts(people []graph.NodeID) map[graph.NodeID]int {
	counts := make(map[graph.NodeID]int)
	for _, p := range people {
		for _, e := range b.G.OutEdges(p) {
			if b.G.Node(e.To).Relation == b.connector {
				counts[e.To]++
			}
		}
	}
	return counts
}

func TestBuildCommonConnectorsMatchMaps(t *testing.T) {
	for _, b := range []*Built{smallDBLP(t, 1), smallIMDB(t, 1)} {
		rng := rand.New(rand.NewSource(9))
		n := b.G.NumNodes()
		for trial := 0; trial < 3000; trial++ {
			// Mostly co-workers of one connector, so that sets share
			// connectors; sometimes arbitrary nodes; repeats allowed.
			people := make([]graph.NodeID, 1+rng.Intn(3))
			cast := b.personNeighbors(b.randomConnector(rng))
			for i := range people {
				switch {
				case i > 0 && rng.Intn(4) == 0:
					people[i] = people[rng.Intn(i)]
				case len(cast) > 0 && rng.Intn(5) > 0:
					people[i] = cast[rng.Intn(len(cast))]
				default:
					people[i] = graph.NodeID(rng.Intn(n))
				}
			}
			common := b.commonConnectors(nil, people)
			if got, want := len(common), b.countCommonConnectorsMap(people); got != want {
				t.Fatalf("%s %v: %d common connectors, map count %d", b.Dataset.Kind, people, got, want)
			}
			if got, want := b.mostPopular(common), b.bestCommonConnectorMap(people); got != want {
				t.Fatalf("%s %v: most popular common connector %d, map version %d", b.Dataset.Kind, people, got, want)
			}
		}
	}
}
