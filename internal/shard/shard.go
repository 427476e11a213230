// Package shard partitions the CI-Rank data graph into overlapping per-shard
// subgraphs and merges their locally-optimal top-k answers back into the
// exact global ranking — the core of the scatter-gather serving engine.
//
// # Partitioning scheme
//
// Ownership is a disjoint cover of the dense node-ID space: every node is
// owned by exactly one shard. Ownership chunks a Cuthill–McKee traversal
// order so each shard owns one connected region (see locality.go). Every
// shard then replicates a halo around its owned set — all nodes within
// Radius undirected hops of an owned node — and materializes the
// member-induced subgraph. The halo makes shards
// self-sufficient: an answer tree of diameter ≤ D has a center node whose
// tree-eccentricity is at most ⌈D/2⌉, so as long as Radius ≥ ⌈D/2⌉ the shard
// owning the center contains the whole tree. Every valid answer is therefore
// discoverable by at least one shard locally, with no cross-shard tree
// assembly.
//
// # Why shard scores are bitwise global scores
//
// Shard subgraphs keep the full global node-ID space (non-members are empty
// records with no edges), and the scoring model is rebuilt from the global
// importance and dampening vectors (rwmp.NewFromParts), so node IDs,
// canonical tree keys, p_min, and every Eq. 2–4 input are identical to the
// single-engine ones. RWMP scoring is tree-local — split denominators sum
// directed weights only toward tree neighbours — so a tree fully contained
// in a shard scores bitwise identically to the same tree in the whole
// graph. Gather can therefore merge shard lists under the global
// (score desc, canonical key asc) total order and dedup overlap-region
// duplicates by key: the merged list is byte-identical to the single-engine
// top-k.
package shard

import (
	"fmt"
	"sort"

	"cirank/internal/graph"
)

// Part describes one shard of a Plan.
type Part struct {
	// Index is the shard's position in [0, Count).
	Index int
	// Owned lists the shard's owned node IDs in ascending order. The owned
	// sets of a plan's parts are disjoint and cover the whole ID space.
	// Owned is empty for shards of a plan with more parts than nodes.
	Owned []graph.NodeID
	// Member flags every node of the shard subgraph: the owned set plus
	// the halo of nodes within Radius undirected hops of it. Length is the
	// full graph's node count.
	Member []bool
	// Members counts the true entries of Member.
	Members int
}

// Owns reports whether the shard owns node v (as opposed to merely
// replicating it in its halo).
func (p *Part) Owns(v graph.NodeID) bool {
	i := sort.Search(len(p.Owned), func(i int) bool { return p.Owned[i] >= v })
	return i < len(p.Owned) && p.Owned[i] == v
}

// Span returns the half-open ID interval [lo, hi) bounding the owned set,
// with lo == hi for an empty set. The span merely bounds the owned set; the
// snapshot records it alongside the explicit owned list.
func (p *Part) Span() (lo, hi graph.NodeID) {
	if len(p.Owned) == 0 {
		return 0, 0
	}
	return p.Owned[0], p.Owned[len(p.Owned)-1] + 1
}

// Plan is a deterministic partitioning of a graph into Count overlapping
// shards with halo radius Radius.
type Plan struct {
	// NumNodes is the partitioned graph's node count.
	NumNodes int
	// Count is the number of shards.
	Count int
	// Radius is the halo depth in undirected hops. Searches on the plan's
	// shards are exact for answer diameters up to 2·Radius.
	Radius int
	// Parts holds one entry per shard, in shard-index order.
	Parts []Part
}

// NewPlan splits g into count shards with the given halo radius. The split
// is deterministic in (g, count, radius): the owned sets are chunks of the
// Cuthill–McKee node order (localityOrder) and the halo is a breadth-first
// search over edges taken undirected. count may exceed the node count; the
// excess shards are empty.
func NewPlan(g *graph.Graph, count, radius int) (*Plan, error) {
	if count < 1 {
		return nil, fmt.Errorf("shard: count %d, want at least 1", count)
	}
	if radius < 1 {
		return nil, fmt.Errorf("shard: radius %d, want at least 1", radius)
	}
	n := g.NumNodes()
	order := localityOrder(g)
	plan := &Plan{NumNodes: n, Count: count, Radius: radius, Parts: make([]Part, count)}
	rev := reverseAdjacency(g)
	for i := 0; i < count; i++ {
		owned := append([]graph.NodeID(nil), order[i*n/count:(i+1)*n/count]...)
		sort.Slice(owned, func(a, b int) bool { return owned[a] < owned[b] })
		plan.Parts[i] = newPart(g, rev, i, owned, radius)
	}
	return plan, nil
}

// newPart assembles one shard part: the sorted owned set plus the
// radius-hop halo membership computed by a multi-source BFS from the owned
// nodes, following edges in both directions — answer trees connect nodes
// regardless of edge orientation, so the halo must too.
func newPart(g *graph.Graph, rev [][]graph.NodeID, index int, owned []graph.NodeID, radius int) Part {
	n := g.NumNodes()
	p := Part{Index: index, Owned: owned, Member: make([]bool, n)}
	frontier := make([]graph.NodeID, 0, len(owned))
	for _, v := range owned {
		p.Member[v] = true
		frontier = append(frontier, v)
	}
	p.Members = len(frontier)
	var next []graph.NodeID
	for depth := 0; depth < radius && len(frontier) > 0; depth++ {
		next = next[:0]
		for _, u := range frontier {
			for _, e := range g.OutEdges(u) {
				if !p.Member[e.To] {
					p.Member[e.To] = true
					p.Members++
					next = append(next, e.To)
				}
			}
			for _, w := range rev[u] {
				if !p.Member[w] {
					p.Member[w] = true
					p.Members++
					next = append(next, w)
				}
			}
		}
		frontier, next = next, frontier
	}
	return p
}

// reverseAdjacency lists, for each node, the sources of its incoming edges.
func reverseAdjacency(g *graph.Graph) [][]graph.NodeID {
	rev := make([][]graph.NodeID, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.OutEdges(graph.NodeID(v)) {
			rev[e.To] = append(rev[e.To], graph.NodeID(v))
		}
	}
	return rev
}

// Project materializes the subgraph one shard stores, in the global ID
// space: the subgraph has the same node count as g, member nodes keep their
// full records, non-members become empty records with no edges. Keeping
// global IDs is what makes canonical tree keys — and therefore the Gather
// merge order and dedup — comparable across shards.
//
// Edges are the member-induced set minus the rim: an edge both of whose
// endpoints sit at distance exactly radius from the owned set is dropped.
// Every tree of depth ≤ radius centered at an owned node keeps all its
// edges — a tree edge always has one endpoint at tree depth ≤ radius-1, and
// hop distance to the owned set never exceeds tree depth from an owned
// center — so the shard still holds every answer it is responsible for
// whole. The trim also preserves every shortest path from the owned set
// (consecutive distances differ by one, so each path edge has an endpoint
// under radius), which keeps distances over the stored subgraph equal to
// distances over g and makes the load-time OwnedDistances recomputation
// land on the build-time values.
func Project(g *graph.Graph, p *Part, radius int) *graph.Graph {
	dist := OwnedDistances(g, p.Owned, radius)
	b := graph.NewBuilder(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if p.Member[v] {
			b.AddNode(*g.Node(id))
		} else {
			b.AddNode(graph.Node{})
		}
	}
	rim := int32(radius)
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if !p.Member[v] {
			continue
		}
		for _, e := range g.OutEdges(id) {
			if p.Member[e.To] && (dist[v] < rim || dist[e.To] < rim) {
				b.AddEdge(id, e.To, e.Weight)
			}
		}
	}
	return b.Build()
}
