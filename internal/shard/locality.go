package shard

import (
	"sort"

	"cirank/internal/graph"
)

// localityOrder returns a permutation of the node IDs in Cuthill–McKee
// order: components are entered at their minimum-degree node and traversed
// breadth-first with neighbours visited in (undirected degree, ID)
// ascending order. Nodes adjacent in the graph land close together in the
// order, so contiguous chunks of it have small edge boundaries — far
// smaller than chunks of raw insertion-order IDs, where hub edges cross every
// boundary — which shrinks the radius-r halo every shard must replicate. The
// order is deterministic in the graph alone.
func localityOrder(g *graph.Graph) []graph.NodeID {
	n := g.NumNodes()
	rev := reverseAdjacency(g)
	// Undirected degree; parallel out+in edges to one neighbour both count,
	// which only biases the tie-break, never correctness.
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[v] = int32(len(g.OutEdges(graph.NodeID(v))) + len(rev[v]))
	}
	// Component seeds, lowest degree first (ID breaks ties): entering a
	// component at its periphery keeps the traversal's bandwidth low.
	seeds := make([]graph.NodeID, n)
	for v := range seeds {
		seeds[v] = graph.NodeID(v)
	}
	sort.Slice(seeds, func(i, j int) bool {
		if deg[seeds[i]] != deg[seeds[j]] {
			return deg[seeds[i]] < deg[seeds[j]]
		}
		return seeds[i] < seeds[j]
	})

	order := make([]graph.NodeID, 0, n)
	visited := make([]bool, n)
	var frontier, next, nbrs []graph.NodeID
	for _, seed := range seeds {
		if visited[seed] {
			continue
		}
		visited[seed] = true
		order = append(order, seed)
		frontier = append(frontier[:0], seed)
		for len(frontier) > 0 {
			next = next[:0]
			for _, u := range frontier {
				nbrs = nbrs[:0]
				for _, e := range g.OutEdges(u) {
					if !visited[e.To] {
						visited[e.To] = true
						nbrs = append(nbrs, e.To)
					}
				}
				for _, w := range rev[u] {
					if !visited[w] {
						visited[w] = true
						nbrs = append(nbrs, w)
					}
				}
				sort.Slice(nbrs, func(i, j int) bool {
					if deg[nbrs[i]] != deg[nbrs[j]] {
						return deg[nbrs[i]] < deg[nbrs[j]]
					}
					return nbrs[i] < nbrs[j]
				})
				order = append(order, nbrs...)
				next = append(next, nbrs...)
			}
			frontier, next = next, frontier
		}
	}
	return order
}

// OwnedDistances returns, for every node of g, its undirected hop distance
// to the nearest node of owned, or -1 beyond maxDepth hops (and for nodes
// unreachable from the owned set). It is the per-shard input of the search
// layer's frontier prune: a candidate tree rooted at r with depth d can only
// grow into an owned-centered answer rooting if dist(r, owned) + d stays
// within the half-diameter budget, so everything else is pruned without
// losing any answer the shard is responsible for.
func OwnedDistances(g *graph.Graph, owned []graph.NodeID, maxDepth int) []int32 {
	n := g.NumNodes()
	rev := reverseAdjacency(g)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	frontier := make([]graph.NodeID, 0, len(owned))
	for _, v := range owned {
		if dist[v] < 0 {
			dist[v] = 0
			frontier = append(frontier, v)
		}
	}
	var next []graph.NodeID
	for depth := int32(0); depth < int32(maxDepth) && len(frontier) > 0; depth++ {
		next = next[:0]
		for _, u := range frontier {
			for _, e := range g.OutEdges(u) {
				if dist[e.To] < 0 {
					dist[e.To] = depth + 1
					next = append(next, e.To)
				}
			}
			for _, w := range rev[u] {
				if dist[w] < 0 {
					dist[w] = depth + 1
					next = append(next, w)
				}
			}
		}
		frontier, next = next, frontier
	}
	return dist
}

// DuplicationFactor reports the halo cost of the plan over its graph: the
// sum of every part's stored edge count (the member-induced set minus the
// rim edges Project drops) divided by the whole graph's edge count. 1.0
// means no duplication at all; a raw-ID range split on the small-world
// synthetics sits near the shard count itself — every shard replicates
// almost the whole corpus — which is what the locality order and the rim
// trim exist to shrink. The factor is deterministic in (graph, plan), so CI
// gates on it.
func (plan *Plan) DuplicationFactor(g *graph.Graph) float64 {
	total := g.NumEdges()
	if total == 0 {
		return 0
	}
	rim := int32(plan.Radius)
	dup := 0
	for i := range plan.Parts {
		p := &plan.Parts[i]
		dist := OwnedDistances(g, p.Owned, plan.Radius)
		for v := 0; v < g.NumNodes(); v++ {
			if !p.Member[v] {
				continue
			}
			for _, e := range g.OutEdges(graph.NodeID(v)) {
				if p.Member[e.To] && (dist[v] < rim || dist[e.To] < rim) {
					dup++
				}
			}
		}
	}
	return float64(dup) / float64(total)
}
