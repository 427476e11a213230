package graph

// BFSTree records, for each node reached, the hop distance from the source
// and the set of predecessors on shortest paths. The naive search algorithm
// (§IV-A) needs all shortest-path predecessors because different connecting
// paths yield different answer trees.
type BFSTree struct {
	// Source is the node the traversal started from.
	Source NodeID
	// Dist maps each reached node to its hop distance from Source.
	Dist map[NodeID]int
	// Preds[v] lists the neighbours u of v with Dist[u] = Dist[v]-1 and an
	// edge u → v, i.e. the nodes visited right before v on some shortest
	// path from Source.
	Preds map[NodeID][]NodeID
}

// BFSAllShortestPaths runs a breadth-first search from start to maxDepth and
// returns the shortest-path DAG.
func (g *Graph) BFSAllShortestPaths(start NodeID, maxDepth int) *BFSTree {
	t := &BFSTree{
		Source: start,
		Dist:   map[NodeID]int{start: 0},
		Preds:  make(map[NodeID][]NodeID),
	}
	frontier := []NodeID{start}
	for depth := 0; depth < maxDepth && len(frontier) > 0; depth++ {
		var next []NodeID
		for _, u := range frontier {
			for _, e := range g.OutEdges(u) {
				d, seen := t.Dist[e.To]
				switch {
				case !seen:
					t.Dist[e.To] = depth + 1
					t.Preds[e.To] = []NodeID{u}
					next = append(next, e.To)
				case d == depth+1:
					t.Preds[e.To] = append(t.Preds[e.To], u)
				}
			}
		}
		frontier = next
	}
	return t
}
