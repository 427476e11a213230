// Package pathindex implements the offline indexes of §V that sharpen the
// branch-and-bound upper bounds: the shortest distance DS(v_i, v_j) between
// nodes, and the minimal message loss LS(v_i, v_j) — here expressed as the
// maximal retention factor a message can keep traveling between the nodes.
//
// Two implementations are provided, mirroring the paper:
//
//   - NaiveIndex (§V-A) stores both statistics for every node pair. Its
//     O(|V|²) space limits it to small graphs; it exists as the reference
//     the star index is validated against.
//   - StarIndex (§V-B) stores the statistics only between star nodes (the
//     nodes of the star tables, which form a table-level vertex cover of
//     the schema). Lookups involving non-star nodes expand through their
//     star neighbours (cases 2 and 3 of §V-B); because every edge touches a
//     star table, every path from a non-star node passes through one of its
//     (all-star) neighbours, so the expansion yields sound bounds.
//
// Both indexes are depth-bounded: distances are computed up to MaxDepth
// hops, beyond which "≥ MaxDepth+1" is returned — still a valid lower
// bound, which is all pruning needs. Retention bounds count only dampening
// at intermediate nodes; the tree-dependent split fractions are bounded by
// one, so the product of dampening rates is a sound upper bound on any
// in-tree delivery factor.
package pathindex

import (
	"context"
	"fmt"

	"cirank/internal/graph"
)

// Index answers distance and retention queries with one-sided guarantees.
// Implementations must be safe for concurrent lookups: concurrent queries
// share one index and read it from many goroutines.
// Both in-package implementations are immutable after build and trivially
// satisfy this.
type Index interface {
	// DistanceLB returns a lower bound on the hop distance from u to v.
	// Every edge has its reverse (package graph), so the bound holds in
	// both directions.
	DistanceLB(u, v graph.NodeID) int
	// RetentionUB returns an upper bound on the product of dampening
	// factors over intermediate nodes of any u→v path (1 for adjacent or
	// identical nodes).
	RetentionUB(u, v graph.NodeID) float64
}

// maxUint8Depth is the largest representable depth; distances are stored in
// a byte to keep the all-pairs tables compact.
const maxUint8Depth = 250

// NaiveIndex holds DS and LS for all node pairs (§V-A).
type NaiveIndex struct {
	n        int
	maxDepth int
	dist     []uint8   // n×n, row-major; maxDepth+1 encodes "further"
	ret      []float64 // n×n retention upper bounds
}

// BuildNaive builds the all-pairs index up to maxDepth hops. Space is
// O(|V|²); intended for small graphs (the paper itself abandons this scheme
// for moderate sizes, which is the point of the star index). The build fans
// out across one worker per CPU; use BuildNaiveContext to pick the fan-out
// or to make the build cancellable.
func BuildNaive(g *graph.Graph, damp []float64, maxDepth int) (*NaiveIndex, error) {
	return BuildNaiveContext(context.Background(), g, damp, maxDepth, 0)
}

// BuildNaiveContext is BuildNaive with explicit cancellation and fan-out.
// As for cirank.Config.Workers, 0 workers means one per available CPU and 1
// forces the sequential build. The produced index is byte-identical for
// every worker count (each source's row is an independent
// deterministic traversal; workers only partition the sources). A cancelled
// ctx aborts the build at the next chunk boundary with an error wrapping
// ctx.Err().
func BuildNaiveContext(ctx context.Context, g *graph.Graph, damp []float64, maxDepth, workers int) (*NaiveIndex, error) {
	if maxDepth < 1 || maxDepth > maxUint8Depth {
		return nil, fmt.Errorf("pathindex: maxDepth %d outside [1, %d]", maxDepth, maxUint8Depth)
	}
	if len(damp) != g.NumNodes() {
		return nil, fmt.Errorf("pathindex: damp has %d entries for %d nodes", len(damp), g.NumNodes())
	}
	n := g.NumNodes()
	ix := &NaiveIndex{
		n:        n,
		maxDepth: maxDepth,
		dist:     make([]uint8, n*n),
		ret:      make([]float64, n*n),
	}
	// Default: unknown ⇒ distance lower bound maxDepth+1, retention upper
	// bound the best possible for an undiscovered (> maxDepth hop) path.
	far := farRetention(damp, maxDepth)
	for i := range ix.dist {
		ix.dist[i] = uint8(maxDepth + 1)
		ix.ret[i] = far
	}
	err := forEachSource(ctx, g, damp, maxDepth, workers, n,
		func(i int) graph.NodeID { return graph.NodeID(i) },
		func(s *bfsScratch, src graph.NodeID) {
			row := int(src) * n
			for _, v := range s.touched {
				ix.dist[row+int(v)] = uint8(s.dist[v])
				ix.ret[row+int(v)] = s.ret[v]
			}
		})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// farRetention bounds the retention of any path longer than maxDepth hops:
// such a path has at least maxDepth intermediate nodes, each costing at most
// the maximal dampening rate in the graph.
func farRetention(damp []float64, maxDepth int) float64 {
	maxD := 0.0
	for _, d := range damp {
		if d > maxD {
			maxD = d
		}
	}
	out := 1.0
	for i := 0; i < maxDepth; i++ {
		out *= maxD
	}
	return out
}

// DistanceLB implements Index.
func (ix *NaiveIndex) DistanceLB(u, v graph.NodeID) int {
	return int(ix.dist[int(u)*ix.n+int(v)])
}

// RetentionUB implements Index.
func (ix *NaiveIndex) RetentionUB(u, v graph.NodeID) float64 {
	return ix.ret[int(u)*ix.n+int(v)]
}

// MaxDepth reports the index's horizon: distances at or beyond
// MaxDepth()+1 are lower bounds, not exact values.
func (ix *NaiveIndex) MaxDepth() int { return ix.maxDepth }

// MemStats reports the table footprint: n² entries of one distance byte and
// one retention float each.
func (ix *NaiveIndex) MemStats() MemStats {
	return MemStats{
		Entries: ix.n * ix.n,
		Bytes:   int64(len(ix.dist)) + 8*int64(len(ix.ret)),
	}
}
