package pathindex

import (
	"cirank/internal/graph"
)

// bfsScratch holds the per-worker buffers for the bounded traversals that
// build the §V indexes. One scratch serves every source a worker processes:
// the stamp arrays make resets O(touched) instead of O(n) — beginning a new
// traversal just bumps the epoch, so entries written for previous sources
// become stale without being cleared — and the layer stamps deduplicate
// next-frontier insertions without a per-layer set allocation.
//
// The traversal itself (boundedStatsInto) is strictly sequential and
// deterministic, so fanning sources across workers cannot change any row of
// the resulting index: parallel and sequential builds are byte-identical.
type bfsScratch struct {
	// seenAt[v] == epoch marks v discovered in the current traversal,
	// making dist[v] and ret[v] valid.
	seenAt []uint32
	// queuedAt[v] == layer marks v already queued for the next frontier
	// during the current layer.
	queuedAt []uint32
	dist     []int32
	ret      []float64
	// frontier and next are the current and upcoming BFS layers; touched
	// lists every discovered node so callers can harvest results without
	// scanning all n entries.
	frontier []graph.NodeID
	next     []graph.NodeID
	touched  []graph.NodeID
	epoch    uint32
	layer    uint32
}

// newBFSScratch allocates scratch for an n-node graph.
func newBFSScratch(n int) *bfsScratch {
	return &bfsScratch{
		seenAt:   make([]uint32, n),
		queuedAt: make([]uint32, n),
		dist:     make([]int32, n),
		ret:      make([]float64, n),
	}
}

// begin starts a fresh traversal in O(1) by advancing the epoch. On the
// (rare) uint32 wrap it zeroes the stamp array so stale entries from ~4
// billion traversals ago cannot alias the new epoch.
func (s *bfsScratch) begin() {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.seenAt {
			s.seenAt[i] = 0
		}
		s.epoch = 1
	}
	s.frontier = s.frontier[:0]
	s.touched = s.touched[:0]
}

// nextLayer starts a new BFS layer and returns its dedup stamp, handling
// wrap like begin.
func (s *bfsScratch) nextLayer() uint32 {
	s.layer++
	if s.layer == 0 {
		for i := range s.queuedAt {
			s.queuedAt[i] = 0
		}
		s.layer = 1
	}
	return s.layer
}

// boundedStatsInto computes, from one source, the hop distance and maximal
// retention to every node reachable within maxDepth hops, by dynamic
// programming over hop layers — the same fixed point as the historical
// map-based implementation (kept as refBoundedStats in this package's
// tests), but allocation-free after the first traversal and with a
// deterministic frontier order (insertion order; edge lists are sorted), so
// repeated builds agree bit for bit. damp[v] is the dampening rate applied
// when a message passes through v. Results are read out of s.dist / s.ret
// for the nodes listed in s.touched, and are valid until the next begin.
func boundedStatsInto(s *bfsScratch, g *graph.Graph, src graph.NodeID, maxDepth int, damp []float64) {
	s.begin()
	s.seenAt[src] = s.epoch
	s.dist[src] = 0
	s.ret[src] = 1
	s.touched = append(s.touched, src)
	s.frontier = append(s.frontier, src)
	for depth := 0; depth < maxDepth && len(s.frontier) > 0; depth++ {
		stamp := s.nextLayer()
		s.next = s.next[:0]
		for _, u := range s.frontier {
			// Retention through u: the source itself and the final
			// destination do not dampen; every other node on the path does.
			through := s.ret[u]
			if u != src {
				through *= damp[u]
			}
			for _, e := range g.OutEdges(u) {
				v := e.To
				if s.seenAt[v] != s.epoch {
					s.seenAt[v] = s.epoch
					s.dist[v] = int32(depth + 1)
					s.ret[v] = through
					s.touched = append(s.touched, v)
					s.queuedAt[v] = stamp
					s.next = append(s.next, v)
				} else if through > s.ret[v] {
					// A better retention may arrive along a non-shortest
					// path; record it and re-expand so it propagates.
					s.ret[v] = through
					if s.queuedAt[v] != stamp {
						s.queuedAt[v] = stamp
						s.next = append(s.next, v)
					}
				}
			}
		}
		s.frontier, s.next = s.next, s.frontier
	}
}
