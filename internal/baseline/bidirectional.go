package baseline

import (
	"container/heap"
	"fmt"
	"sort"

	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/textindex"
)

// Bidirectional implements the bidirectional expanding search of Kacholia
// et al. (VLDB 2005), the second graph-based system the CI-Rank paper
// discusses (§I, §II-B.2). It improves on BANKS's backward expansion by
// prioritizing with spreading activation: each keyword's node set seeds
// activation that decays as it spreads through the graph (split by degree),
// and the frontier is explored in descending activation order rather than
// pure distance order, so expansion races through important, well-connected
// regions first.
//
// The scoring of discovered trees is the same root-and-leaf prestige model
// as BANKS — which is exactly the limitation the CI-Rank paper critiques:
// choosing a different free intermediate node does not change the score.
type Bidirectional struct {
	// G is the data graph the scorer reads structure from.
	G *graph.Graph
	// Ix locates keyword matches and term statistics.
	Ix *textindex.Index
	// Scorer ranks discovered trees (defaults to NewBanks(G, Ix)).
	Scorer Scorer
	// Decay is the activation attenuation per hop (Kacholia et al. use
	// μ ≈ 0.3–0.8; default 0.5).
	Decay float64
	// MaxVisits caps total node expansions (default 100000).
	MaxVisits int
}

// NewBidirectional builds the searcher with default settings.
func NewBidirectional(g *graph.Graph, ix *textindex.Index) *Bidirectional {
	return &Bidirectional{G: g, Ix: ix, Scorer: NewBanks(g, ix), Decay: 0.5, MaxVisits: 100000}
}

// activationItem is a frontier entry prioritized by activation (max-heap).
type activationItem struct {
	node       graph.NodeID
	activation float64
	kw         int
	hops       int
}

type activationQueue []activationItem

func (q activationQueue) Len() int            { return len(q) }
func (q activationQueue) Less(i, j int) bool  { return q[i].activation > q[j].activation }
func (q activationQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *activationQueue) Push(x interface{}) { *q = append(*q, x.(activationItem)) }
func (q *activationQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// TopK runs the bidirectional search and returns up to k answers, best
// first. maxDepth bounds each expansion's path length.
func (bd *Bidirectional) TopK(terms []string, k, maxDepth int) ([]Ranked, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: k must be positive, got %d", k)
	}
	terms = dedupeTerms(terms)
	if len(terms) == 0 {
		return nil, fmt.Errorf("baseline: empty query")
	}
	decay := bd.Decay
	if decay <= 0 || decay >= 1 {
		decay = 0.5
	}
	nkw := len(terms)
	origins := make([][]graph.NodeID, nkw)
	for i, t := range terms {
		origins[i] = bd.Ix.MatchingNodes(t)
		if len(origins[i]) == 0 {
			return nil, nil
		}
	}
	// Per-keyword best activation, predecessor toward the origin set, and
	// settled markers.
	act := make([]map[graph.NodeID]float64, nkw)
	pred := make([]map[graph.NodeID]graph.NodeID, nkw)
	done := make([]map[graph.NodeID]bool, nkw)
	pq := &activationQueue{}
	for i := range terms {
		act[i] = make(map[graph.NodeID]float64)
		pred[i] = make(map[graph.NodeID]graph.NodeID)
		done[i] = make(map[graph.NodeID]bool)
		// Seed activation is split across the keyword's node set, like
		// the original's 1/|S_i| normalization.
		seed := 1.0 / float64(len(origins[i]))
		for _, v := range origins[i] {
			act[i][v] = seed
			heap.Push(pq, activationItem{node: v, activation: seed, kw: i})
		}
	}
	scorer := bd.Scorer
	if scorer == nil {
		scorer = NewBanks(bd.G, bd.Ix)
	}
	maxVisits := bd.MaxVisits
	if maxVisits <= 0 {
		maxVisits = 100000
	}
	hops := make([]map[graph.NodeID]int, nkw)
	for i := range hops {
		hops[i] = make(map[graph.NodeID]int)
	}
	seen := make(map[string]bool)
	var results []Ranked
	visits := 0
	for pq.Len() > 0 && visits < maxVisits {
		it := heap.Pop(pq).(activationItem)
		if done[it.kw][it.node] {
			continue
		}
		done[it.kw][it.node] = true
		visits++
		meeting := true
		for i := 0; i < nkw; i++ {
			if !done[i][it.node] {
				meeting = false
				break
			}
		}
		if meeting {
			if tree := assembleFromPreds(it.node, pred, nkw); tree != nil {
				key := tree.CanonicalKey()
				if !seen[key] {
					seen[key] = true
					results = append(results, Ranked{Tree: tree, Score: scorer.Score(tree, terms)})
				}
			}
		}
		if it.hops >= maxDepth {
			continue
		}
		// Spread activation to the graph neighbours: attenuated by the
		// decay factor and split proportionally to the incoming edge
		// weights (our weights grow with strength, so stronger edges carry
		// more activation — the inverse of BANKS's edge costs).
		total := 0.0
		type nb struct {
			v graph.NodeID
			w float64
		}
		var nbs []nb
		for _, e := range bd.G.OutEdges(it.node) {
			w, _ := bd.G.Weight(e.To, it.node)
			nbs = append(nbs, nb{v: e.To, w: w})
			total += w
		}
		for _, n := range nbs {
			if done[it.kw][n.v] {
				continue
			}
			a := it.activation * decay * n.w / total
			if a > act[it.kw][n.v] {
				act[it.kw][n.v] = a
				pred[it.kw][n.v] = it.node
				hops[it.kw][n.v] = it.hops + 1
				heap.Push(pq, activationItem{node: n.v, activation: a, kw: it.kw, hops: it.hops + 1})
			}
		}
	}
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return keyHash(results[i].Tree.CanonicalKey()) < keyHash(results[j].Tree.CanonicalKey())
	})
	if len(results) > k {
		results = results[:k]
	}
	return results, nil
}

// assembleFromPreds roots an answer at the meeting node, walking each
// keyword's predecessor chain back to its origin set.
func assembleFromPreds(root graph.NodeID, pred []map[graph.NodeID]graph.NodeID, nkw int) *jtt.Tree {
	tree := jtt.NewSingle(root)
	for i := 0; i < nkw; i++ {
		cur := root
		for {
			next, ok := pred[i][cur]
			if !ok {
				break
			}
			if !tree.Contains(next) {
				nt, err := tree.Attach(next, cur)
				if err != nil {
					return nil
				}
				tree = nt
			}
			cur = next
		}
	}
	return tree
}
