package baseline

import (
	"container/heap"
	"fmt"
	"sort"

	"cirank/internal/graph"
	"cirank/internal/textindex"
)

// BanksSearch implements BANKS's backward expanding search (Bhalotia et
// al., ICDE 2002), the answer-generation algorithm behind the BANKS
// baseline. One single-source-shortest-path expansion runs backward from
// each keyword's node set; a node reached by every expansion is a
// connection point, rooting an answer tree whose branches are the shortest
// backward paths to each keyword set. Answers are scored with the Banks
// scorer and returned best-first.
//
// It exists both as the faithful reproduction of the compared system and as
// an independent answer generator for cross-checking the main search: every
// tree it emits must validate as a reduced answer.
type BanksSearch struct {
	// G is the data graph the scorer reads structure from.
	G *graph.Graph
	// Ix locates keyword matches and term statistics.
	Ix *textindex.Index
	// Scorer ranks the discovered trees (defaults to NewBanks(G, Ix)).
	Scorer Scorer
	// MaxVisits caps the total number of node expansions across all
	// iterators (default 100000).
	MaxVisits int
}

// NewBanksSearch builds the searcher with default settings.
func NewBanksSearch(g *graph.Graph, ix *textindex.Index) *BanksSearch {
	return &BanksSearch{G: g, Ix: ix, Scorer: NewBanks(g, ix), MaxVisits: 100000}
}

// expandItem is a priority-queue entry of one backward expansion.
type expandItem struct {
	node graph.NodeID
	cost float64
	kw   int // which keyword's expansion this belongs to
}

type expandQueue []expandItem

func (q expandQueue) Len() int            { return len(q) }
func (q expandQueue) Less(i, j int) bool  { return q[i].cost < q[j].cost }
func (q expandQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *expandQueue) Push(x interface{}) { *q = append(*q, x.(expandItem)) }
func (q *expandQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// TopK runs the backward expanding search and returns up to k answers,
// best first. maxDepth bounds each backward path length (the analogue of
// the diameter limit; BANKS itself expands until its heap empties).
func (bs *BanksSearch) TopK(terms []string, k, maxDepth int) ([]Ranked, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: k must be positive, got %d", k)
	}
	terms = dedupeTerms(terms)
	if len(terms) == 0 {
		return nil, fmt.Errorf("baseline: empty query")
	}
	nkw := len(terms)
	origins := make([][]graph.NodeID, nkw)
	for i, t := range terms {
		origins[i] = bs.Ix.MatchingNodes(t)
		if len(origins[i]) == 0 {
			return nil, nil // AND semantics
		}
	}
	// dist[kw][node] and pred[kw][node] record each expansion's shortest
	// backward path tree.
	dist := make([]map[graph.NodeID]float64, nkw)
	hops := make([]map[graph.NodeID]int, nkw)
	pred := make([]map[graph.NodeID]graph.NodeID, nkw)
	done := make([]map[graph.NodeID]bool, nkw)
	pq := &expandQueue{}
	for i := range terms {
		dist[i] = make(map[graph.NodeID]float64)
		hops[i] = make(map[graph.NodeID]int)
		pred[i] = make(map[graph.NodeID]graph.NodeID)
		done[i] = make(map[graph.NodeID]bool)
		for _, v := range origins[i] {
			dist[i][v] = 0
			hops[i][v] = 0
			heap.Push(pq, expandItem{node: v, cost: 0, kw: i})
		}
	}
	maxVisits := bs.MaxVisits
	if maxVisits <= 0 {
		maxVisits = 100000
	}
	scorer := bs.Scorer
	if scorer == nil {
		scorer = NewBanks(bs.G, bs.Ix)
	}
	seen := make(map[string]bool)
	var results []Ranked
	visits := 0
	for pq.Len() > 0 && visits < maxVisits {
		it := heap.Pop(pq).(expandItem)
		if done[it.kw][it.node] {
			continue
		}
		done[it.kw][it.node] = true
		visits++
		// Connection check: the node is a meeting point once every
		// expansion has settled it.
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
		// Backward expansion: walk edges v → it.node, i.e. predecessors of
		// the current node. Every edge has its reverse (package graph), so
		// the predecessors of n are exactly the targets of n's out-edges,
		// with the traversal cost taken from the v → n direction.
		if hops[it.kw][it.node] >= maxDepth {
			continue
		}
		for _, e := range bs.G.OutEdges(it.node) {
			v := e.To
			w, _ := bs.G.Weight(v, it.node)
			cost := it.cost + 1/w
			if old, known := dist[it.kw][v]; !known || cost < old {
				if done[it.kw][v] {
					continue
				}
				dist[it.kw][v] = cost
				hops[it.kw][v] = hops[it.kw][it.node] + 1
				pred[it.kw][v] = it.node
				heap.Push(pq, expandItem{node: v, cost: cost, kw: it.kw})
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
