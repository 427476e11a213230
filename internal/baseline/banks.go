package baseline

import (
	"math"

	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/textindex"
)

// Banks implements the graph-based scoring of Bhalotia et al. (BANKS), as
// characterized in §II-B.2 of the CI-Rank paper:
//
//   - the node score is the average prestige of the root node and the leaf
//     nodes (intermediate free nodes are invisible — the flaw the paper's
//     Fig. 3 example exposes);
//   - the edge score is 1/(1 + Σ_e cost(e)) over the tree's edges;
//   - the overall score combines both, here multiplicatively with the
//     node-score weight λ (BANKS uses a tunable λ; 0.2 is its default).
//
// Node prestige follows BANKS: proportional to log(1 + in-degree), here the
// weighted in-degree, normalized to [0, 1] over the graph. Edge costs are
// the reciprocal of our edge weights (our weights grow with connection
// strength; BANKS costs shrink).
//
// BANKS's backward expanding search roots its answer trees at an
// "information node" reached from the keyword nodes — in the paper's Fig. 3
// example the actor "Orlando Bloom", with the connecting movie left as an
// invisible intermediate. To reproduce that behaviour on candidate trees
// enumerated by other means, Score re-roots each tree at its
// highest-prestige keyword-matching node before scoring (falling back to
// the given rooting when the index is absent or nothing matches).
type Banks struct {
	// G is the data graph the scorer reads structure from.
	G *graph.Graph
	// Ix, when set, lets Score identify keyword-matching nodes for the
	// BANKS-style re-rooting.
	Ix *textindex.Index
	// Lambda is the node-score exponent.
	Lambda float64

	prestige []float64
}

// NewBanks builds the scorer, precomputing node prestige. ix may be nil, in
// which case trees are scored under their given rooting.
func NewBanks(g *graph.Graph, ix *textindex.Index) *Banks {
	b := &Banks{G: g, Ix: ix, Lambda: 0.2, prestige: make([]float64, g.NumNodes())}
	maxP := 0.0
	inWeight := make([]float64, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.OutEdges(graph.NodeID(v)) {
			inWeight[e.To] += e.Weight
		}
	}
	for v := range b.prestige {
		p := math.Log1p(inWeight[v])
		b.prestige[v] = p
		if p > maxP {
			maxP = p
		}
	}
	if maxP > 0 {
		for v := range b.prestige {
			b.prestige[v] /= maxP
		}
	}
	return b
}

// Name implements Scorer.
func (b *Banks) Name() string { return "BANKS" }

// Score implements Scorer. Beyond selecting the root, terms do not
// influence the score: BANKS sees only tree structure and node prestige,
// which is precisely the behaviour the CI-Rank paper critiques.
func (b *Banks) Score(t *jtt.Tree, terms []string) float64 {
	t = b.reroot(t, terms)
	// Node score: average prestige of root and leaves.
	nodes := append([]graph.NodeID{t.Root()}, t.Leaves()...)
	seen := make(map[graph.NodeID]bool, len(nodes))
	nscore, count := 0.0, 0
	for _, v := range nodes {
		if seen[v] {
			continue
		}
		seen[v] = true
		nscore += b.prestige[v]
		count++
	}
	nscore /= float64(count)

	// Edge score: 1 / (1 + Σ cost), cost = 1/weight in the stored
	// direction child→parent (BANKS trees point leaf-to-root).
	costSum := 0.0
	for _, e := range t.Edges() {
		w, ok := b.G.Weight(e.Child, e.Parent)
		if !ok {
			w = 1e-9 // a tree that claims a non-edge
		}
		costSum += 1 / w
	}
	escore := 1 / (1 + costSum)
	return escore * math.Pow(nscore, b.Lambda)
}

// reroot moves the root to the highest-prestige keyword node, imitating the
// rooting BANKS's backward expansion produces.
func (b *Banks) reroot(t *jtt.Tree, terms []string) *jtt.Tree {
	if b.Ix == nil || len(terms) == 0 {
		return t
	}
	var best graph.NodeID = -1
	bestP := -1.0
	for _, v := range t.Nodes() {
		matched := false
		for _, k := range dedupeTerms(terms) {
			if b.Ix.TF(v, k) > 0 {
				matched = true
				break
			}
		}
		if matched && b.prestige[v] > bestP {
			best, bestP = v, b.prestige[v]
		}
	}
	if best < 0 {
		return t
	}
	return t.Reroot(best)
}
