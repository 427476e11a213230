package search

import (
	"fmt"

	"cirank/internal/graph"
	"cirank/internal/jtt"
)

// ExhaustiveTopK enumerates every subtree of the data graph with at most
// maxNodes nodes, filters for valid answers (complete, reduced, within the
// diameter limit), scores them all and returns the top k.
//
// The enumeration is exponential in the graph size — it exists purely as
// the ground-truth oracle that the tests use to certify the branch-and-bound
// optimality guarantee (Theorem 1) on small random graphs, and as a
// debugging aid. It refuses graphs with more than 64 nodes.
func (s *Searcher) ExhaustiveTopK(terms []string, opts Options, maxNodes int) ([]Answer, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if s.m.Graph().NumNodes() > 64 {
		return nil, fmt.Errorf("search: ExhaustiveTopK limited to 64 nodes, graph has %d", s.m.Graph().NumNodes())
	}
	qc, ok, err := s.prepare(terms)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	top := newTopK(opts.K)
	g := s.m.Graph()
	seen := make(map[string]bool)
	var queue []*jtt.Tree
	push := func(t *jtt.Tree) {
		key := t.CanonicalKey()
		if seen[key] {
			return
		}
		seen[key] = true
		queue = append(queue, t)
		if qc.validAnswer(t, opts.Diameter) {
			top.add(t, s.m.ScoreTree(t, qc.sourcesIn(t), qc.terms))
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		push(jtt.NewSingle(graph.NodeID(v)))
	}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		if t.Size() >= maxNodes {
			continue
		}
		for _, u := range t.Nodes() {
			for _, e := range g.OutEdges(u) {
				if t.Contains(e.To) {
					continue
				}
				nt, err := t.Attach(e.To, u)
				if err != nil {
					continue
				}
				push(nt)
			}
		}
	}
	return top.results(), nil
}
