package search

import (
	"cirank/internal/jtt"
)

// BoundOracle exposes the branch-and-bound upper-bound machinery of §IV-B
// for one prepared query, so that differential tests (internal/difftest) can
// certify the bound's admissibility: for every valid answer T and every
// candidate tree C from which T is reachable, ub(C) must be at least
// score(T), otherwise the search could prune an optimal answer and
// Theorem 1's guarantee would be void.
//
// The oracle performs the same per-query setup as TopKContext (term
// matching, supply fields unless disabled) once, then
// evaluates candidate trees on demand through the identical fill path the
// search itself uses. It is not safe for concurrent use.
type BoundOracle struct {
	st *bbState
}

// NewBoundOracle prepares the query exactly as TopKContext would and returns
// an oracle over its bound machinery. ok is false when some term has no
// matching node (AND semantics: the query has no answers and no bounds to
// certify).
func (s *Searcher) NewBoundOracle(terms []string, opts Options) (*BoundOracle, bool, error) {
	if err := opts.Validate(); err != nil {
		return nil, false, err
	}
	// The oracle owns an unpooled scratch for its lifetime: Evaluate reuses
	// the same bound buffers the search's fill would, so the computed bounds
	// are byte-identical, but nothing returns to the searcher's pool.
	sc := newQueryScratch()
	if _, ok, err := s.prepareInto(sc, terms); err != nil || !ok {
		return nil, false, err
	}
	return &BoundOracle{st: newBBState(s, sc, opts)}, true, nil
}

// Evaluate runs the search's candidate evaluation (fill) on tree and returns
// its upper bound, its exact Eq. 4 score, and whether the tree is a valid
// complete answer for the query. score is meaningful only when complete is
// true — fill skips scoring incomplete candidates, exactly as the search
// does.
func (o *BoundOracle) Evaluate(tree *jtt.Tree) (ub, score float64, complete bool) {
	// fill reads the supply lists, which the search builds when process
	// creates the first candidate of a (root, depth).
	c := &candidate{tree: tree, root: o.st.rootOf(tree.Root())}
	o.st.supplyLists(c.root, tree.Root(), tree.Depth())
	o.st.fill(c)
	return c.ub, c.score, c.complete
}

// UpperBound returns ub(C) for the candidate tree, byte-identical to the
// value the branch-and-bound search would compute for it.
func (o *BoundOracle) UpperBound(tree *jtt.Tree) float64 {
	ub, _, _ := o.Evaluate(tree)
	return ub
}

// GrowthDepthLimit reports the candidate depth limit ⌈D/2⌉ the search
// enforces for the oracle's diameter option; candidates deeper than this are
// never generated, so admissibility outside the limit is not required.
func (o *BoundOracle) GrowthDepthLimit() int {
	return halfDiameter(o.st.opts.Diameter)
}
