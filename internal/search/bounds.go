package search

import (
	"math"
	"math/bits"

	"cirank/internal/graph"
)

// This file implements the upper-bound machinery of §IV-B. A candidate tree
// C(v_root) can only be extended through its root (the grow/merge
// invariant), so every bound reasons about message flows crossing the root.
//
// The bound is ub(C) = max over two families of per-node score bounds:
//
//   - for each non-free node v already in C, an upper bound on score(v) in
//     any completed tree T ⊇ C (the paper's complete estimate, ce);
//   - for any non-free node outside C that a completion might add, an upper
//     bound on its score (the potential estimate, pe): all of its incoming
//     messages from C's sources must cross the root.
//
// Because Eq. 4 averages node scores, score(T) = avg ≤ max over these
// per-node bounds, which is Lemma 1 in a form that is provably sound for
// our exact message-passing semantics (the tests certify optimality against
// exhaustive enumeration).
//
// The path index tightens the supplement bounds in two ways, exactly the
// §V motivation: distance lower bounds discard supplement nodes that cannot
// attach within the diameter limit (killing the paper's "noisy node"
// problem), and retention upper bounds scale a supplement's generation by
// the best dampening product any connecting path could keep.

// supplyScanCap bounds the per-term scan when evaluating index-assisted
// supplement bounds; past the cap the remaining nodes (sorted by descending
// generation) are bounded by their generation alone, keeping the bound
// sound at O(1) extra cost.
const supplyScanCap = 256

// upperBound computes ub(C) = max(ce, pe). A return of 0 means the
// candidate can never become a valid answer (some keyword has no feasible
// supplement) and must be pruned. bs is the calling worker's own scratch;
// the two float buffers below live in it instead of on the heap.
func (st *bbState) upperBound(c *candidate, bs *boundScratch) float64 {
	qc := st.qc
	flow, slots, gens := &bs.flow, bs.slots, bs.gens
	root := flow.Root()
	missing := qc.full &^ c.cover
	lone := missing == 0 && len(slots) == 1

	// The supplement bounds below are asked for each missing term, or for
	// every term when a lone source looks for its best addable node; the
	// root's neighbour summary serves them all.
	want := missing
	if lone {
		want = qc.full
	}
	if want != 0 {
		st.rootNeighbors(c, want, bs)
	}

	// Best possible delivery, at the root, from a supplement covering each
	// missing term.
	supplies := bs.supplies[:0]
	for ti := range qc.terms {
		if missing&(uint64(1)<<ti) == 0 {
			continue
		}
		best := st.bestSupply(ti, c, bs)
		if best <= 0 {
			return 0 // no feasible node can cover this keyword
		}
		supplies = append(supplies, best)
	}
	bs.supplies = supplies

	if cap(bs.flowAtRoot) < len(slots) {
		bs.flowAtRoot = make([]float64, len(slots))
	}
	flowAtRoot := bs.flowAtRoot[:len(slots)]
	for i, src := range slots {
		flowAtRoot[i] = flow.Delivered(gens[i], src, root)
	}
	dampRoot := st.s.m.Damp(c.tree.Root())

	// pe: bound on the score of any node added outside C. Its messages
	// from C's sources cross the root (dampened there unless the root is
	// the source itself), then attenuate by at most 1.
	ubNew := math.Inf(1)
	for i, src := range slots {
		f := flowAtRoot[i]
		if src != root {
			f *= dampRoot
		}
		if f < ubNew {
			ubNew = f
		}
	}

	// Per-source score bounds (the complete-estimate side).
	flowSum := 0.0
	switch {
	case lone:
		// A lone source scores its own generation under Eq. 3's singleton
		// rule, but a completion that adds a second source switches it to
		// the min-inflow regime, which can EXCEED the generation when the
		// newcomer generates more. Bound that regime by the best addable
		// node's messages delivered through the root; the generation stays
		// as the bound for completions that add no source. (Pruning on the
		// generation alone loses optimal branching answers: the pruned
		// candidate can be the merge partner a high-generation route needs.)
		v := slots[0]
		bound := gens[0]
		bestAdd := 0.0
		for ti := range qc.terms {
			if sup := st.bestSupply(ti, c, bs); sup > bestAdd {
				bestAdd = sup
			}
		}
		if bestAdd > 0 {
			factor := flow.Factor(root, v)
			if v != root {
				factor *= dampRoot
			}
			if alt := bestAdd * factor; alt > bound {
				bound = alt
			}
		}
		flowSum = bound
	case missing == 0:
		// With two or more sources every node score is already a min over
		// other-source inflows; adding sources only shrinks each node's
		// min, so the current exact node scores — which fill summed for
		// Eq. 4 — are the bounds.
		flowSum = bs.scoreSum
	default:
		// Each in-tree source's score is capped by flows from existing
		// sources (exact within C) and by the best supplement flow
		// entering at the root and descending to v.
		for _, v := range slots {
			ub := math.Inf(1)
			for i, src := range slots {
				if src == v {
					continue
				}
				if f := flow.Delivered(gens[i], src, v); f < ub {
					ub = f
				}
			}
			factor := flow.Factor(root, v)
			if v != root {
				factor *= dampRoot
			}
			for _, sup := range supplies {
				if f := sup * factor; f < ub {
					ub = f
				}
			}
			flowSum += ub
		}
	}
	// Eq. 4 averages node scores, so the bound can average too: a completed
	// tree's sources are C's sources plus |A| added nodes, each of the
	// latter bounded by ubNew, giving
	//
	//	score(T) ≤ (Σ ubFlow_v + |A|·ubNew) / (|S_C| + |A|).
	//
	// The right side is monotone in |A| between |A| = aMin (at least one
	// supplement when keywords are missing) and |A| → ∞ (limit ubNew), so
	// the maximum of the two endpoints bounds every completion. This is
	// strictly tighter than bounding by the largest individual node score.
	aMin := 0.0
	if missing != 0 {
		aMin = 1
	}
	n := float64(len(slots))
	atMin := (flowSum + aMin*ubNew) / (n + aMin)
	if ubNew > atMin {
		return ubNew
	}
	return atMin
}

// bestSupply bounds the message count any node covering term ti could
// deliver to the candidate's root: max over feasible nodes v of
// generation(v) · retentionUB(v → root).
//
// With an index, nodes that cannot attach within the diameter budget are
// discarded and the indexed retention discounts the rest. Without an index
// the paper's direct-neighbour refinement applies (§IV-B): a supplement is
// either a direct neighbour of the root (scenario 1 — only actual
// neighbours' generations count) or it connects through some neighbour,
// where its messages are dampened once (scenario 2 — the global best
// generation is discounted by the best neighbour dampening rate). The
// greater of the two scenarios is the bound. bs carries the candidate's
// rootNeighbors products.
func (st *bbState) bestSupply(ti int, c *candidate, bs *boundScratch) float64 {
	nodes := st.qc.byGen[ti]
	root := c.tree.Root()
	idx := st.opts.Index
	budget := st.opts.Diameter - c.tree.Depth()
	// Exact nearest-supplement distance from the per-term BFS: if even the
	// closest node matching the term lies beyond the budget, no completion
	// exists through this root.
	dmin := st.qc.distToTerm(ti, root, st.opts.Diameter)
	if dmin > budget {
		return 0
	}
	refined := st.neighborRefinedSupply(ti, c, nodes, root, dmin, budget, bs)
	if idx == nil {
		return refined
	}
	best := 0.0
	scanned := 0
	for i, v := range nodes {
		if c.tree.Contains(v) {
			continue
		}
		g := st.qc.gen[v]
		if g <= best {
			break // sorted by descending generation; retention ≤ 1
		}
		if idx.DistanceLB(v, root) > budget {
			continue
		}
		if r := g * idx.RetentionUB(v, root); r > best {
			best = r
		}
		scanned++
		if scanned >= supplyScanCap {
			// The unscanned tail is bounded by its best generation.
			if tail := tailGen(nodes, st.qc.gen, i); tail > best {
				best = tail
			}
			break
		}
	}
	// Both estimates are valid upper bounds; the indexed search gets the
	// tighter of the two, so adding an index never weakens the bounds.
	if refined < best {
		return refined
	}
	return best
}

// rootNeighbors leaves in bs what the candidate's supplement bounds need to
// know about its root's neighbourhood:
//
//   - nbrDamp, the best dampening rate among out-of-tree root neighbours —
//     scenario 2's entry discount;
//   - adjGen[ti], for each term of want with a matcher adjacent to the root,
//     the best generation among out-of-tree neighbours matching it —
//     scenario 1 (0 for the other terms).
//
// Each is the first entry of the root's summary list that the tree does not
// contain. A tree holding every listed node of a truncated list leaves that
// list undecided, and only then are the root's out-edges scanned.
func (st *bbState) rootNeighbors(c *candidate, want uint64, bs *boundScratch) {
	qc := st.qc
	if cap(bs.adjGen) < len(qc.terms) {
		bs.adjGen = make([]float64, len(qc.terms))
	}
	adjGen := bs.adjGen[:len(qc.terms)]
	clear(adjGen)
	bs.nbrDamp = 0
	lists := st.summary(c.root)
	v, decided := lists[0].bestOutside(c.tree)
	if v != graph.InvalidNode {
		bs.nbrDamp = st.s.m.Damp(v)
	}
	for w := want; w != 0 && decided; w &= w - 1 {
		ti := bits.TrailingZeros64(w)
		if v, decided = lists[1+ti].bestOutside(c.tree); v != graph.InvalidNode {
			adjGen[ti] = qc.gen[v]
		}
	}
	if !decided {
		st.scanRootNeighbors(c, want, bs)
	}
}

// scanRootNeighbors computes rootNeighbors' products by a full pass over the
// root's out-edges: the fallback for a candidate that exhausts a truncated
// summary list, and the definition the summary is tested against. The
// dampening rate is tested first and the tree consulted only for a
// neighbour that would raise a maximum.
func (st *bbState) scanRootNeighbors(c *candidate, want uint64, bs *boundScratch) {
	m := st.s.m
	qc := st.qc
	root := c.tree.Root()
	adjGen := bs.adjGen[:len(qc.terms)]
	var adjacent uint64
	for ti := range qc.terms {
		adjGen[ti] = 0
		if want&(uint64(1)<<ti) != 0 && qc.distToTerm(ti, root, st.opts.Diameter) <= 1 {
			adjacent |= uint64(1) << ti
		}
	}
	nbrDamp := 0.0
	for _, e := range m.Graph().OutEdges(root) {
		v := e.To
		d := m.Damp(v)
		var match uint64
		if adjacent != 0 {
			match = qc.masks[v] & adjacent
		}
		if (d <= nbrDamp && match == 0) || c.tree.Contains(v) {
			continue
		}
		if d > nbrDamp {
			nbrDamp = d
		}
		if match != 0 {
			g := qc.gen[v]
			for ti := range adjGen {
				if match&(uint64(1)<<ti) != 0 && g > adjGen[ti] {
					adjGen[ti] = g
				}
			}
		}
	}
	bs.nbrDamp = nbrDamp
}

// neighborRefinedSupply is the index-free supplement bound with the
// direct-neighbour refinement. dmin is the exact distance from the root to
// the nearest node matching the term, budget the diameter left after the
// candidate's depth.
func (st *bbState) neighborRefinedSupply(ti int, c *candidate, nodes []graph.NodeID, root graph.NodeID, dmin, budget int, bs *boundScratch) float64 {
	// Scenario 2: a non-adjacent supplement enters through some
	// out-of-tree root neighbour n, crossing at least max(dmin, 2) hops and
	// therefore at least max(dmin, 2) − 1 dampening intermediates, the
	// first of which is n itself.
	nbrDamp := bs.nbrDamp
	best := 0.0
	// Heavy hitters with exact distances (absent when dynamic bounds are
	// disabled — the pooled context then carries an empty topSup, so guard
	// by length, not nilness).
	var topSup []supplierInfo
	if ti < len(st.qc.topSup) {
		topSup = st.qc.topSup[ti]
	}
	for _, sup := range topSup {
		if c.tree.Contains(sup.node) {
			continue
		}
		d := int(sup.dist[root])
		if d < 0 || d > budget {
			continue // unreachable within the diameter budget
		}
		if cand := sup.gen * retention(nbrDamp, st.qc.maxDamp, d); cand > best {
			best = cand
		}
	}
	// Tail: the best generation outside the heavy hitters, discounted by
	// the nearest-matcher distance (a lower bound for every supplement).
	for _, v := range nodes {
		if c.tree.Contains(v) || supListed(topSup, v) {
			continue
		}
		if cand := st.qc.gen[v] * retention(nbrDamp, st.qc.maxDamp, dmin); cand > best {
			best = cand
		}
		break // byGen is sorted descending
	}
	// Scenario 1: the supplement is itself a direct neighbour of the root
	// (no intermediate, no dampening). adjGen is 0 unless dmin ≤ 1.
	if g := bs.adjGen[ti]; g > best {
		best = g
	}
	return best
}

// retention bounds what a supplement d hops away retains: no intermediate
// for an adjacent one, otherwise the entry neighbour (nbrDamp) plus d−2
// further intermediates, each at most maxDamp. A plain function rather than
// a closure — it runs once per heavy hitter on the hottest bound path.
func retention(nbrDamp, maxDamp float64, d int) float64 {
	if d <= 1 {
		return 1
	}
	r := nbrDamp
	for i := 2; i < d; i++ {
		r *= maxDamp
	}
	return r
}

// supListed reports whether v is one of the heavy hitters; the list holds at
// most topSuppliersPerTerm entries, so the scan beats a map.
func supListed(topSup []supplierInfo, v graph.NodeID) bool {
	for i := range topSup {
		if topSup[i].node == v {
			return true
		}
	}
	return false
}

// tailGen returns the highest generation strictly after position i of the
// descending-generation list (0 if i is last).
func tailGen(nodes []graph.NodeID, gen []float64, i int) float64 {
	if i+1 < len(nodes) {
		return gen[nodes[i+1]]
	}
	return 0
}
