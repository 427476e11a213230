package search

import (
	"math"

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
// The supplement bounds rest on §V's two observations — a supplement that
// cannot attach within the diameter limit does not count (the paper's "noisy
// node" problem), and one that can loses messages at every node on its way —
// computed exactly, per query, by the supply fields of field.go. A path index
// passed in Options.Index answers the same two questions from its
// precomputed DS/LS tables, and is the only source of them when dynamic
// bounds are off.

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

	// Best possible delivery, at the root, from a supplement covering each
	// missing term.
	supplies := bs.supplies[:0]
	for ti := range qc.terms {
		if missing&(uint64(1)<<ti) == 0 {
			continue
		}
		best := st.bestSupply(ti, c)
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
		//
		// The supply fields cannot leave the lone source s out of its own
		// supply, and need not: what s carries back through any neighbour
		// is at most gen(s), so its share of alt below is at most gens[0] —
		// the floor bound already stands on.
		v := slots[0]
		bound := gens[0]
		bestAdd := 0.0
		for ti := range qc.terms {
			if sup := st.bestSupply(ti, c); sup > bestAdd {
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
// deliver to the candidate's root, 0 when none can attach.
//
// A supplement reaches the root over its last edge from some out-neighbour n
// of the root outside the tree, having crossed at most budget−1 edges to get
// to n, so the bound is the best supply-field value at that level among
// those neighbours: n's own generation when n is the supplement, otherwise
// what the best matcher in range retains after every node up to and
// including n has dampened it. The root's supply list answers from its top
// few neighbours; a tree that swallowed all of them falls back to the
// out-edges. Without dynamic bounds the estimate is the best generation of
// the term outside the tree.
//
// With an index, the feasible nodes are also scanned by descending
// generation — those the index places beyond the budget discarded, the rest
// discounted by the indexed retention — and the lower estimate wins, so
// passing an index never weakens a bound.
func (st *bbState) bestSupply(ti int, c *candidate) float64 {
	qc := st.qc
	nodes := qc.byGen[ti]
	best := 0.0
	if lv, ok := st.supplyLevel(c.tree.Depth()); ok {
		if n, decided := st.supplyList(c.root, lv, ti).bestOutside(c.tree); !decided {
			best = st.scanSupply(ti, lv, c.tree)
		} else if n != graph.InvalidNode {
			best = st.sc.fields[ti].row(n)[lv]
		}
	} else if st.opts.NoDynamicBounds {
		for _, v := range nodes {
			if !c.tree.Contains(v) {
				best = qc.gen[v]
				break // byGen is sorted descending
			}
		}
	}
	idx := st.opts.Index
	if idx == nil || best <= 0 {
		return best
	}
	root := c.tree.Root()
	budget := st.opts.Diameter - c.tree.Depth()
	indexed := 0.0
	scanned := 0
	for i, v := range nodes {
		if c.tree.Contains(v) {
			continue
		}
		g := qc.gen[v]
		if g <= indexed {
			break // sorted by descending generation; retention ≤ 1
		}
		if idx.DistanceLB(v, root) > budget {
			continue
		}
		if r := g * idx.RetentionUB(v, root); r > indexed {
			indexed = r
		}
		scanned++
		if scanned >= supplyScanCap {
			// The unscanned tail is bounded by its best generation.
			if tail := tailGen(nodes, qc.gen, i); tail > indexed {
				indexed = tail
			}
			break
		}
	}
	return min(best, indexed)
}

// tailGen returns the highest generation strictly after position i of the
// descending-generation list (0 if i is last).
func tailGen(nodes []graph.NodeID, gen []float64, i int) float64 {
	if i+1 < len(nodes) {
		return gen[nodes[i+1]]
	}
	return 0
}
