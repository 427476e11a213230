package search

import (
	"math"

	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/rwmp"
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

// boundView is everything the bound reads about one candidate: where it
// stands (for the supplement bounds) and its message flows, per source. There
// are two ways to fill one. fill reads a built candidate's rwmp.Flow; the
// expansion step derives the view of a child it has not built from its
// parent's (flowView.grow). upperBound cannot tell them apart, which is the
// point: the case analysis below exists once.
type boundView struct {
	// The candidate is tree, or tree grown to node when the view prices a
	// child that is not built yet. node is its root and depth its depth.
	tree  *jtt.Tree
	node  graph.NodeID
	depth int

	cover uint64
	// dampRoot is the root's dampening rate; rootSrc the position of the
	// source that is the root, −1 for a free root.
	dampRoot float64
	rootSrc  int
	// Per source, ascending by node (a grown root last): its generation
	// count, how many of its messages arrive at the root, the root → source
	// path factor, and the least any other source delivers to it (+Inf for a
	// lone source) — Eq. 3's node score when there are two or more.
	gens, atRoot, fromRoot, inflow []float64
	// hop is the first-hop factor of a node a completion adds (firstHop).
	hop float64

	// supplies holds, as supplied left them, the supplies of the missing
	// terms, or of every term when a lone source covers them all.
	supplies []float64
}

// at places the view on a built candidate.
func (v *boundView) at(tree *jtt.Tree) {
	v.tree, v.node, v.depth = tree, tree.Root(), tree.Depth()
}

// contains reports whether u is a node of the view's tree: an unbuilt
// child's view holds its parent's tree, so its new root is not among them.
func (v *boundView) contains(u graph.NodeID) bool { return v.tree.Contains(u) }

// sized returns buf with length n, reallocating only to grow.
func sized(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// size makes room for n sources.
func (v *boundView) size(n int) {
	v.gens, v.atRoot, v.fromRoot, v.inflow = sized(v.gens, n), sized(v.atRoot, n), sized(v.fromRoot, n), sized(v.inflow, n)
}

// readFlow fills the flow side of the view from a built tree's table, whose
// sources sit at slots (ascending) and generate gens. A non-nil deliv, of
// len(slots)² entries, also receives every source-to-source delivered count:
// entry i·n+j is what source i delivers to source j.
func (v *boundView) readFlow(flow *rwmp.Flow, slots []int, gens, deliv []float64, dampRoot float64) {
	n, root := len(slots), flow.Root()
	v.size(n)
	v.dampRoot, v.rootSrc = dampRoot, -1
	copy(v.gens, gens)
	for j, dst := range slots {
		if dst == root {
			v.rootSrc = j
		}
		v.atRoot[j] = flow.Delivered(gens[j], dst, root)
		v.fromRoot[j] = flow.Factor(root, dst)
		in := math.Inf(1)
		for i, src := range slots {
			if src == dst {
				continue
			}
			f := flow.Delivered(gens[i], src, dst)
			if deliv != nil {
				deliv[i*n+j] = f
			}
			if f < in {
				in = f
			}
		}
		v.inflow[j] = in
	}
}

// scoreSum returns Σ node scores (Eq. 4's numerator) of a candidate that
// covers every term: a lone source scores its generation, otherwise each
// source its least inflow.
func (v *boundView) scoreSum() float64 {
	if len(v.gens) == 1 {
		return v.gens[0]
	}
	sum := 0.0
	for _, in := range v.inflow {
		sum += in
	}
	return sum
}

// supplied fills v.supplies with the best possible delivery, at the root,
// from a supplement covering each term the candidate with that many sources
// misses — or each term, when one source covers them all: the lone-source
// bound asks what a second source could add. Built and unbuilt candidates
// alike ask bestSupply. It reports false when some missing term has no
// feasible supplement: the candidate can never become a valid answer, its
// bound is 0 and it must be pruned.
func (st *bbState) supplied(v *boundView, sources int) bool {
	missing := st.qc.full &^ v.cover
	wanted := missing
	if missing == 0 && sources == 1 {
		wanted = st.qc.full
	}
	v.supplies = v.supplies[:0]
	for ti := range st.qc.terms {
		bit := uint64(1) << ti
		if wanted&bit == 0 {
			continue
		}
		best := st.bestSupply(ti, v)
		if best <= 0 && missing&bit != 0 {
			return false
		}
		v.supplies = append(v.supplies, best)
	}
	return true
}

// upperBound computes ub(C) = max(ce, pe) of a candidate that supplied
// accepted, from its view. It is monotone in the view's supplies.
func (st *bbState) upperBound(v *boundView) float64 {
	missing := st.qc.full &^ v.cover
	n := len(v.gens)
	lone := missing == 0 && n == 1

	// pe: bound on the score of any node added outside C. Its messages
	// from C's sources cross the root (dampened there unless the root is
	// the source itself), then attenuate by at least the first hop's factor.
	ubNew := math.Inf(1)
	for i, f := range v.atRoot {
		if i != v.rootSrc {
			f *= v.dampRoot
		}
		if f < ubNew {
			ubNew = f
		}
	}
	ubNew *= v.hop

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
		bound := v.gens[0]
		bestAdd := 0.0
		for _, sup := range v.supplies {
			bestAdd = max(bestAdd, sup)
		}
		if bestAdd > 0 {
			factor := v.fromRoot[0]
			if v.rootSrc != 0 {
				factor *= v.dampRoot
			}
			if alt := bestAdd * factor; alt > bound {
				bound = alt
			}
		}
		flowSum = bound
	case missing == 0:
		// With two or more sources every node score is already a min over
		// other-source inflows; adding sources only shrinks each node's
		// min, so the current exact node scores — Eq. 4's numerator — are
		// the bounds.
		flowSum = v.scoreSum()
	default:
		// Each in-tree source's score is capped by flows from existing
		// sources (exact within C) and by the best supplement flow
		// entering at the root and descending to it.
		for j, ub := range v.inflow {
			factor := v.fromRoot[j]
			if j != v.rootSrc {
				factor *= v.dampRoot
			}
			for _, sup := range v.supplies {
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
	atMin := (flowSum + aMin*ubNew) / (float64(n) + aMin)
	if ubNew > atMin {
		return ubNew
	}
	return atMin
}

// firstHop bounds the factor by which a message from the root, on its way
// to a node a completion of the candidate adds, attenuates on its first hop.
// Such a node hangs off the root through an out-neighbour h outside the
// candidate (the candidate grows through its root only). The message splits
// at the root, by at most 1, and then, unless it stops at h, dampens at h;
// and it stops at h only if h scores, that is, matches a term. So the factor
// is 1 when some matching out-neighbour of the root may lie outside the
// candidate, and the largest rate among the root's out-neighbours otherwise.
// matching counts the candidate's tree neighbours of the root that match a
// term; other candidate nodes the root is adjacent to are not subtracted,
// which errs towards 1.
func (st *bbState) firstHop(root graph.NodeID, matching int32) float64 {
	if st.qc.matchNbrs[root] > matching {
		return 1
	}
	return st.s.nbDamp[root]
}

// bestSupply bounds the message count any node covering term ti could
// deliver to the candidate's root, 0 when none can attach.
//
// A supplement reaches the root over its last edge from some out-neighbour n
// of the root outside the tree, having crossed at most budget−1 edges to get
// to n, so the bound is the best supply-field value at that level among
// those neighbours: n's own generation when n is the supplement, otherwise
// what the best matcher in range retains after every node up to and
// including n has dampened it. A seed takes exactly that, by a pass over its
// out-edges (scanSupply). Every deeper tree reads its root's own row
// (rowSupply), which bounds the pass from above. A seed cannot: at depth 0
// the row's level above the seed's own does not exist while D ≤
// maxSupplyLevels, and its own top level does not bound its neighbours'.
// Without dynamic bounds the estimate is the best generation of the term
// outside the tree.
//
// With an index, the feasible nodes are also scanned by descending
// generation — those the index places beyond the budget discarded, the rest
// discounted by the indexed retention — and the lower estimate wins, so
// passing an index never weakens a bound.
func (st *bbState) bestSupply(ti int, v *boundView) float64 {
	qc := st.qc
	nodes := qc.byGen[ti]
	best := 0.0
	if lv, ok := st.supplyLevel(v.depth); ok {
		if v.depth == 0 {
			best = st.scanSupply(ti, lv, v)
		} else {
			best = st.rowSupply(ti, lv, v)
		}
	} else if st.opts.NoDynamicBounds {
		for _, u := range nodes {
			if !v.contains(u) {
				best = qc.gen[u]
				break // byGen is sorted descending
			}
		}
	}
	idx := st.opts.Index
	if idx == nil || best <= 0 {
		return best
	}
	budget := st.opts.Diameter - v.depth
	indexed := 0.0
	scanned := 0
	for i, u := range nodes {
		if v.contains(u) {
			continue
		}
		g := qc.gen[u]
		if g <= indexed {
			break // sorted by descending generation; retention ≤ 1
		}
		if idx.DistanceLB(u, v.node) > budget {
			continue
		}
		if r := g * idx.RetentionUB(u, v.node); r > indexed {
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
