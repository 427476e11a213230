package search

import (
	"math"

	"cirank/internal/graph"
)

// This file is the fourth pre-build check of the expansion step: the §IV-B
// bound, per neighbour. Algorithm 1 grows a popped candidate C(r) to every
// neighbour nb of its root and bounds each child afterwards; most children's
// bounds send them straight to the bin. But a child is its parent plus one
// node on top, and every flow the bound reads of it follows from the
// parent's by arithmetic:
//
//   - r gains nb as a tree neighbour, so its split denominator grows from
//     denom to denom+w, w = w(r→nb). Every flow that crosses r or leaves it
//     towards the old tree is scaled by ρ = denom/(denom+w); flows that end
//     at r, or stay inside one of its branches, are untouched.
//   - What reached r reaches nb after r's dampening (unless r generated it)
//     and the split w/(denom+w).
//   - What nb sends enters r whole — r is nb's only tree neighbour, and the
//     edge nb→r exists because every edge has its reverse — and then
//     descends as r's own flows do, dampened at r and scaled by ρ.
//   - nb joins as a source when it matches a term; its supplies come from
//     its own field row, an O(terms) read, as fill's do for the built child.
//
// So the expansion step views the popped candidate once (flowView), derives
// each child's boundView from it and asks upperBound — the same function
// fill asks. Children whose bound already condemns them are never built. A
// survivor that misses a term keeps the price as its bound and is never
// filled; only one covering every term, whose exact score needs its flows,
// is. The derived numbers round differently from the ones fill computes off
// the child's own flow table (SetTree sums r's denominator in ascending
// neighbour order), so the skip rule and the stored price keep a relative
// slack: a priced bound never lies below fill's.

// preBoundSlack is the relative slack the skip rule leaves for the rounding
// differences between a derived view and the built child's.
const preBoundSlack = 1e-9

// flowView is the bound view of a candidate about to be expanded, with what
// deriving its children's views needs on top.
type flowView struct {
	boundView
	// denom is the root's split denominator: Σ w(root → child) over its tree
	// children.
	denom float64
	// deliv holds the source-to-source delivered counts (boundView.readFlow);
	// branch, per source, the slot of the root's child it hangs under — its
	// own slot for the root. Two sources exchange messages through the root
	// iff their branches differ.
	deliv  []float64
	branch []int32
}

// viewParent fills the scratch's parent view for the popped candidate c,
// reading its flows through the bound scratch fill uses.
func (st *bbState) viewParent(c *candidate) *flowView {
	bs, p := &st.sc.bound, &st.sc.parent
	t, m := c.tree, st.s.m
	p.cover = st.sources(t)
	par, root := t.ParentView(), t.Root()
	p.branch = p.branch[:0]
	for _, i := range bs.slots {
		for par[i] != root { // the root's own entry names itself
			i = t.Slot(par[i])
		}
		p.branch = append(p.branch, int32(i))
	}
	bs.flow.SetTree(m, t)
	p.denom = bs.flow.RootDenom()
	p.at(t)
	p.deliv = sized(p.deliv, len(bs.slots)*len(bs.slots))
	p.readFlow(&bs.flow, bs.slots, bs.gens, p.deliv, m.Damp(root))
	return p
}

// grow derives into v the flows of p's candidate grown over its root's
// out-edge of weight w to a node with the given dampening rate; gen is the
// node's generation count when it matches a term, 0 for a free node.
func (p *flowView) grow(v *boundView, w float64, gen, damp float64) {
	n := len(p.gens)
	if gen > 0 {
		v.size(n + 1)
	} else {
		v.size(n)
	}
	v.dampRoot, v.rootSrc = damp, -1
	copy(v.gens, p.gens)
	denom := p.denom + w
	up, rho := w/denom, p.denom/denom
	for j := 0; j < n; j++ {
		v.atRoot[j], v.fromRoot[j] = p.atRoot[j]*up, 1
		if j != p.rootSrc {
			v.atRoot[j] *= p.dampRoot
			v.fromRoot[j] = p.dampRoot * rho * p.fromRoot[j]
		}
		in := math.Inf(1)
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			f := p.deliv[i*n+j]
			if j != p.rootSrc && p.branch[i] != p.branch[j] {
				f *= rho
			}
			in = min(in, f)
		}
		v.inflow[j] = in
	}
	if gen > 0 {
		in := math.Inf(1)
		for j := 0; j < n; j++ {
			v.inflow[j] = min(v.inflow[j], gen*v.fromRoot[j])
			in = min(in, v.atRoot[j])
		}
		v.gens[n], v.atRoot[n], v.fromRoot[n], v.inflow[n], v.rootSrc = gen, gen, 1, in, n
	}
}

// childBound prices the child of p's candidate over the root's out-edge e
// without building it: its cover and the bound upperBound gives its derived
// view, supplied from nb's own field row at a read per term — the supplies
// fill reads for the built child. A path index's scan skips the parent's
// nodes only, one fewer than fill's, and upperBound is monotone in the
// supplies: up to rounding, the price is never below fill's bound, with or
// without a path index. The caller has checked that e.To is outside the tree.
func (st *bbState) childBound(p *flowView, e graph.HalfEdge) (ub float64, cover uint64) {
	qc, nb := st.qc, e.To
	v := &st.sc.child
	v.tree, v.node, v.depth = p.tree, nb, p.depth+1
	v.cover = p.cover | qc.masks[nb]
	// The child's root has one tree neighbour, the parent's root.
	matching := int32(0)
	if qc.masks[p.node] != 0 {
		matching = 1
	}
	v.hop = st.firstHop(nb, matching)
	sources := len(p.gens)
	if qc.gen[nb] > 0 {
		sources++
	}
	if !st.supplied(v, sources) {
		return 0, v.cover
	}
	p.grow(v, e.Weight, qc.gen[nb], st.s.m.Damp(nb))
	return st.upperBound(v), v.cover
}

// condemned reports whether commit would discard a child with that cover
// priced at ub: it misses a term and its price is 0, or the top-k is full
// and its price with the slack (price), which fill's bound never exceeds,
// lies below the k-th answer's. A child that covers every term is an answer
// even at score 0 while the list has room, so only the second test may drop
// it.
func (st *bbState) condemned(ub float64, cover uint64) bool {
	return cover != st.qc.full && ub <= 0 || st.top.full() && ub*(1+preBoundSlack) < st.top.min()
}

// A merge is priced the same way before it is built. Its two operands share
// the root r, and the merged tree's root splits over both sides' children:
// its denominator is d_a + d_b, so every flow that leaves r towards side a is
// scaled by ρ_a = d_a/(d_a+d_b), and nothing that ends at r or stays below
// one of its children changes. Side a's sources then receive from side b's,
// across r, at_i · damp(r) · ρ_a · from_j — at_i what source i of b delivers
// at r, from_j the factor r → j — and keep their own side's least inflow,
// which the ρ_a that scales its cross-root part only lowers. A source's score
// in the merge is its least inflow, so the sum over both sides bounds Eq. 4's
// numerator, and upperBound's complete case prices the merge:
//
//	max(min_i at_i·damp(r), Σ_j min(inflow_j, across_j) / n)
//
// which the first-hop factor, the ρ scaling and the exact node scores only
// lower. The price needs of each operand only a summary of the bound view its
// own bound came from, kept when it was filled or priced (mergeView).

// mergeView is what pricing a merge reads of one operand.
type mergeView struct {
	// denom is the root's split denominator; cross the least that a source
	// other than the root delivers at the root, dampened there (+Inf
	// without one); rootIn the root's least inflow when the root is a source
	// (+Inf when no other source feeds it).
	denom, cross, rootIn float64
	rootSrc              bool
	// The other sources' root → source factors and least inflows, in pairs,
	// sit at queryScratch.priced[off:][:2n].
	off, n int32
}

// mergeable reports whether c can take part in a merge, so that commit may
// price one with it: a seed is never merged, and under the strict rule
// nothing merges with a candidate covering every term.
func (st *bbState) mergeable(c *candidate) bool {
	return (c.tree == nil || c.tree.Size() > 1) && (st.opts.ExtendedMerge || c.cover != st.qc.full)
}

// keepView records c's merge summary from the bound view v its bound came
// from, whose root splits over denom.
func (st *bbState) keepView(c *candidate, v *boundView, denom float64) {
	sc, mv := st.sc, &c.merge
	*mv = mergeView{denom: denom, cross: math.Inf(1), rootIn: math.Inf(1), rootSrc: v.rootSrc >= 0, off: int32(len(sc.priced))}
	for j, in := range v.inflow {
		if j == v.rootSrc {
			mv.rootIn = in
			continue
		}
		mv.cross = min(mv.cross, v.atRoot[j]*v.dampRoot)
		sc.priced = append(sc.priced, v.fromRoot[j], in)
	}
	mv.n = int32(len(sc.priced)-int(mv.off)) / 2
}

// mergePrice bounds from above the bound fill gives the merge of a and b,
// two candidates sharing a root whose merge summaries are kept.
func (st *bbState) mergePrice(a, b *candidate) float64 {
	ma, mb := &a.merge, &b.merge
	n := int(ma.n + mb.n)
	ubNew, sum := min(ma.cross, mb.cross), 0.0
	if ma.rootSrc || mb.rootSrc { // a stub counts a root of generation 0 as free
		n++
		ubNew = min(ubNew, st.qc.gen[st.sc.roots[a.root].node])
		sum = min(ma.rootIn, mb.rootIn)
	}
	if n < 2 {
		return math.Inf(1) // a lone source: its bound asks for supplies
	}
	d := ma.denom + mb.denom
	pa, pb := st.sc.priced[ma.off:][:2*ma.n], st.sc.priced[mb.off:][:2*mb.n]
	sum += sideSum(pa, mb.cross*(ma.denom/d)) + sideSum(pb, ma.cross*(mb.denom/d))
	return max(ubNew, sum/float64(n))
}

// sideSum sums the bounds on the scores of one operand's sources other than
// the root, given as (root → source factor, least inflow) pairs, each
// receiving at most across times its factor from the other side.
func sideSum(pairs []float64, across float64) float64 {
	sum := 0.0
	for i := 0; i < len(pairs); i += 2 {
		in := pairs[i+1]
		if f := across * pairs[i]; f < in { // NaN-safe: an Inf across keeps in
			in = f
		}
		sum += in
	}
	return sum
}

// release drops the view's candidate and empties its buffers, dropping those
// a many-source tree grew.
func (v *boundView) release() {
	v.tree = nil
	v.gens, v.atRoot = trimmed(v.gens, viewBufCap), trimmed(v.atRoot, viewBufCap)
	v.fromRoot, v.inflow = trimmed(v.fromRoot, viewBufCap), trimmed(v.inflow, viewBufCap)
}

// release is boundView.release for the parent's extra buffers too.
func (p *flowView) release() {
	p.boundView.release()
	p.deliv, p.branch = trimmed(p.deliv, viewBufCap), trimmed(p.branch, viewBufCap)
}
