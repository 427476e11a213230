package search

import "cirank/internal/graph"

// This file computes the per-term supply field behind the dynamic supplement
// bound of §IV-B — how many messages a node covering a missing keyword could
// still deliver at a candidate's root — and holds everything that reads its
// table: the per-root supply lists, their full-scan fallback (bounds.go's
// bestSupply asks them) and the row bound an unbuilt child is priced from
// first (rowSupply). The field answers that for every node
// and every hop budget at once, per query, for the query's own matchers — a
// hub's degree is paid once per query here rather than once per lookup in a
// prebuilt index.
//
// For a term t with matchers M_t, the field's entry for node w and level h
// is the most a matcher within h hops of w can still carry when it leaves w:
//
//	max over paths u→…→w of at most h edges, u ∈ M_t, of
//	gen(u) · Π damp(x) over every node x after u up to and including w
//
// so a matcher's own level 0 is its generation, and 0 means no matcher is in
// range. Levels are cumulative (level h ≥ level h−1). Every rate lies in
// (0, 1), so a walk never beats the simple path inside it and float rounding
// keeps that order: the best path-order product is what relax computes and
// what the tests enumerate.
//
// The search reads level h only within D−h hops of the query's matching
// nodes (see region), so that is where the field is exact: on the region of
// radius D−h for every level h ≤ D−1 when D ≤ maxSupplyLevels, everywhere
// past it. Outside, an entry may stop short of the definition, never exceed
// it.
//
// All terms share one table, node-major, then term, then level — a root's
// supply lists read every term of a neighbour at one level, and that is one
// cache line for a typical query.

// maxSupplyLevels caps the levels a field stores per node, whatever the
// diameter: a table of NumNodes × Diameter floats per term would let a
// hostile Diameter exhaust memory. Up to the cap every level is exact; past
// it the last level holds the unbounded-hop fixpoint, which bounds every
// longer budget from above.
const maxSupplyLevels = 8

// fieldKeepTerms bounds what a released scratch retains of the fields: the
// table when it is no larger than this many terms at maxSupplyLevels need,
// and this many terms' relaxation buffers.
const fieldKeepTerms = 4

// fieldScratch is one term's view of the shared table — node w's row is
// out[w·stride+off:][:levels] — and the buffers its relaxation reuses.
type fieldScratch struct {
	out                     []float64
	stride, off, levels     int
	touched, frontier, next []graph.NodeID // touched: the nodes with a non-zero row
	scanned                 int            // edges the last relax read, for Stats.Relaxed
}

// row returns node w's levels.
func (fs *fieldScratch) row(w graph.NodeID) []float64 {
	return fs.out[int(w)*fs.stride+fs.off:][:fs.levels]
}

// region is what the search reads of a field, layer by layer: a candidate of
// depth d has a matching node within d hops of its root, and its bound reads
// level D−d−1 at the root's out-neighbours (supplyLists, scanSupply) or level
// D−d at a priced child's root (rowSupply) — level h only within D−h hops of
// the query's matching nodes. Up to level ⌊D/2⌋ that holds every node a round
// can reach; above it the rounds need only the nodes within radius D−h, the
// radii up to ⌈D/2⌉−1 that grow records. Every term's relaxation reads it.
type region struct {
	nodes []graph.NodeID // layer by layer, the matching nodes first
	ends  []int          // ends[r]: how many nodes lie within r hops
	degs  []int          // degs[r]: their out-degree sum, what a pull over them scans
	seen  []bool         // dense: whether nodes holds the node
}

// grow records the region out to radius hops from sources, which must be
// distinct, by breadth-first search along out-edges (every edge has its
// reverse, so hop counts are symmetric).
func (reg *region) grow(g *graph.Graph, sources []graph.NodeID, radius int) {
	if len(reg.seen) != g.NumNodes() {
		reg.seen = make([]bool, g.NumNodes())
	}
	nodes := append(reg.nodes[:0], sources...)
	for _, v := range sources {
		reg.seen[v] = true
	}
	reg.ends, reg.degs = reg.ends[:0], reg.degs[:0]
	deg, start := 0, 0
	for r := 0; r <= radius; r++ {
		end := len(nodes)
		for _, u := range nodes[start:end] {
			edges := g.OutEdges(u)
			deg += len(edges)
			if r == radius {
				continue
			}
			for _, e := range edges {
				if !reg.seen[e.To] {
					reg.seen[e.To] = true
					nodes = append(nodes, e.To)
				}
			}
		}
		reg.ends, reg.degs = append(reg.ends, end), append(reg.degs, deg)
		start = end
	}
	reg.nodes = nodes
}

// release clears the visited table and empties the region, dropping a node
// list grown past ptrBufCap.
func (reg *region) release() {
	for _, v := range reg.nodes {
		reg.seen[v] = false
	}
	reg.nodes = trimmed(reg.nodes, ptrBufCap)
	reg.ends, reg.degs = reg.ends[:0], reg.degs[:0]
}

// forcePull makes every restricted round pull whatever it costs, so that the
// tests can hold the pull to the push (export_test.go sets it).
var forcePull bool

// relax fills the term's rows from its matchers by levels−1 rounds of
// frontier max-product relaxation along out-edges (the direction a message
// travels towards a root that lists the reached node among its
// out-neighbours). Round h reads level h−1 and writes levels h and up, so a
// value set once is carried to every later level without a copy pass. A push
// round scans the out-edges of the nodes that improved in round h−1. Given a
// region (then levels is the diameter D), a round h > D/2 computes only the
// nodes within D−h hops of a matching node, and pulls when their out-degree
// sum is below the frontier's: each takes the best of its neighbours'
// level h−1 times its own rate (the direction-optimizing rule of Beamer et
// al., SC 2012). Either way an entry on the region is the same product, bit
// for bit. With fixpoint set (and no region) the last level keeps relaxing
// until nothing improves. The rows must be all zero on entry.
func (fs *fieldScratch) relax(g *graph.Graph, damp, gen []float64, matchers []graph.NodeID, fixpoint bool, reg *region) {
	L := fs.levels
	touched, frontier, next := fs.touched[:0], fs.frontier[:0], fs.next[:0]
	for _, u := range matchers {
		row := fs.row(u)
		for h := range row {
			row[h] = gen[u]
		}
		touched = append(touched, u)
		frontier = append(frontier, u)
	}
	out, stride, off := fs.out, fs.stride, fs.off // locals: this loop is the query's set-up cost
	scanned := 0
	for h := 1; h < L && len(frontier) > 0; h++ {
		next = next[:0]
		if reg != nil && 2*h > L && (forcePull || reg.degs[L-h] < outDegrees(g, frontier)) {
			scanned += reg.degs[L-h]
			for _, x := range reg.nodes[:reg.ends[L-h]] {
				row := out[int(x)*stride+off:][:L]
				best, rate := row[h-1], damp[x]
				for _, e := range g.OutEdges(x) {
					if cand := out[int(e.To)*stride+off+h-1] * rate; cand > best {
						best = cand
					}
				}
				if best == row[h-1] {
					continue
				}
				if row[L-1] == 0 {
					touched = append(touched, x)
				}
				next = append(next, x)
				for i := h; i < L; i++ {
					row[i] = best
				}
			}
			frontier, next = next, frontier
			continue
		}
		for _, u := range frontier {
			val := out[int(u)*stride+off+h-1]
			edges := g.OutEdges(u)
			scanned += len(edges)
			for _, e := range edges {
				at := int(e.To)*stride + off
				cand := val * damp[e.To]
				if cand <= out[at+h] {
					continue
				}
				row := out[at:][:L]
				if row[L-1] == 0 {
					touched = append(touched, e.To)
				}
				if row[h] == row[h-1] { // first improvement of this round
					next = append(next, e.To)
				}
				for i := h; i < L; i++ {
					row[i] = cand
				}
			}
		}
		frontier, next = next, frontier
	}
	for changed := fixpoint; changed; {
		changed = false
		for i := 0; i < len(touched); i++ { // touched grows as the sweep reaches new nodes
			val := fs.row(touched[i])[L-1]
			edges := g.OutEdges(touched[i])
			scanned += len(edges)
			for _, e := range edges {
				at := &fs.row(e.To)[L-1]
				if cand := val * damp[e.To]; cand > *at {
					if *at == 0 {
						touched = append(touched, e.To)
					}
					*at, changed = cand, true
				}
			}
		}
	}
	fs.touched, fs.frontier, fs.next, fs.scanned = touched, frontier[:0], next[:0], scanned
}

// outDegrees is the out-degree sum of nodes: what a push from them scans.
func outDegrees(g *graph.Graph, nodes []graph.NodeID) int {
	sum := 0
	for _, u := range nodes {
		sum += g.OutDegree(u)
	}
	return sum
}

// supplyFields computes the query's fields into the scratch's table, one
// term after another on the query's goroutine, and returns the edges the
// relaxations scanned. Below maxSupplyLevels it first records the region the
// rounds past D/2 are restricted to. Diameter 0 leaves no budget to supply
// across and no field.
func (qc *queryContext) supplyFields(g *graph.Graph, damp []float64, diameter int, sc *queryScratch) (scanned int) {
	qc.levels = min(diameter, maxSupplyLevels)
	if qc.levels == 0 {
		return 0
	}
	stride := len(qc.terms) * qc.levels
	if need := g.NumNodes() * stride; cap(sc.field) < need {
		sc.field = make([]float64, need)
	} else {
		sc.field = sc.field[:need]
	}
	for len(sc.fields) < len(qc.terms) {
		sc.fields = append(sc.fields, fieldScratch{})
	}
	var reg *region
	if radius := halfDiameter(diameter) - 1; radius > 0 && diameter <= maxSupplyLevels {
		reg = &sc.region
		reg.grow(g, qc.nonFree, radius)
	}
	for ti := range qc.terms {
		fs := &sc.fields[ti]
		fs.out, fs.stride, fs.off, fs.levels = sc.field, stride, ti*qc.levels, qc.levels
		fs.relax(g, damp, qc.gen, qc.perTerm[ti], diameter > maxSupplyLevels, reg)
		scanned += fs.scanned
	}
	return scanned
}

// supplyLevel maps the hop budget a candidate of the given depth leaves a
// supplement — Diameter minus depth, of which the last hop is the edge into
// the root — to the field level that bounds it: budget−1, or the last level
// where the fields store fewer. ok is false when there is no field to read:
// dynamic bounds are off, or the budget admits no supplement at all.
func (st *bbState) supplyLevel(depth int) (lv int, ok bool) {
	budget := st.opts.Diameter - depth
	return min(budget, st.qc.levels) - 1, st.qc.levels > 0 && budget >= 1
}

// supplyLists makes sure the supply lists that the bound of a candidate of
// the given depth, rooted at node (whose record is root), will read exist:
// one topList per term for (root, field level), ranking the root's
// out-neighbours by field value. This is the one pass over a root's
// out-edges the query pays per level, however many candidate trees it roots
// there. It runs before fill evaluates the candidate, or before the
// expansion step prices it unbuilt, in worklist order, so the lists, like
// everything else Stats depends on, are the same run to run. It appends to
// sc.tops: fetch list pointers after it, not before.
func (st *bbState) supplyLists(root int32, node graph.NodeID, depth int) {
	lv, ok := st.supplyLevel(depth)
	if !ok {
		return
	}
	sc, L := st.sc, st.qc.levels
	at := &sc.listAt[int(root)*L+lv]
	if *at != 0 {
		return
	}
	off := len(sc.tops)
	*at = int32(off + 1)
	for range st.qc.terms {
		sc.tops = append(sc.tops, topList{})
	}
	lists := sc.tops[off:]
	stride := len(lists) * L
	for _, e := range st.s.m.Graph().OutEdges(node) {
		at := int(e.To)*stride + lv // the neighbour's terms at this level sit L apart
		for ti := range lists {
			if sc.field[at+ti*L] > 0 {
				lists[ti].offer(e.To, sc.field[ti*L+lv:], stride)
			}
		}
	}
}

// supplyList returns the supply list of term ti at (root record, field
// level), which supplyLists built before any fill could ask for it.
func (st *bbState) supplyList(root int32, lv, ti int) *topList {
	return &st.sc.tops[int(st.sc.listAt[int(root)*st.qc.levels+lv])-1+ti]
}

// rowSlack is the relative slack rowSupply adds for the rounding of its
// division, so that the row never prices below a list.
const rowSlack = 1e-12

// rowSupply bounds bestSupply's field estimate from the root's own field row,
// without a pass over its out-edges. relax carries every edge n→w as
// field(w, h+1) ≥ field(n, h)·damp(w), and the fixpoint level as
// field(w, L−1) ≥ field(n, L−1)·damp(w); every edge has its reverse, so this
// holds for every out-neighbour n of the root w. One level up, divided by the
// root's own rate, the row bounds what any of them supplies at the view's
// level — inside the tree or not.
func (st *bbState) rowSupply(ti int, v *boundView) float64 {
	lv, ok := st.supplyLevel(v.depth)
	if !ok {
		return 0
	}
	// A child stands at depth 1 or more, so the level above its own exists
	// unless the diameter runs past maxSupplyLevels; then the last level is
	// the fixpoint.
	up := min(lv+1, st.qc.levels-1)
	return st.sc.fields[ti].row(v.node)[up] / st.s.m.Damp(v.node) * (1 + rowSlack)
}

// scanSupply is bestSupply's field estimate by a full pass over the root's
// out-edges: the fallback for a candidate that contains every node of a
// truncated supply list, and the definition the lists are tested against.
func (st *bbState) scanSupply(ti, lv int, v *boundView) float64 {
	fs := &st.sc.fields[ti]
	best := 0.0
	for _, e := range st.s.m.Graph().OutEdges(v.node) {
		if val := fs.row(e.To)[lv]; val > best && !v.contains(e.To) {
			best = val
		}
	}
	return best
}
