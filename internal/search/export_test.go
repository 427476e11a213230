package search

import (
	"context"
	"fmt"
	"testing"

	"cirank/internal/graph"
	"cirank/internal/jtt"
)

// ForcePull makes every restricted round of the supply-field relaxation pull,
// whatever its cost, until t ends.
func ForcePull(t testing.TB) {
	forcePull = true
	t.Cleanup(func() { forcePull = false })
}

// KeepDeadChildren turns the expansion step's dead-child skip off until t
// ends, so the search prices every child.
func KeepDeadChildren(t testing.TB) {
	keepDeadChildren = true
	t.Cleanup(func() { keepDeadChildren = false })
}

// HopsFrom is the test's own breadth-first search: every node's hop count
// from the nearest source, -1 when none reaches it.
var HopsFrom = hopsFrom

// FieldLevels reports how many levels per node the oracle's fields hold, 0
// without dynamic bounds.
func (o *BoundOracle) FieldLevels() int { return o.st.qc.levels }

// FieldRow returns term ti's supply-field levels at node v as the oracle's
// query computed them.
func (o *BoundOracle) FieldRow(ti int, v graph.NodeID) []float64 { return o.st.sc.fields[ti].row(v) }

// Relaxed returns the edges the oracle's query relaxation scanned.
func (o *BoundOracle) Relaxed() int { return o.st.stats.Relaxed }

// PushedField relaxes term ti's field by push rounds alone, over the whole
// graph, into a table of its own (FieldLevels entries per node), and returns
// it with the edges the rounds scanned.
func (o *BoundOracle) PushedField(ti int) (field []float64, scanned int) {
	st := o.st
	g, L := st.s.m.Graph(), st.qc.levels
	fs := fieldScratch{out: make([]float64, g.NumNodes()*L), stride: L, levels: L}
	fs.relax(g, st.s.m.DampVector(), st.qc.gen, st.qc.perTerm[ti], st.opts.Diameter > maxSupplyLevels, nil)
	return fs.out, fs.scanned
}

// TopKLost is TopK on a fresh scratch that also reports whether the run
// dropped trees at the Generated cap — besides an interruption, the one
// reason FrontierBound gives up and reads +Inf.
func (s *Searcher) TopKLost(terms []string, opts Options) (answers []Answer, stats Stats, lost bool, err error) {
	st, err := s.run(context.Background(), newQueryScratch(), terms, opts)
	if err != nil || st == nil {
		return nil, Stats{}, false, err
	}
	return st.top.resultsDetached(), st.stats, st.lost, nil
}

// WithoutFieldSource runs f with the oracle's supply fields relaxed as if
// src matched no term, then restores them. It is how the external tests ask
// what a lone source's own supply contributes to its bound.
func (o *BoundOracle) WithoutFieldSource(src graph.NodeID, f func()) {
	o.refield(src)
	f()
	o.refield(graph.InvalidNode)
}

// refield recomputes every term's field from its matchers less drop, over
// the query's region. Nothing else is derived from the fields, so the next
// bound reads the new values.
func (o *BoundOracle) refield(drop graph.NodeID) {
	st := o.st
	sc, qc, m := st.sc, st.qc, st.s.m
	var reg *region
	if len(sc.region.ends) > 0 {
		reg = &sc.region
	}
	for ti := range sc.fields[:min(len(sc.fields), len(qc.terms))] {
		fs := &sc.fields[ti]
		for _, u := range fs.touched {
			clear(fs.row(u))
		}
		var matchers []graph.NodeID
		for _, u := range qc.perTerm[ti] {
			if u != drop {
				matchers = append(matchers, u)
			}
		}
		fs.relax(m.Graph(), m.DampVector(), qc.gen, matchers, st.opts.Diameter > maxSupplyLevels, reg)
	}
}

// ChildBound returns the price the expansion step gives tree grown to nb —
// nb an out-neighbour of tree's root, outside tree — without building the
// child: the bound upperBound gives the view derived from tree's flows,
// supplied from nb's field row. ok is false when the query has no supply
// fields, so the search would not price at all.
func (o *BoundOracle) ChildBound(tree *jtt.Tree, nb graph.NodeID) (ub float64, ok bool) {
	st := o.st
	if st.qc.levels == 0 {
		return 0, false
	}
	w, isEdge := st.s.m.Graph().Weight(tree.Root(), nb)
	if !isEdge || tree.Contains(nb) {
		panic("search: ChildBound wants an out-neighbour of the root outside the tree")
	}
	c := &candidate{tree: tree, root: st.rootOf(tree.Root())}
	ub, _ = st.childBound(st.viewParent(c), graph.HalfEdge{To: nb, Weight: w})
	return ub, true
}

// RowBound is the bound fill gives tree, a tree past a seed, whose supplies
// it reads off the root's own field row as childBound reads a child's: the
// price ChildBound derives for a child, computed off the built child's own
// flow table.
func (o *BoundOracle) RowBound(tree *jtt.Tree) float64 {
	if tree.Depth() == 0 {
		panic("search: RowBound wants a tree past a seed")
	}
	return o.UpperBound(tree)
}

// RowSlack is the relative slack a field-row supply carries for the rounding
// of its division; a path index's min may remove it.
const RowSlack = rowSlack

// PricedCheck is what CheckPricedBounds saw: the priced candidates filled on
// the side, by kind — a grown child the search built, or a stub; grown to a
// node that matches a term, or to a free one — and each whose fill bound
// exceeded its stored priced bound. While Paused is set the hook does
// nothing, so a test can run the same search without the side fills.
type PricedCheck struct {
	Grown, Stub, Matching, Free int
	Violations                  []string
	Paused                      bool
}

// CheckPricedBounds makes the expansion step, until t ends, also fill each
// priced candidate on the side — a stub's child built here from its parent,
// outside the arena — and record in the returned check any whose fill bound
// exceeds the bound the search stored for it. Filling on the side writes
// only the bound scratch and merge summaries nothing reads, so the search
// itself runs unchanged.
func CheckPricedBounds(t testing.TB) *PricedCheck {
	pc := &PricedCheck{}
	checkPriced = func(st *bbState, c *candidate) {
		if pc.Paused {
			return
		}
		node := st.sc.roots[c.root].node
		tree := c.tree
		if tree == nil {
			var err error
			if tree, err = c.parent.Grow(st.s.m.Graph(), node); err != nil {
				panic(err)
			}
			pc.Stub++
		} else {
			pc.Grown++
		}
		if st.qc.masks[node] != 0 {
			pc.Matching++
		} else {
			pc.Free++
		}
		filled := &candidate{tree: tree, root: c.root}
		st.fill(filled)
		if filled.ub > c.ub {
			pc.Violations = append(pc.Violations, fmt.Sprintf("%s rooted at %d: priced %.17g, filled %.17g", tree.CanonicalKey(), node, c.ub, filled.ub))
		}
	}
	t.Cleanup(func() { checkPriced = nil })
	return pc
}

// handedOut returns every candidate the slab has handed out since its last
// reset, in order.
func (cs *candSlab) handedOut() []*candidate {
	var out []*candidate
	for i := 0; i <= cs.si && i < len(cs.slabs); i++ {
		slab := cs.slabs[i]
		if i == cs.si {
			slab = slab[:cs.used]
		}
		for j := range slab {
			out = append(out, &slab[j])
		}
	}
	return out
}

// GeneratedTrees runs TopK on a fresh scratch and returns the trees the
// search generated, by origin: the grown children — a stub's built here from
// its parent, as a merge would — whose root has one child, and the merges,
// whose root has two or more. Seeds are left out. Every merge the search
// entered is listed, whether or not it went through the seen set.
func (s *Searcher) GeneratedTrees(terms []string, opts Options) (grown, merged []*jtt.Tree, err error) {
	sc := newQueryScratch()
	st, err := s.run(context.Background(), sc, terms, opts)
	if err != nil || st == nil {
		return nil, nil, err
	}
	g := s.m.Graph()
	for _, c := range sc.cands.handedOut() {
		switch {
		case c.parent != nil:
			child, err := c.parent.Grow(g, sc.roots[c.root].node)
			if err != nil {
				return nil, nil, err
			}
			grown = append(grown, child)
		case len(c.tree.Children(c.tree.Root())) > 1:
			merged = append(merged, c.tree)
		case c.tree.Size() > 1:
			grown = append(grown, c.tree)
		}
	}
	return grown, merged, nil
}

// TreeSet is the search's dedup set, for the external tests.
type TreeSet struct{ s treeSet }

// Add inserts t and reports whether no equal tree was in the set.
func (s *TreeSet) Add(t *jtt.Tree) bool { return s.s.add(t, t.Hash()) }
