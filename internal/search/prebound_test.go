package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/rwmp"
	"cirank/internal/textindex"
)

// These tests carry the soundness argument of the pre-build bound
// (prebound.go) on the graphs the in-package fixtures can build and the
// difftest generators cannot: hand-made hubs, the fuzz decoder's cases with
// their per-direction weights. oracle_prebound_test.go walks the generators.

// searcher builds a model over a decoded case — the case's dampening rates,
// its generation bytes as importance, a text index over the node texts — and
// a searcher over the model.
func (fc fieldCase) searcher(t testing.TB) *Searcher {
	t.Helper()
	m, err := rwmp.NewFromParts(fc.g, textindex.Build(fc.g), fc.gen, fc.damp, rwmp.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return New(m)
}

// childKinds counts what checkChildBounds saw, so a test can demand that
// its inputs reached every case of the bound.
type childKinds struct {
	lone, complete, missing int // the child's view, by upperBound's cases
	matcher, free           int // the node grown to
	rootSource              int // parents whose root is a source
	doomed, checked         int
	rowDoomed, rowTight     int // children the row price alone condemns: for a missing term, and just past the exact price
	ranked                  int // queries whose ranking was held to the references
}

func (k *childKinds) add(o childKinds) {
	k.lone, k.complete, k.missing = k.lone+o.lone, k.complete+o.complete, k.missing+o.missing
	k.matcher, k.free = k.matcher+o.matcher, k.free+o.free
	k.rootSource += o.rootSource
	k.doomed, k.checked, k.ranked = k.doomed+o.doomed, k.checked+o.checked, k.ranked+o.ranked
	k.rowDoomed, k.rowTight = k.rowDoomed+o.rowDoomed, k.rowTight+o.rowTight
}

// checkChildBounds holds the derived bound to fill's on every child of every
// tree the search could hold for the query, up to maxTrees of them: the
// closure of the matchers under grow and (extended) merge within the depth
// limit. For each tree and each out-neighbour of its root outside it, the
// bound priced from the tree's flows and the root's supply lists must agree
// with the bound fill computes for the built child within preBoundSlack — the
// skip rule's slack, so a child is never dropped on a bound fill would have
// put above the k-th answer. The price from the root's field row must be at
// least that bound, and condemn the child only where it condemns it too —
// with room in the answer list, and with a full one at any k-th score.
func checkChildBounds(t testing.TB, s *Searcher, terms []string, opts Options, maxTrees int) (kinds childKinds) {
	t.Helper()
	o, ok, err := s.NewBoundOracle(terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || o.st.qc.levels == 0 {
		return kinds
	}
	g, qc := s.m.Graph(), o.st.qc
	// condemnedAt is the skip rule under a list whose k-th answer scores
	// kth, or with room in the list when kth < 0.
	kthList := newTopK(1)
	kthList.add(jtt.NewSingle(0), 0)
	condemnedAt := func(ub float64, cover uint64, kth float64) bool {
		if kth < 0 {
			return o.st.condemned(ub, cover)
		}
		saved := o.st.top
		kthList.items[0].Score, o.st.top = kth, kthList
		defer func() { o.st.top = saved }()
		return o.st.condemned(ub, cover)
	}
	seen := make(map[string]bool)
	var trees []*jtt.Tree
	push := func(tree *jtt.Tree) {
		key := fmt.Sprintf("%d|%s", tree.Root(), tree.CanonicalKey())
		if !seen[key] && len(trees) < maxTrees {
			seen[key] = true
			trees = append(trees, tree)
		}
	}
	for _, v := range qc.nonFree {
		push(jtt.NewSingle(v))
	}
	for i := 0; i < len(trees); i++ {
		tree := trees[i]
		for _, other := range trees[:i] {
			if merged, err := tree.Merge(other); err == nil && other.Root() == tree.Root() {
				push(merged)
			}
		}
		if tree.Depth() >= o.GrowthDepthLimit() {
			continue
		}
		root := tree.Root()
		for _, e := range g.OutEdges(root) {
			if tree.Contains(e.To) {
				continue
			}
			row, pre, _ := o.ChildBound(tree, e.To)
			child, err := tree.Grow(g, e.To)
			if err != nil {
				t.Fatal(err)
			}
			ub, _, _ := o.Evaluate(child)
			if pre*(1+preBoundSlack) < ub || pre > ub*(1+preBoundSlack) {
				t.Fatalf("query %v D=%d: tree %s rooted at %d grown to %d: priced %.17g from the parent, fill bounds the built child %.17g",
					terms, opts.Diameter, tree.CanonicalKey(), root, e.To, pre, ub)
			}
			cover := qc.cover(child)
			if row < pre {
				t.Fatalf("query %v D=%d: tree %s rooted at %d grown to %d: priced %.17g from the row, %.17g from the lists",
					terms, opts.Diameter, tree.CanonicalKey(), root, e.To, row, pre)
			}
			for _, kth := range []float64{-1, pre * (1 + 2*preBoundSlack), row * (1 + 2*preBoundSlack), ub} {
				if condemnedAt(row, cover, kth) && !condemnedAt(pre, cover, kth) {
					t.Fatalf("query %v D=%d: tree %s rooted at %d grown to %d: the row price %.17g condemns at k-th score %v, the list price %.17g does not",
						terms, opts.Diameter, tree.CanonicalKey(), root, e.To, row, kth, pre)
				}
			}
			if condemnedAt(row, cover, -1) {
				kinds.rowDoomed++
			}
			if condemnedAt(row, cover, pre*(1+2*preBoundSlack)) {
				kinds.rowTight++
			}
			kinds.checked++
			sources := len(qc.sourcesIn(child))
			switch {
			case cover != qc.full:
				kinds.missing++
			case sources == 1:
				kinds.lone++
			default:
				kinds.complete++
			}
			if qc.masks[e.To] != 0 {
				kinds.matcher++
			} else {
				kinds.free++
			}
			if qc.masks[root] != 0 {
				kinds.rootSource++
			}
			if ub <= 0 {
				kinds.doomed++
			}
			push(child)
		}
	}
	return kinds
}

// sameRanking fails unless the two answer lists hold the same trees with the
// same scores, bit for bit, in the same order.
func sameRanking(t testing.TB, label string, want, got []Answer) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d answers, want %d", label, len(got), len(want))
	}
	for i := range want {
		if wk, gk := want[i].Tree.CanonicalKey(), got[i].Tree.CanonicalKey(); wk != gk || want[i].Score != got[i].Score {
			t.Fatalf("%s: answer %d is %s=%v, want %s=%v", label, i, gk, got[i].Score, wk, want[i].Score)
		}
	}
}

// checkChildBoundCase runs a decoded case as queries and holds every child's
// derived bound to fill's, and the pricing search's ranking to the search
// without supply fields, which never prices, and to the enumeration.
func checkChildBoundCase(t testing.TB, fc fieldCase) (kinds childKinds) {
	t.Helper()
	s := fc.searcher(t)
	n := fc.g.NumNodes()
	for _, terms := range [][]string{{"alpha"}, {"alpha", "beta"}} {
		if len(fc.matchers[len(terms)-1]) == 0 {
			continue
		}
		opts := Options{K: 1 + n%4, Diameter: fc.levels + 1, ExtendedMerge: true}
		kinds.add(checkChildBounds(t, s, terms, opts, 256))
		got, _, err := s.TopK(terms, opts)
		if err != nil {
			t.Fatal(err)
		}
		static := opts
		static.NoDynamicBounds = true
		want, _, err := s.TopK(terms, static)
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, fmt.Sprintf("query %v %+v against the unpriced search", terms, opts), want, got)
		all, err := s.ExhaustiveTopK(terms, opts, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != len(got) {
			t.Fatalf("query %v %+v: %d answers, enumeration has %d", terms, opts, len(got), len(all))
		}
		for i := range all {
			if math.Abs(got[i].Score-all[i].Score) > 1e-9*all[i].Score {
				t.Fatalf("query %v %+v: answer %d scores %v, enumerated %v", terms, opts, i, got[i].Score, all[i].Score)
			}
		}
		kinds.ranked++
	}
	return kinds
}

// TestChildBoundMatchesFill is the pre-build bound's soundness argument as a
// property, on the inputs this package can build: the fuzz decoder's graphs
// (random rates, per-direction weights, nodes matching both terms), the random
// fixtures, a hub, and Fig. 2.
func TestChildBoundMatchesFill(t *testing.T) {
	var kinds childKinds
	rng := rand.New(rand.NewSource(25))
	for round := 0; round < 300; round++ {
		data := make([]byte, 1+3*8+2*rng.Intn(16))
		rng.Read(data)
		fc, ok := decodeFieldCase(data)
		if !ok {
			t.Fatalf("round %d: %d bytes did not decode", round, len(data))
		}
		kinds.add(checkChildBoundCase(t, fc))
	}
	for seed := int64(0); seed < 40; seed++ {
		fx := randomFixture(t, rand.New(rand.NewSource(seed)))
		for _, terms := range [][]string{{"alpha"}, {"alpha", "beta"}, {"alpha", "beta", "spoke"}} {
			for _, d := range []int{1, 2, 3, 4, 5} {
				kinds.add(checkChildBounds(t, fx.s, terms, Options{K: 3, Diameter: d, ExtendedMerge: seed%2 == 0}, 256))
			}
		}
	}
	kinds.add(checkChildBounds(t, hubFixture(t, 12, 0).s, hubTerms, Options{K: 5, Diameter: 4}, 512))
	kinds.add(checkChildBounds(t, fig2Fixture(t).s, []string{"papakonstantinou", "ullman"}, Options{K: 2, Diameter: 4}, 512))
	t.Logf("%+v", kinds)
	if kinds.lone < 100 || kinds.complete < 100 || kinds.missing < 100 || kinds.matcher < 100 || kinds.free < 100 ||
		kinds.rootSource < 100 || kinds.doomed < 100 || kinds.rowDoomed < 100 || kinds.rowTight < 100 || kinds.ranked < 100 {
		t.Fatalf("some case of the bound went nearly unexercised: %+v", kinds)
	}
}

// stubKinds counts what checkStubs saw, so a test can demand that its inputs
// reached every kind of stub.
type stubKinds struct {
	missing, freeRoot int // the child misses a term; it covers all, under a free root
	built, unbuilt    int // a merge built it; nothing did
}

func (k *stubKinds) add(o stubKinds) {
	k.missing, k.freeRoot = k.missing+o.missing, k.freeRoot+o.freeRoot
	k.built, k.unbuilt = k.built+o.built, k.unbuilt+o.unbuilt
}

// checkStubs runs the query and holds every stub the search made to the
// child it stands for, built here from its parent and filled: the child sits
// at the depth limit, covers the stub's cover, is no answer, and fill bounds
// it within preBoundSlack of the stub's priced bound, both ways; a stub kept
// as a merge operand splits its root over the denominator fill keeps. A stub
// a merge built must be that child.
func checkStubs(t testing.TB, s *Searcher, terms []string, opts Options) (kinds stubKinds) {
	t.Helper()
	sc := newQueryScratch()
	st, err := s.run(context.Background(), sc, terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		return kinds
	}
	g := s.m.Graph()
	for _, c := range sc.cands.handedOut() {
		if c.parent == nil {
			continue
		}
		nb := sc.roots[c.root].node
		child, err := c.parent.Grow(g, nb)
		if err != nil {
			t.Fatal(err)
		}
		if c.tree != nil {
			if !c.tree.Equal(child) {
				t.Fatalf("query %v %+v: the stub of %s grown to %d was built as %s", terms, opts, c.parent.CanonicalKey(), nb, c.tree.CanonicalKey())
			}
			kinds.built++
		} else {
			kinds.unbuilt++
		}
		filled := &candidate{tree: child, root: c.root}
		st.supplyLists(c.root, nb, child.Depth())
		st.fill(filled)
		if child.Depth() != halfDiameter(opts.Diameter) || filled.complete || filled.cover != c.cover ||
			c.ub*(1+preBoundSlack) < filled.ub || c.ub > filled.ub*(1+preBoundSlack) {
			t.Fatalf("query %v %+v: stub of %s grown to %d at depth %d: priced cover %b bound %.17g, filled cover %b bound %.17g, answer %v",
				terms, opts, c.parent.CanonicalKey(), nb, child.Depth(), c.cover, c.ub, filled.cover, filled.ub, filled.complete)
		}
		if st.mergeable(filled) && c.merge.denom != filled.merge.denom {
			t.Fatalf("query %v %+v: stub of %s grown to %d keeps root denominator %.17g, fill keeps %.17g",
				terms, opts, c.parent.CanonicalKey(), nb, c.merge.denom, filled.merge.denom)
		}
		if c.cover != st.qc.full {
			kinds.missing++
		} else {
			kinds.freeRoot++
		}
	}
	return kinds
}

// TestTerminalStubMatchesBuilt is the stub's exactness argument as a
// property, on TestChildBoundMatchesFill's inputs: a terminal child the
// search priced and did not build is the child fill would have seen, priced
// as fill would have bounded it, and never an answer.
func TestTerminalStubMatchesBuilt(t *testing.T) {
	var kinds stubKinds
	rng := rand.New(rand.NewSource(25))
	for round := 0; round < 300; round++ {
		data := make([]byte, 1+3*8+2*rng.Intn(16))
		rng.Read(data)
		fc, ok := decodeFieldCase(data)
		if !ok {
			t.Fatalf("round %d: %d bytes did not decode", round, len(data))
		}
		s := fc.searcher(t)
		for _, terms := range [][]string{{"alpha"}, {"alpha", "beta"}} {
			if len(fc.matchers[len(terms)-1]) != 0 {
				kinds.add(checkStubs(t, s, terms, Options{K: 1 + fc.g.NumNodes()%4, Diameter: fc.levels + 1, ExtendedMerge: true}))
			}
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		fx := randomFixture(t, rand.New(rand.NewSource(seed)))
		for _, terms := range [][]string{{"alpha"}, {"alpha", "beta"}, {"alpha", "beta", "spoke"}} {
			for _, d := range []int{1, 2, 3, 4, 5} {
				kinds.add(checkStubs(t, fx.s, terms, Options{K: 3, Diameter: d, ExtendedMerge: seed%2 == 0}))
			}
		}
	}
	kinds.add(checkStubs(t, hubFixture(t, 12, 0).s, hubTerms, Options{K: 5, Diameter: 4}))
	kinds.add(checkStubs(t, fig2Fixture(t).s, []string{"papakonstantinou", "ullman"}, Options{K: 2, Diameter: 4}))
	t.Logf("%+v", kinds)
	if kinds.missing < 100 || kinds.freeRoot < 100 || kinds.built < 100 || kinds.unbuilt < 100 {
		t.Fatalf("some kind of stub went nearly unexercised: %+v", kinds)
	}
}

// FuzzChildBound runs whatever graph, rates and matchers the bytes decode to
// (FuzzSupplyField's decoder) as queries: every derived bound is held to
// fill's, and the ranking to the unpriced search and the enumeration.
// The seeds are the committed corpus under testdata/fuzz/FuzzChildBound.
func FuzzChildBound(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if fc, ok := decodeFieldCase(data); ok {
			checkChildBoundCase(t, fc)
		}
	})
}

// TestZeroScoreAnswerSurvivesPricing is the regression test of the first
// trap: commit records a complete answer before it looks at the bound, so
// while the list has room an answer that scores 0 is still an answer, and
// the skip rule must not drop a child for a zero bound unless it misses a
// term. Every edge has its reverse, so no tree over a graph scores 0 any
// more; the rule is held directly.
func TestZeroScoreAnswerSurvivesPricing(t *testing.T) {
	fx := build(t, []string{"alpha", "beta", "mid"}, []float64{1, 1, 1}, [][2]int{{0, 2}, {1, 2}})
	terms := []string{"alpha", "beta"}
	opts := Options{K: 5, Diameter: 4}

	// The rule itself: a zero bound condemns only a child that misses a
	// term, and a full list condemns whatever its k-th answer beats.
	sc := newQueryScratch()
	if _, ok, err := fx.s.prepareInto(sc, terms); err != nil || !ok {
		t.Fatal(err)
	}
	st := newBBState(fx.s, sc, opts)
	if st.condemned(0, st.qc.full) || !st.condemned(0, 1) {
		t.Error("with room in the list a zero bound must condemn a child missing a term, and only that")
	}
	st.top.k = 1
	st.top.add(jtt.NewSingle(0), 2)
	if !st.condemned(1, st.qc.full) || st.condemned(2, st.qc.full) || st.condemned(2*(1-preBoundSlack/2), 1) {
		t.Error("a full list must condemn a bound below its k-th score, beyond the rounding slack, and nothing else")
	}
}

// TestUndecidedSupplyListBuildsChild is the regression test of the second
// trap. The hub h lists its four best beta suppliers x1…x4, and the list is
// truncated: x5, a weak beta node, did not fit. The tree r{x1…x4} holds all
// four, so for its child over r→h the list alone cannot tell — reading that
// as "no supply" would price the child at 0 and drop it, though x5 can still
// supply it.
func TestUndecidedSupplyListBuildsChild(t *testing.T) {
	const (
		r, h, x5 = 0, 1, 10
	)
	texts := []string{"mid", "hub"}
	imp := []float64{1, 1}
	var edges [][2]int
	for i := 0; i < 4; i++ { // x_i = 2+2i matches alpha and hangs a strong beta node y_i = 3+2i
		texts = append(texts, "alpha", "beta")
		imp = append(imp, 1, 50)
		edges = append(edges, [2]int{r, 2 + 2*i}, [2]int{h, 2 + 2*i}, [2]int{2 + 2*i, 3 + 2*i})
	}
	texts = append(texts, "beta pad pad pad")
	imp = append(imp, 0.1)
	edges = append(edges, [2]int{h, x5}, [2]int{r, h})
	fx := build(t, texts, imp, edges)
	terms := []string{"alpha", "beta"}
	opts := Options{K: 4096, Diameter: 4, ExtendedMerge: true}

	sc := newQueryScratch()
	if _, ok, err := fx.s.prepareInto(sc, terms); err != nil || !ok {
		t.Fatal(err)
	}
	st := newBBState(fx.s, sc, opts)
	tree := jtt.NewSingle(r)
	for i := 0; i < 4; i++ {
		tree = tree.MustAttach(graph.NodeID(2+2*i), r)
	}
	c := &candidate{tree: tree, root: st.rootOf(r)}
	w, _ := fx.g.Weight(r, h)
	edge := graph.HalfEdge{To: h, Weight: w}
	parent := st.viewParent(c)
	ub, cover := st.childBound(parent, edge)
	v := &sc.child
	lv, _ := st.supplyLevel(v.depth)
	if _, decided := st.supplyList(v.root, lv, 1).bestOutside(v); decided {
		t.Fatal("fixture broken: h's beta list decides the child by itself")
	}
	if ub <= 0 || st.condemned(ub, cover) {
		t.Fatalf("the child over r→h is priced %v and dropped; x5 can still supply it", ub)
	}

	got, _, err := fx.s.TopK(terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range got {
		found = found || a.Tree.Size() == 7 && a.Tree.Contains(x5) && a.Tree.Contains(r)
	}
	if !found {
		t.Fatalf("the answer joining x1…x4 to x5 through r→h is missing from %d answers", len(got))
	}
	static := opts
	static.NoDynamicBounds = true
	want, _, err := fx.s.TopK(terms, static)
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "against the unpriced search", want, got)
}

// mergeKinds counts what checkMergePrices saw, so a test can demand that its
// inputs reached every case of the price.
type mergeKinds struct {
	checked    int // merges priced and built
	stub       int // of them, with a priced, unbuilt operand
	rootSource int // of them, under a root that is a source
	tight      int // of them, priced within 1% of fill's bound
}

func (k *mergeKinds) add(o mergeKinds) {
	k.checked, k.stub, k.rootSource, k.tight = k.checked+o.checked, k.stub+o.stub, k.rootSource+o.rootSource, k.tight+o.tight
}

// checkMergePrices holds the merge price to fill's bound on every merge the
// search could price for the query, among up to maxTrees trees: the closure
// of the matchers under grow and merge within the depth limit, as
// checkChildBounds walks it. Each tree is an operand twice, when it is a
// grown child: built, with the summary fill keeps, and unbuilt, with the
// one the expansion step keeps for a stub. For every two operands sharing a
// root that the options' rule admits, whose union covers every term and
// which merge, the price must not lie below the bound fill computes for the
// built merge, within preBoundSlack.
func checkMergePrices(t testing.TB, s *Searcher, terms []string, opts Options, maxTrees int) (kinds mergeKinds) {
	t.Helper()
	o, ok, err := s.NewBoundOracle(terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return kinds
	}
	st, g := o.st, s.m.Graph()
	qc := st.qc
	seen := make(map[string]bool)
	var trees []*jtt.Tree
	var ops []*candidate
	keep := func(c *candidate) { // as commit registers it
		if c.ub > 0 && st.mergeable(c) {
			ops = append(ops, c)
		}
	}
	push := func(tree, parent *jtt.Tree) {
		key := fmt.Sprintf("%d|%s", tree.Root(), tree.CanonicalKey())
		if seen[key] || len(trees) >= maxTrees {
			return
		}
		seen[key] = true
		trees = append(trees, tree)
		built := &candidate{tree: tree, root: st.rootOf(tree.Root())}
		st.supplyLists(built.root, tree.Root(), tree.Depth())
		st.fill(built)
		keep(built)
		if parent == nil || qc.levels == 0 {
			return
		}
		// The stub's summary, as stub keeps it from the view childBound
		// derived; a child with no supply for a missing term is never one.
		pc := &candidate{tree: parent, root: st.rootOf(parent.Root())}
		w, _ := g.Weight(parent.Root(), tree.Root())
		ub, cover := st.childBound(st.viewParent(pc), graph.HalfEdge{To: tree.Root(), Weight: w})
		if cover != qc.full && ub <= 0 {
			return
		}
		stub := &candidate{parent: parent, cover: cover, ub: ub, root: st.rootOf(tree.Root())}
		back, _ := g.Weight(tree.Root(), parent.Root())
		if st.mergeable(stub) {
			st.keepView(stub, &st.sc.child, back)
		}
		keep(stub)
	}
	for _, v := range qc.nonFree {
		push(jtt.NewSingle(v), nil)
	}
	for i := 0; i < len(trees); i++ {
		tree := trees[i]
		for _, other := range trees[:i] {
			if merged, err := tree.Merge(other); err == nil && other.Root() == tree.Root() {
				push(merged, nil)
			}
		}
		if tree.Depth() >= o.GrowthDepthLimit() {
			continue
		}
		for _, e := range g.OutEdges(tree.Root()) {
			if !tree.Contains(e.To) {
				child, err := tree.Grow(g, e.To)
				if err != nil {
					t.Fatal(err)
				}
				push(child, tree)
			}
		}
	}
	treeOf := func(c *candidate) *jtt.Tree {
		if c.tree != nil {
			return c.tree
		}
		child, err := c.parent.Grow(g, st.sc.roots[c.root].node)
		if err != nil {
			t.Fatal(err)
		}
		return child
	}
	for i, a := range ops {
		for _, b := range ops[:i] {
			union := a.cover | b.cover
			if a.root != b.root || union != qc.full || !opts.ExtendedMerge && (union == a.cover || union == b.cover) {
				continue
			}
			merged, err := treeOf(a).Merge(treeOf(b))
			if err != nil {
				continue
			}
			price := st.mergePrice(a, b)
			ub, _, _ := o.Evaluate(merged)
			if price*(1+preBoundSlack) < ub {
				t.Fatalf("query %v %+v: merge %s of %s and %s priced %.17g, fill bounds it %.17g",
					terms, opts, merged.CanonicalKey(), treeOf(a).CanonicalKey(), treeOf(b).CanonicalKey(), price, ub)
			}
			kinds.checked++
			if a.tree == nil || b.tree == nil {
				kinds.stub++
			}
			if qc.masks[merged.Root()] != 0 {
				kinds.rootSource++
			}
			if price <= ub*1.01 {
				kinds.tight++
			}
		}
	}
	return kinds
}

// checkMergePriceCase runs a decoded case's queries through checkMergePrices
// under both merge rules.
func checkMergePriceCase(t testing.TB, fc fieldCase) (kinds mergeKinds) {
	t.Helper()
	s := fc.searcher(t)
	for _, terms := range [][]string{{"alpha"}, {"alpha", "beta"}} {
		if len(fc.matchers[len(terms)-1]) == 0 {
			continue
		}
		for _, extended := range []bool{false, true} {
			opts := Options{K: 1 + fc.g.NumNodes()%4, Diameter: fc.levels + 1, ExtendedMerge: extended}
			kinds.add(checkMergePrices(t, s, terms, opts, 128))
		}
	}
	return kinds
}

// TestMergePriceBoundsFill is the merge price's soundness argument as a
// property, on TestChildBoundMatchesFill's inputs and under both merge
// rules: a merge is never priced below the bound fill gives it built, so
// commit skips only merges it would have dropped.
func TestMergePriceBoundsFill(t *testing.T) {
	var kinds mergeKinds
	rng := rand.New(rand.NewSource(25))
	for round := 0; round < 300; round++ {
		data := make([]byte, 1+3*8+2*rng.Intn(16))
		rng.Read(data)
		fc, ok := decodeFieldCase(data)
		if !ok {
			t.Fatalf("round %d: %d bytes did not decode", round, len(data))
		}
		kinds.add(checkMergePriceCase(t, fc))
	}
	for seed := int64(0); seed < 40; seed++ {
		fx := randomFixture(t, rand.New(rand.NewSource(seed)))
		for _, terms := range [][]string{{"alpha"}, {"alpha", "beta"}, {"alpha", "beta", "spoke"}} {
			for _, d := range []int{2, 3, 4, 5} {
				for _, extended := range []bool{false, true} {
					kinds.add(checkMergePrices(t, fx.s, terms, Options{K: 3, Diameter: d, ExtendedMerge: extended}, 128))
				}
			}
		}
	}
	kinds.add(checkMergePrices(t, hubFixture(t, 12, 0).s, hubTerms, Options{K: 5, Diameter: 4}, 512))
	kinds.add(checkMergePrices(t, fig2Fixture(t).s, []string{"papakonstantinou", "ullman"}, Options{K: 2, Diameter: 4}, 512))
	t.Logf("%+v", kinds)
	if kinds.checked < 1000 || kinds.stub < 100 || kinds.rootSource < 100 || kinds.tight < 100 {
		t.Fatalf("some case of the price went nearly unexercised: %+v", kinds)
	}
}

// FuzzMergePrice runs whatever graph, rates and matchers the bytes decode to
// (FuzzSupplyField's decoder) as queries under both merge rules: no merge is
// priced below fill's bound for it built. The seeds are the committed corpus
// under testdata/fuzz/FuzzMergePrice.
func FuzzMergePrice(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if fc, ok := decodeFieldCase(data); ok {
			checkMergePriceCase(t, fc)
		}
	})
}
