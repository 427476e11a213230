package search

import (
	"context"
	"fmt"
	"testing"

	"cirank/internal/graph"
	"cirank/internal/jtt"
)

// hubFixture builds a free hub with n spokes, each a free connector ending in
// a keyword leaf ("alpha" on even spokes, "beta" on odd ones), all equally
// important. Every alpha–beta answer at diameter 4 is centered on the hub, so
// the merge closure at the hub is quadratic in n and nothing prunes it; and
// every spoke reaches the hub as a depth-⌈D/2⌉ candidate, the shape whose
// expansion used to build one doomed tree per hub neighbour.
//
// pairs adds that many isolated alpha–beta edges of negligible importance
// after the hub's nodes: each is two seeds the frontier queues at the start
// and the search never needs to pop, so they widen the growable frontier
// without adding expansions.
func hubFixture(t testing.TB, n, pairs int) *fixture {
	return hubFixtureOf(t, n, pairs, "alpha", "beta")
}

// hubFixtureOf is hubFixture with the given leaf texts in place of "alpha"
// and "beta", on the spokes and in the pairs alike.
func hubFixtureOf(t testing.TB, n, pairs int, even, odd string) *fixture {
	texts := []string{"hub"}
	var edges [][2]int
	for i := 0; i < n; i++ {
		mid, leaf := 1+2*i, 2+2*i
		word := even
		if i%2 == 1 {
			word = odd
		}
		texts = append(texts, fmt.Sprintf("free%d", i), word)
		edges = append(edges, [2]int{0, mid}, [2]int{mid, leaf})
	}
	imp := make([]float64, len(texts), len(texts)+2*pairs)
	for i := range imp {
		imp[i] = 1
	}
	for i := 0; i < pairs; i++ {
		edges = append(edges, [2]int{len(texts), len(texts) + 1})
		texts = append(texts, even, odd)
		imp = append(imp, 1e-6, 1e-6)
	}
	return build(t, texts, imp, edges)
}

var hubTerms = []string{"alpha", "beta"}

// TestArenaHandsOutOnlyKeptTrees is the "pruned earlier, not differently"
// accounting: over a whole hub query the arena hands out exactly the trees
// Stats.Built counts — seeds, grows that passed every check, successful
// merges, and the terminal children a merge needed — so none is built to be
// discarded for depth. And on the Fig. 2 query it hands out fewer trees than
// children passed the cheap checks: the bound check spares some, unless the
// query has no supply fields to price them from.
func TestArenaHandsOutOnlyKeptTrees(t *testing.T) {
	fig2 := fig2Fixture(t)
	for _, static := range []bool{false, true} {
		sc := newQueryScratch()
		st, err := fig2.s.run(context.Background(), sc, []string{"tsimmis", "ullman"},
			Options{K: 2, Diameter: 4, NoDynamicBounds: static})
		if err != nil {
			t.Fatal(err)
		}
		if got := sc.arena.Trees(); got != st.stats.Built || (st.stats.Spared > 0) == static {
			t.Errorf("fig2 static=%v: arena handed out %d trees, Stats counts %d built, the bound check spared %d",
				static, got, st.stats.Built, st.stats.Spared)
		}
	}
	fx := hubFixture(t, 40, 0)
	sc := newQueryScratch()
	st, err := fx.s.run(context.Background(), sc, hubTerms, Options{K: 5, Diameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Every spoke reaches the hub through two expansions: its leaf grows to
	// the connector, and that tree to the hub. The depth-2 trees at the hub
	// merge but are never queued.
	if st.stats.Answers == 0 || st.stats.Expanded < 80 || st.stats.Truncated || st.stats.Interrupted {
		t.Fatalf("unexpected stats %+v", st.stats)
	}
	if got := sc.arena.Trees(); got != st.stats.Built {
		t.Errorf("hub: arena handed out %d trees, Stats counts %d built", got, st.stats.Built)
	}
}

// TestReleasedScratchIsCapped runs a hub query whose working set exceeds
// every retention cap and checks that the released scratch — what the pool
// would hold — keeps no more than the caps, and still answers correctly.
func TestReleasedScratchIsCapped(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine retention check; the 40k-candidate query is slow under the race detector")
	}
	// The hub's merge closure is terminal at D = 4 and never queued; the
	// idle pairs' seeds are what push the growable frontier past its cap.
	// The odd leaves match two terms, so the query has three: with two,
	// merges cannot repeat and skip the seen set (bb.go, process).
	pairs := ptrBufCap/2 + 1
	fx := hubFixtureOf(t, 400, pairs, "alpha", "beta gamma")
	terms := []string{"alpha", "beta", "gamma"}
	opts := Options{K: 5, Diameter: 4}
	sc := newQueryScratch()
	st, err := fx.s.run(context.Background(), sc, terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sc.seen.n <= seenMapCap || len(sc.cands.slabs) <= candSlabKeep || cap(sc.pq) <= ptrBufCap || len(sc.roots) <= rootsCap ||
		len(sc.region.nodes) <= ptrBufCap {
		t.Fatalf("fixture too small to exceed the caps: seen %d, cand slabs %d, pq %d, roots %d, field region %d",
			sc.seen.n, len(sc.cands.slabs), cap(sc.pq), len(sc.roots), len(sc.region.nodes))
	}
	if st.stats.Answers == 0 || st.stats.Expanded > 4*400 || st.stats.Truncated || st.stats.Interrupted {
		t.Fatalf("the idle pairs were expanded, or the hub query went wrong: %+v", st.stats)
	}
	// The hub roots the 40k-candidate merge closure, and every node of the
	// fixture roots something.
	hub := &sc.roots[sc.rootAt[0]-1]
	hubBucket := 0
	for _, b := range hub.buckets {
		hubBucket = max(hubBucket, cap(b.cands))
	}
	if hubBucket <= rootListCap || len(sc.roots) != len(sc.rootAt) {
		t.Fatalf("unexpected root records: hub registry bucket %d, %d roots over %d nodes", hubBucket, len(sc.roots), len(sc.rootAt))
	}
	// The bound views hold a few floats per source of one tree, the parent's
	// a square of them. The query's trees have two sources; a tree over 300
	// spokes — evaluated, viewed as a parent and priced for a child — grows
	// every view buffer past its cap.
	wide := jtt.NewSingle(0)
	for i := 0; i < 300; i++ {
		mid, leaf := graph.NodeID(1+2*i), graph.NodeID(2+2*i)
		wide = wide.MustAttach(mid, 0).MustAttach(leaf, mid)
	}
	c := &candidate{tree: wide, root: st.rootOf(0)}
	st.fill(c)
	w, _ := fx.g.Weight(0, 601)
	st.childBound(st.viewParent(c), graph.HalfEdge{To: 601, Weight: w})
	views := func() map[string]int {
		fillView, p, ch := &sc.bound.view, &sc.parent, &sc.child
		return map[string]int{
			"fill gens": cap(fillView.gens), "fill atRoot": cap(fillView.atRoot), "fill fromRoot": cap(fillView.fromRoot), "fill inflow": cap(fillView.inflow),
			"parent gens": cap(p.gens), "parent atRoot": cap(p.atRoot), "parent fromRoot": cap(p.fromRoot), "parent inflow": cap(p.inflow),
			"parent deliv": cap(p.deliv), "parent branch": cap(p.branch),
			"child gens": cap(ch.gens), "child atRoot": cap(ch.atRoot), "child fromRoot": cap(ch.fromRoot), "child inflow": cap(ch.inflow),
		}
	}
	for name, c := range views() {
		if c <= viewBufCap {
			t.Fatalf("fixture too small to exceed the view cap: %s holds %d", name, c)
		}
	}
	// Past rootsCap the records go altogether; release still trims each
	// one's registry in place first, which is all a smaller query's
	// retained records hold.
	records := sc.roots[:cap(sc.roots)]
	sc.release()
	for name, c := range views() {
		if c > viewBufCap {
			t.Errorf("retained view buffer %s with capacity %d, cap %d", name, c, viewBufCap)
		}
	}
	if sc.parent.tree != nil || sc.child.tree != nil || sc.bound.view.tree != nil {
		t.Error("a released view still points into the arena")
	}
	if sc.seen.n != 0 || len(sc.seen.slots) != 0 || len(sc.roots) != 0 || sc.arena.Trees() != 0 {
		t.Errorf("released scratch not empty: seen %d in %d slots, roots %d, arena trees %d",
			sc.seen.n, len(sc.seen.slots), len(sc.roots), sc.arena.Trees())
	}
	// The dense tables are sized by the graph, whatever the query did, and
	// come back all zero.
	n := fx.m.Graph().NumNodes()
	if len(sc.qc.masks) != n || len(sc.qc.gen) != n || len(sc.rootAt) != n || len(sc.qc.matchNbrs) != n {
		t.Errorf("dense tables sized %d/%d/%d/%d for %d nodes", len(sc.qc.masks), len(sc.qc.gen), len(sc.rootAt), len(sc.qc.matchNbrs), n)
	}
	for v := range sc.rootAt {
		if sc.qc.masks[v] != 0 || sc.qc.gen[v] != 0 || sc.rootAt[v] != 0 || sc.qc.matchNbrs[v] != 0 {
			t.Fatalf("node %d left dirty: mask %b, gen %g, root record %d, matching neighbours %d", v, sc.qc.masks[v], sc.qc.gen[v], sc.rootAt[v], sc.qc.matchNbrs[v])
		}
	}
	if n := len(sc.cands.slabs); n > candSlabKeep {
		t.Errorf("retained %d candidate slabs, cap %d", n, candSlabKeep)
	}
	for name, c := range map[string]int{
		"pq": cap(sc.pq), "work": cap(sc.work),
	} {
		if c > ptrBufCap {
			t.Errorf("retained %s with capacity %d, cap %d", name, c, ptrBufCap)
		}
	}
	if cap(sc.roots) != 0 {
		t.Errorf("retained %d root records, cap %d", cap(sc.roots), rootsCap)
	}
	for _, rs := range records {
		if cap(rs.buckets) > rootListCap {
			t.Errorf("retained a merge registry of %d buckets, cap %d", cap(rs.buckets), rootListCap)
		}
		for _, b := range rs.buckets[:cap(rs.buckets)] {
			if cap(b.cands) > rootListCap {
				t.Errorf("retained a registry bucket with capacity %d, cap %d", cap(b.cands), rootListCap)
			}
		}
	}
	if cap(sc.walk.rest) > rootListCap {
		t.Errorf("retained a bucket walk of capacity %d, cap %d", cap(sc.walk.rest), rootListCap)
	}
	// The field table of a three-term query is kept, all zero.
	if len(sc.field) == 0 || len(sc.fields) != len(terms) {
		t.Errorf("released scratch kept a %d-entry field table and %d term buffers, want the three-term table", len(sc.field), len(sc.fields))
	}
	for i, v := range sc.field[:cap(sc.field)] {
		if v != 0 {
			t.Fatalf("released field table holds %v at %d", v, i)
		}
	}
	// The field region's node list is dropped past its cap; its visited
	// table, dense like the others, comes back all clear.
	if cap(sc.region.nodes) > ptrBufCap || len(sc.region.ends) != 0 || len(sc.region.degs) != 0 {
		t.Errorf("retained a field region of %d nodes (capacity %d, cap %d) and %d layers",
			len(sc.region.nodes), cap(sc.region.nodes), ptrBufCap, len(sc.region.ends))
	}
	if len(sc.region.seen) != n {
		t.Errorf("field region's visited table sized %d for %d nodes", len(sc.region.seen), n)
	}
	for v, seen := range sc.region.seen {
		if seen {
			t.Fatalf("released field region still marks node %d visited", v)
		}
	}
	// The trimmed scratch must serve the next query like a fresh one (a
	// single-keyword query, so the check stays cheap).
	ranking := func(sc *queryScratch) string {
		st, err := fx.s.run(context.Background(), sc, terms[:1], opts)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, a := range st.top.resultsDetached() {
			out = append(out, fmt.Sprintf("%s=%v", a.Tree.CanonicalKey(), a.Score))
		}
		return fmt.Sprint(out)
	}
	if got, want := ranking(sc), ranking(newQueryScratch()); got != want || got == "[]" {
		t.Errorf("query on the trimmed scratch diverged:\n got %s\nwant %s", got, want)
	}
}

// TestReleasedScratchDropsManyTermFields runs a query with the most terms a
// query may have and checks the pool would not keep its field table, nor 64
// terms' worth of relaxation buffers.
func TestReleasedScratchDropsManyTermFields(t *testing.T) {
	texts := make([]string, maxQueryTerms)
	terms := make([]string, maxQueryTerms)
	imp := make([]float64, maxQueryTerms)
	var edges [][2]int
	for i := range texts {
		terms[i] = fmt.Sprintf("w%d", i)
		texts[i] = terms[i]
		imp[i] = 1
		if i > 0 {
			edges = append(edges, [2]int{i - 1, i})
		}
	}
	fx := build(t, texts, imp, edges)
	sc := newQueryScratch()
	if _, err := fx.s.run(context.Background(), sc, terms, Options{K: 1, Diameter: 2 * maxSupplyLevels}); err != nil {
		t.Fatal(err)
	}
	if want := maxQueryTerms * maxQueryTerms * maxSupplyLevels; len(sc.field) != want || len(sc.fields) != maxQueryTerms {
		t.Fatalf("a %d-term query used a %d-entry table and %d term buffers, want %d", maxQueryTerms, len(sc.field), len(sc.fields), want)
	}
	sc.release()
	if sc.field != nil || len(sc.fields) != fieldKeepTerms {
		t.Errorf("released scratch kept a %d-entry field table and %d term buffers, want none and %d", cap(sc.field), len(sc.fields), fieldKeepTerms)
	}
	for i, fs := range sc.fields[:cap(sc.fields)] {
		if fs.out != nil || (i >= fieldKeepTerms && cap(fs.touched) != 0) {
			t.Errorf("term buffer %d still pins the table or its lists", i)
		}
	}
}
