package search

import (
	"fmt"
	"math/rand"
	"testing"

	"cirank/internal/graph"
	"cirank/internal/jtt"
)

// summaryFixture builds a hub (node 0) with n out-neighbours of pairwise
// distinct importance, so their dampening rates differ. Neighbour i < n
// matches "alpha" when i%2 == 0 and "beta" when i%3 == 0, with a word count
// that varies the generation counts. Neighbour n is the only "gamma" node.
func summaryFixture(t testing.TB, n int) *fixture {
	texts := []string{"hub"}
	imp := []float64{1}
	var edges [][2]int
	for i := 1; i < n; i++ {
		text := fmt.Sprintf("free%d", i)
		if i%2 == 0 {
			text += " alpha"
		}
		if i%3 == 0 {
			text += " beta"
		}
		for pad := 0; pad < i%4; pad++ {
			text += fmt.Sprintf(" pad%d", pad)
		}
		texts = append(texts, text)
		imp = append(imp, float64(1+(i*7)%n))
		edges = append(edges, [2]int{0, i})
	}
	texts = append(texts, "gamma")
	imp = append(imp, float64(1+(n*7)%n))
	return build(t, texts, imp, append(edges, [2]int{0, n}))
}

// TestSupplyListMatchesFullScan holds the supply lists to scanSupply — the
// definition — for trees rooted at the hub that contain none, some and all
// of the neighbours a list names, so both the listed answer and the
// exhausted-truncated-list fallback are exercised, at every field level the
// diameter allows; and on a low-degree root, whose untruncated lists must
// decide every tree themselves.
func TestSupplyListMatchesFullScan(t *testing.T) {
	terms := []string{"alpha", "beta", "gamma"}
	for _, degree := range []int{rootTop, 3 * rootTop} {
		fx := summaryFixture(t, degree)
		var listed, fellBack int
		for diameter := 1; diameter <= 5; diameter++ {
			sc := newQueryScratch()
			if _, ok, err := fx.s.prepareInto(sc, terms); err != nil || !ok {
				t.Fatalf("degree %d: prepare: %v", degree, err)
			}
			st := newBBState(fx.s, sc, Options{K: 3, Diameter: diameter})
			hub := st.rootOf(0)
			// Trees to try: the hub alone, prefixes of its neighbours in
			// each term's field order at each level (these swallow the
			// lists front to back), and random neighbour subsets.
			trees := []*jtt.Tree{jtt.NewSingle(0)}
			for ti := range terms {
				for lv := 0; lv < st.qc.levels; lv++ {
					order := make([]graph.NodeID, degree)
					vals := make([]float64, degree+1)
					for i := range order {
						order[i] = graph.NodeID(i + 1)
						vals[i+1] = sc.fields[ti].row(order[i])[lv]
					}
					sortDesc(order, vals)
					tree := jtt.NewSingle(0)
					for _, v := range order {
						tree = tree.MustAttach(v, 0)
						trees = append(trees, tree)
					}
				}
			}
			rng := rand.New(rand.NewSource(int64(degree)))
			for i := 0; i < 50; i++ {
				tree := jtt.NewSingle(0)
				for v := 1; v <= degree; v++ {
					if rng.Intn(2) == 0 {
						tree = tree.MustAttach(graph.NodeID(v), 0)
					}
				}
				trees = append(trees, tree)
			}
			for _, tree := range trees {
				st.supplyLists(hub, 0, tree.Depth())
				lv, ok := st.supplyLevel(tree.Depth())
				var v boundView
				v.at(tree, hub)
				for ti := range terms {
					got := st.bestSupply(ti, &v)
					if !ok {
						if got != 0 {
							t.Fatalf("degree %d D=%d tree %s: supply %v with no budget left", degree, diameter, tree.CanonicalKey(), got)
						}
						continue
					}
					if _, decided := st.supplyList(hub, lv, ti).bestOutside(&v); decided {
						listed++
					} else {
						fellBack++
					}
					if want := st.scanSupply(ti, lv, &v); got != want {
						t.Fatalf("degree %d D=%d tree %s term %q level %d: supply %v, full scan %v",
							degree, diameter, tree.CanonicalKey(), terms[ti], lv, got, want)
					}
				}
			}
		}
		if listed == 0 || (fellBack > 0) != (degree > rootTop) {
			t.Fatalf("degree %d: %d bounds answered from the lists, %d by the fallback", degree, listed, fellBack)
		}
	}
}

// sortDesc orders nodes by vals descending, ties by node ascending — the
// order topList.offer maintains.
func sortDesc(nodes []graph.NodeID, vals []float64) {
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && vals[nodes[j-1]] < vals[nodes[j]]; j-- {
			nodes[j-1], nodes[j] = nodes[j], nodes[j-1]
		}
	}
}

// TestTopListKeepsBestFour checks offer against a sort of everything offered.
func TestTopListKeepsBestFour(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		n := rng.Intn(3 * rootTop)
		vals := make([]float64, n)
		all := make([]graph.NodeID, n)
		var l topList
		for i := range vals {
			vals[i] = float64(rng.Intn(6)) // few values, so ties occur
			all[i] = graph.NodeID(i)
			l.offer(all[i], vals, 1)
		}
		sortDesc(all, vals)
		want := all[:min(n, rootTop)]
		if fmt.Sprint(l.nodes[:l.n]) != fmt.Sprint(want) || l.truncated != (n > rootTop) {
			t.Fatalf("round %d: listed %v truncated %v, want %v of %d offered (vals %v)", round, l.nodes[:l.n], l.truncated, want, n, vals)
		}
	}
}

// TestBucketWalkMatchesScan holds the cover-bucketed merge registry to the
// scan it replaces: over random cover sequences of one to five terms, with
// extended merging on and off, the walk for each committed candidate yields
// exactly the earlier candidates the admission rule accepts, in commit order.
// One registry serves every round, reset as rootOf resets a record, so the
// rounds also re-use released buckets.
func TestBucketWalkMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var rs rootState
	var walk bucketWalk
	for round := 0; round < 400; round++ {
		terms, extended, n := 1+rng.Intn(5), round%2 == 1, 1+rng.Intn(120)
		full := uint64(1)<<terms - 1
		rs.buckets = rs.buckets[:0]
		var committed []*candidate
		for seq := 0; seq < n; seq++ {
			c := &candidate{cover: 1 + uint64(rng.Int63n(int64(full))), seq: seq}
			var want, got []int
			for _, o := range committed {
				if u := o.cover | c.cover; extended || u != o.cover && u != c.cover {
					want = append(want, o.seq)
				}
			}
			walk.start(&rs, c.cover, extended)
			for o := walk.next(); o != nil; o = walk.next() {
				got = append(got, o.seq)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d (%d terms, extended %v): candidate %d covering %b walks %v, the scan admits %v",
					round, terms, extended, seq, c.cover, got, want)
			}
			rs.register(c)
			committed = append(committed, c)
		}
		if len(rs.buckets) > int(full) {
			t.Fatalf("round %d: %d buckets for %d covers", round, len(rs.buckets), full)
		}
	}
}

// TestTreeSetIsExactUnderCollisions forces every insert onto one hash value,
// so membership rests on structural equality alone: trees over one node set
// that differ in a single parent or only in the root stay apart, and one
// rooted tree stays one entry however it was built.
func TestTreeSetIsExactUnderCollisions(t *testing.T) {
	var set treeSet
	add := func(tree *jtt.Tree) bool { return set.add(tree, 42) }

	star := jtt.NewSingle(1).MustAttach(2, 1).MustAttach(3, 1)  // 2→1, 3→1
	chain := jtt.NewSingle(1).MustAttach(2, 1).MustAttach(3, 2) // 2→1, 3→2: one parent differs
	rerooted := chain.Reroot(2)                                 // same edges as chain, root 2
	for i, tree := range []*jtt.Tree{star, chain, rerooted} {
		if !add(tree) {
			t.Errorf("tree %d (%s rooted at %d) taken for an earlier one", i, tree.CanonicalKey(), tree.Root())
		}
	}
	if chain.CanonicalKey() != rerooted.CanonicalKey() || chain.Hash() == rerooted.Hash() {
		t.Errorf("rerooting must keep the canonical key and change the hash")
	}

	// Root 1 over child 2 with leaves 3 and 4, plus leaf 5 under the root:
	// grow-merge-grow-merge from an arena, the same with every merge's
	// operands swapped and the chains built in the other order, and leaf by
	// leaf on the heap.
	var arena jtt.Arena
	leaf := func(v, parent graph.NodeID) *jtt.Tree { return arena.GrowEdge(arena.NewSingle(v), parent) }
	merge := func(a, b *jtt.Tree) *jtt.Tree {
		m, err := arena.Merge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	built := []*jtt.Tree{
		merge(arena.GrowEdge(merge(leaf(3, 2), leaf(4, 2)), 1), leaf(5, 1)),
		merge(leaf(5, 1), arena.GrowEdge(merge(leaf(4, 2), leaf(3, 2)), 1)),
		jtt.NewSingle(1).MustAttach(5, 1).MustAttach(2, 1).MustAttach(4, 2).MustAttach(3, 2),
	}
	if !add(built[0]) {
		t.Fatal("first build of the five-node tree reported present")
	}
	for i, tree := range built[1:] {
		if !tree.Equal(built[0]) || tree.Hash() != built[0].Hash() || add(tree) {
			t.Errorf("build %d of the same rooted tree is a second entry", i+1)
		}
	}

	// Growth keeps every entry findable: colliding inserts past the initial
	// table, then well-spread ones by their real hashes.
	before := set.n
	var singles []*jtt.Tree
	for v := graph.NodeID(100); v < 100+treeSetMin; v++ {
		singles = append(singles, jtt.NewSingle(v))
	}
	for _, tree := range singles {
		if !add(tree) {
			t.Fatalf("single %d reported present", tree.Root())
		}
	}
	for _, tree := range singles {
		if !set.add(tree.MustAttach(1, tree.Root()), tree.Hash()) {
			t.Fatalf("two-node tree over %d reported present", tree.Root())
		}
	}
	if set.n != before+2*len(singles) || len(set.slots) < 2*set.n {
		t.Fatalf("set holds %d trees in %d slots after %d inserts", set.n, len(set.slots), before+2*len(singles))
	}
	for _, tree := range append(singles, star, chain, rerooted, built[0]) {
		if add(tree) {
			t.Fatalf("tree %s rooted at %d lost in growth", tree.CanonicalKey(), tree.Root())
		}
	}
	set.reset()
	if set.n != 0 || !add(star) {
		t.Error("reset set still holds trees")
	}
}
