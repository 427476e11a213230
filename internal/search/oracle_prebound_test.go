package search_test

import (
	"math"
	"testing"

	"cirank/internal/difftest"
	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/search"
)

// TestChildBoundOnGenerators walks the difftest workloads: for every
// candidate tree on the way to an enumerated answer, and every keyword node
// alone, and every out-neighbour of its root it does not hold, the bound the
// expansion step prices the unbuilt child at from its root's field row must
// agree within 1e-9 relative — the slack the search stores the price with —
// with the bound the built child's own flows give under the same row
// supplies (RowBound). Evaluate reads the same row for the built child, so
// the price must agree with its bound within that slack on both sides: it is
// 0 only where that is 0 too, and the skip rule drops only children commit
// would have. The children must span the bound's three cases, grown nodes
// that match and that do not, and parents whose root is a source.
func TestChildBoundOnGenerators(t *testing.T) {
	const slack = 1e-9
	var lone, complete, missing, matcher, free, rootSource, checked, pricedZero int
	var gap float64 // the largest relative distance seen between the price and the row bound
	for seed := int64(0); seed < fieldSeeds; seed++ {
		w, err := difftest.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			o, ok, err := w.Searcher.NewBoundOracle(q.Terms, search.Options{K: q.K, Diameter: q.Diameter})
			if err != nil {
				t.Fatal(err)
			}
			if !ok || q.Diameter == 0 {
				continue
			}
			answers, err := w.Searcher.EnumerateAnswers(q.Terms, q.Diameter, 32)
			if err != nil {
				t.Fatal(err)
			}
			var trees []*jtt.Tree
			for v := 0; v < w.Graph.NumNodes(); v++ {
				if single := jtt.NewSingle(graph.NodeID(v)); len(w.Model.SourcesIn(single, q.Terms)) != 0 {
					trees = append(trees, single)
				}
			}
			for _, ans := range answers {
				trees = append(trees, routeCandidates(ans)...)
			}
			for _, tree := range trees {
				if tree.Depth() >= o.GrowthDepthLimit() || len(w.Model.SourcesIn(tree, q.Terms)) == 0 {
					continue // the search holds no tree that deep, and none without a keyword node
				}
				rootIsSource := len(w.Model.SourcesIn(jtt.NewSingle(tree.Root()), q.Terms)) != 0
				for _, e := range w.Graph.OutEdges(tree.Root()) {
					if tree.Contains(e.To) {
						continue
					}
					pre, priced := o.ChildBound(tree, e.To)
					if !priced {
						t.Fatalf("seed %d query %v D=%d: no supply fields to price from", seed, q.Terms, q.Diameter)
					}
					if pre <= 0 {
						pricedZero++
					}
					child, err := tree.Grow(w.Graph, e.To)
					if err != nil {
						t.Fatal(err)
					}
					row := o.RowBound(child)
					if pre*(1+slack) < row || pre > row*(1+slack) {
						t.Fatalf("seed %d query %v D=%d: %s rooted at %d grown to %d: priced %.17g unbuilt, %.17g from the built child's row",
							seed, q.Terms, q.Diameter, tree.CanonicalKey(), tree.Root(), e.To, pre, row)
					}
					if ub, _, _ := o.Evaluate(child); pre*(1+slack) < ub || pre > ub*(1+slack) {
						t.Fatalf("seed %d query %v D=%d: %s rooted at %d grown to %d: priced %.17g unbuilt, filled %.17g built",
							seed, q.Terms, q.Diameter, tree.CanonicalKey(), tree.Root(), e.To, pre, ub)
					}
					checked++
					if row > 0 {
						gap = max(gap, math.Abs(pre-row)/row)
					}
					sources := w.Model.SourcesIn(child, q.Terms)
					switch {
					case !coversAll(w, q.Terms, child):
						missing++
					case len(sources) == 1:
						lone++
					default:
						complete++
					}
					if len(w.Model.SourcesIn(jtt.NewSingle(e.To), q.Terms)) != 0 {
						matcher++
					} else {
						free++
					}
					if rootIsSource {
						rootSource++
					}
				}
			}
		}
	}
	t.Logf("%d children: %d lone, %d complete, %d missing a term; %d grown to a matcher, %d to a free node; %d under a source root",
		checked, lone, complete, missing, matcher, free, rootSource)
	t.Logf("largest relative distance between the price and the row bound %.3g", gap)
	t.Logf("%d children are priced at 0", pricedZero)
	for name, n := range map[string]int{"lone": lone, "complete": complete, "missing": missing, "matcher": matcher, "free": free, "source root": rootSource, "priced zero": pricedZero} {
		if n < 1000 {
			t.Errorf("only %d children of kind %q checked", n, name)
		}
	}
}

// coversAll reports whether tree holds a matcher of every term.
func coversAll(w *difftest.Workload, terms []string, tree *jtt.Tree) bool {
	for _, term := range terms {
		found := false
		for _, v := range w.Model.Index().AppendMatchingNodes(nil, term) {
			found = found || tree.Contains(v)
		}
		if !found {
			return false
		}
	}
	return true
}

// TestPricedBoundsCoverFill holds the bound the search stores for every
// priced candidate — a grown child that misses a term, or a stub — to the
// bound fill gives the built child, in the search itself: over the difftest
// workloads, at each query's diameter and at 5 and 6, the expansion step
// also fills each priced candidate on the side (CheckPricedBounds), and no
// fill may exceed the stored price. The side fills must leave the search as
// it is without them, and the candidates must span built and unbuilt ones,
// grown to nodes that match and that do not.
func TestPricedBoundsCoverFill(t *testing.T) {
	check := search.CheckPricedBounds(t)
	for seed := int64(0); seed < fieldSeeds; seed++ {
		w, err := difftest.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			for i, d := range []int{q.Diameter, 5, 6} {
				if d == 0 || i > 0 && d == q.Diameter {
					continue
				}
				opts := search.Options{K: q.K, Diameter: d}
				check.Paused = true
				want, wantStats, err := w.Searcher.TopK(q.Terms, opts)
				if err != nil {
					t.Fatal(err)
				}
				check.Paused = false
				got, gotStats, err := w.Searcher.TopK(q.Terms, opts)
				if err != nil {
					t.Fatal(err)
				}
				if gotStats != wantStats || len(got) != len(want) {
					t.Fatalf("seed %d query %v D=%d: the side fills moved the search: %d answers %+v, without them %d answers %+v",
						seed, q.Terms, d, len(got), gotStats, len(want), wantStats)
				}
				for j := range want {
					if got[j].Score != want[j].Score || !got[j].Tree.Equal(want[j].Tree) {
						t.Fatalf("seed %d query %v D=%d: the side fills moved answer %d", seed, q.Terms, d, j)
					}
				}
				if len(check.Violations) > 0 {
					t.Fatalf("seed %d query %v D=%d: fill exceeds the stored price of %d candidates, first %s",
						seed, q.Terms, d, len(check.Violations), check.Violations[0])
				}
			}
		}
	}
	t.Logf("%d grown children and %d stubs checked: %d grown to a matcher, %d to a free node", check.Grown, check.Stub, check.Matching, check.Free)
	for name, n := range map[string]int{"grown": check.Grown, "stub": check.Stub, "matching": check.Matching, "free": check.Free} {
		if n < 100 {
			t.Errorf("only %d priced candidates of kind %q checked", n, name)
		}
	}
}
