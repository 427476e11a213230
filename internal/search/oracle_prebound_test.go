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
// expansion step prices the unbuilt child at from its root's supply lists
// must agree with the bound Evaluate computes for the built one within 1e-9
// relative — the slack of the skip rule, which therefore drops exactly the
// children commit would have. The cheaper price from the root's field row
// must be at least the list price, and 0 only where that is 0 too, so any
// child the row condemns the lists condemn. The children must span the
// bound's three cases, grown nodes that match and that do not, and parents
// whose root is a source.
func TestChildBoundOnGenerators(t *testing.T) {
	const slack = 1e-9
	var lone, complete, missing, matcher, free, rootSource, checked, below, rowZero int
	var gap float64 // the largest relative distance seen
	for seed := int64(0); seed < fieldSeeds; seed++ {
		w, err := difftest.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			o, ok, err := w.Searcher.NewBoundOracle(q.Terms, search.Options{K: q.K, Diameter: q.Diameter, Workers: 1})
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
					row, pre, priced := o.ChildBound(tree, e.To)
					if !priced {
						t.Fatalf("seed %d query %v D=%d: no supply fields to price from", seed, q.Terms, q.Diameter)
					}
					if row < pre || row <= 0 && pre > 0 {
						t.Fatalf("seed %d query %v D=%d: %s rooted at %d grown to %d: priced %.17g from the row, %.17g from the lists",
							seed, q.Terms, q.Diameter, tree.CanonicalKey(), tree.Root(), e.To, row, pre)
					}
					if row <= 0 {
						rowZero++
					}
					child, err := tree.Grow(w.Graph, e.To)
					if err != nil {
						t.Fatal(err)
					}
					ub, _, _ := o.Evaluate(child)
					if pre*(1+slack) < ub || pre > ub*(1+slack) {
						t.Fatalf("seed %d query %v D=%d: %s rooted at %d grown to %d: priced %.17g unbuilt, bounded %.17g built",
							seed, q.Terms, q.Diameter, tree.CanonicalKey(), tree.Root(), e.To, pre, ub)
					}
					checked++
					if ub > 0 {
						gap = max(gap, math.Abs(pre-ub)/ub)
					}
					if pre < ub {
						below++
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
	t.Logf("largest relative distance between the two bounds %.3g; the unbuilt one is the lower in %d children", gap, below)
	t.Logf("the row alone prices %d children at 0", rowZero)
	for name, n := range map[string]int{"lone": lone, "complete": complete, "missing": missing, "matcher": matcher, "free": free, "source root": rootSource, "row zero": rowZero} {
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
