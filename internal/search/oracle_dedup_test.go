package search_test

import (
	"testing"

	"cirank/internal/difftest"
	"cirank/internal/search"
)

// TestGrownTreesAreUnique holds the argument that lets grown trees skip the
// seen set (bb.go, process) over the difftest workloads, at every query's
// diameter and at 5 and 6, under both merge rules: no two grown trees of a
// query are equal, and none equals a merged tree. A collision would be a
// candidate the search evaluated, queued or merged twice, which the old
// seen set rejected.
func TestGrownTreesAreUnique(t *testing.T) {
	var grownTotal, mergedTotal int
	for seed := int64(0); seed < fieldSeeds; seed++ {
		w, err := difftest.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			for _, d := range []int{q.Diameter, 5, 6} {
				for _, extended := range []bool{false, true} {
					opts := search.Options{K: q.K, Diameter: d, ExtendedMerge: extended, Workers: 1}
					grown, merged, err := w.Searcher.GeneratedTrees(q.Terms, opts)
					if err != nil {
						t.Fatal(err)
					}
					var grownSet, all search.TreeSet
					for _, m := range merged {
						if !all.Add(m) {
							t.Fatalf("seed %d query %v %+v: merged tree %s generated twice", seed, q.Terms, opts, m.CanonicalKey())
						}
					}
					for _, g := range grown {
						if !grownSet.Add(g) {
							t.Fatalf("seed %d query %v %+v: grown tree %s rooted at %d generated twice", seed, q.Terms, opts, g.CanonicalKey(), g.Root())
						}
						if !all.Add(g) {
							t.Fatalf("seed %d query %v %+v: grown tree %s rooted at %d equals a merged one", seed, q.Terms, opts, g.CanonicalKey(), g.Root())
						}
					}
					grownTotal += len(grown)
					mergedTotal += len(merged)
				}
			}
		}
	}
	t.Logf("%d grown and %d merged trees, all distinct", grownTotal, mergedTotal)
	if grownTotal < 10000 || mergedTotal < 1000 {
		t.Fatalf("too few trees to hold the argument: %d grown, %d merged", grownTotal, mergedTotal)
	}
}
