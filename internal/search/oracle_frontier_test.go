package search_test

import (
	"fmt"
	"math"
	"testing"

	"cirank/internal/difftest"
	"cirank/internal/search"
)

// TestFrontierBoundCertifies holds Stats.FrontierBound to what it documents
// on runs the MaxExpansions cap stops early, over the difftest workloads:
// every exhaustive answer missing from the returned list scores no higher
// than the list's k-th answer or is bounded by FrontierBound, and the bound
// is +Inf exactly when the run dropped trees at the Generated cap (no run
// here is interrupted, and none overruns that cap:
// TestFrontierBoundGivesUpOnLostTrees covers the lossy side). A frontier
// that left out a tree which can still grow would miss answers and fail here.
func TestFrontierBoundCertifies(t *testing.T) {
	const slack = 1e-9 // the rounding slack the oracles allow between scoring paths
	var truncated, certified int
	for seed := int64(0); seed < fieldSeeds; seed++ {
		w, err := difftest.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			all, err := w.Searcher.ExhaustiveTopK(q.Terms,
				search.Options{K: 1 << 14, Diameter: q.Diameter, ExtendedMerge: true}, w.Graph.NumNodes())
			if err != nil {
				t.Fatal(err)
			}
			for _, limit := range []int{1, 2, 3, 5, 8} {
				opts := search.Options{K: q.K, Diameter: q.Diameter, ExtendedMerge: true, MaxExpansions: limit}
				got, st, dropped, err := w.Searcher.TopKLost(q.Terms, opts)
				if err != nil {
					t.Fatal(err)
				}
				where := func() string {
					return fmt.Sprintf("seed %d query %v D=%d cap %d", seed, q.Terms, q.Diameter, limit)
				}
				if math.IsInf(st.FrontierBound, 1) != dropped || dropped && !st.Truncated {
					t.Fatalf("%s: FrontierBound %g, trees dropped %v, stats %+v", where(), st.FrontierBound, dropped, st)
				}
				if dropped {
					continue
				}
				if st.Truncated {
					truncated++
				}
				kth := math.Inf(-1)
				if len(got) == q.K {
					kth = got[q.K-1].Score
				}
				returned := make(map[string]bool, len(got))
				for _, a := range got {
					returned[a.Tree.CanonicalKey()] = true
				}
				for _, a := range all {
					key := a.Tree.CanonicalKey()
					switch {
					case returned[key], a.Score <= kth+slack:
					case a.Score <= st.FrontierBound*(1+slack):
						certified++
					default:
						t.Fatalf("%s: answer %s scores %.17g, above the k-th returned %.17g and FrontierBound %.17g (stats %+v)",
							where(), key, a.Score, kth, st.FrontierBound, st)
					}
				}
			}
		}
	}
	t.Logf("%d truncated runs; FrontierBound certified %d missing answers", truncated, certified)
	if truncated < 100 || certified < 100 {
		t.Fatalf("the certificate went nearly unexercised: %d truncated runs, %d answers certified by the bound", truncated, certified)
	}
}
