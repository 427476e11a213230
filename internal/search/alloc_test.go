package search

import (
	"fmt"
	"testing"
)

// These tests pin the allocation behaviour of the pooled branch-and-bound
// hot path. The ceilings are deliberately loose (about 1.5× the measured
// steady state) so they survive compiler churn while still catching a
// reintroduced per-candidate or per-expansion allocation, which multiplies
// the count by orders of magnitude — the pre-rewrite engine spent over a
// thousand allocations on the same fig2 query.

// warmPool runs the query a few times so the searcher's scratch pool holds a
// fully grown scratch and AllocsPerRun measures the steady state.
func warmPool(tb testing.TB, s *Searcher, terms []string, opts Options) {
	tb.Helper()
	for i := 0; i < 3; i++ {
		if _, _, err := s.TopK(terms, opts); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestTopKAllocsSequential(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings hold only on plain builds")
	}
	fx := fig2Fixture(t)
	terms := []string{"tsimmis", "ullman"}
	opts := Options{K: 5, Diameter: 4, Workers: 1}
	warmPool(t, fx.s, terms, opts)
	// Steady state measured at 15 allocs/query: the per-query bookkeeping
	// (bbState, closures, term-distance headers), the canonical keys of the
	// answers that enter the top-k, and the detached answer clones.
	const ceiling = 24
	if got := testing.AllocsPerRun(100, func() { fx.s.TopK(terms, opts) }); got > ceiling {
		t.Errorf("sequential TopK allocates %.0f/query, ceiling %d", got, ceiling)
	}
}

func TestTopKAllocsParallel(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings hold only on plain builds")
	}
	fx := fig2Fixture(t)
	terms := []string{"tsimmis", "ullman"}
	opts := Options{K: 5, Diameter: 4, Workers: 4}
	warmPool(t, fx.s, terms, opts)
	// The parallel path additionally pays goroutine spawns per fan-out
	// (measured at 47 allocs/query with four workers).
	const ceiling = 72
	if got := testing.AllocsPerRun(100, func() { fx.s.TopK(terms, opts) }); got > ceiling {
		t.Errorf("parallel TopK allocates %.0f/query, ceiling %d", got, ceiling)
	}
}

// TestScratchReuseIsolation poisons the scratch between queries: it
// interleaves queries with different term sets, worker counts and options on
// ONE searcher (so they share a pool) and checks every result against a
// fresh searcher that never reuses anything. Any state leaking across
// queries through the pooled maps, slabs, arena or per-term buffers shows up
// as a ranking or score difference.
func TestScratchReuseIsolation(t *testing.T) {
	fx := fig2Fixture(t)
	queries := []struct {
		terms []string
		opts  Options
	}{
		{[]string{"tsimmis", "ullman"}, Options{K: 5, Diameter: 4, Workers: 1}},
		{[]string{"papakonstantinou", "ullman"}, Options{K: 2, Diameter: 4, Workers: 1}},
		{[]string{"tsimmis"}, Options{K: 3, Diameter: 2, Workers: 1}},
		{[]string{"tsimmis", "ullman"}, Options{K: 5, Diameter: 4, Workers: 4}},
		{[]string{"capability", "papakonstantinou"}, Options{K: 4, Diameter: 4, Workers: 1}},
		{[]string{"papakonstantinou", "ullman"}, Options{K: 2, Diameter: 4, NoDynamicBounds: true}},
		{[]string{"tsimmis", "ullman"}, Options{K: 5, Diameter: 4, ExtendedMerge: true}},
		{[]string{"ullman", "nosuchword"}, Options{K: 3, Diameter: 4}},
	}
	// First pass retains every result so the detached answers must survive
	// later queries reusing the same scratch.
	type outcome struct {
		keys   []string
		scores []float64
	}
	snap := func(res []Answer) outcome {
		var o outcome
		for _, a := range res {
			o.keys = append(o.keys, a.Tree.CanonicalKey())
			o.scores = append(o.scores, a.Score)
		}
		return o
	}
	var retained [][]Answer
	var firstSnaps []outcome
	for round := 0; round < 3; round++ {
		for qi, q := range queries {
			res, _, err := fx.s.TopK(q.terms, q.opts)
			if err != nil {
				t.Fatalf("round %d query %d: %v", round, qi, err)
			}
			retained = append(retained, res)
			firstSnaps = append(firstSnaps, snap(res))
			// Reference run on a virgin searcher.
			want, _, err := New(fx.m).TopK(q.terms, q.opts)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(snap(res)) != fmt.Sprint(snap(want)) {
				t.Fatalf("round %d query %d %v: pooled result diverged from fresh searcher\npooled: %v\nfresh:  %v",
					round, qi, q.terms, snap(res), snap(want))
			}
		}
	}
	// Re-reading every retained result must reproduce the snapshot taken at
	// return time: a later query reusing the scratch must not mutate an
	// earlier query's detached answer trees.
	for i, res := range retained {
		if got, want := fmt.Sprint(snap(res)), fmt.Sprint(firstSnaps[i]); got != want {
			t.Errorf("retained result %d mutated by later queries:\nat return: %s\nnow:       %s", i, want, got)
		}
	}
}
