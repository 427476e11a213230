package difftest

import (
	"math"
	"os"
	"testing"
	"time"

	"cirank/internal/search"
)

// TestExperiment is a dev-only harness: run with DIFFTEST_EXP=1 to sweep
// many seeds, time them, and probe the strict naive-vs-bb equality
// hypothesis.
func TestExperiment(t *testing.T) {
	if os.Getenv("DIFFTEST_EXP") == "" {
		t.Skip("set DIFFTEST_EXP=1 to run")
	}
	start := time.Now()
	fails := 0
	const seeds = 2000
	naiveEq, naiveEqUniform, naiveTot, naiveTotUniform := 0, 0, 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		w, err := Generate(seed)
		if err != nil {
			t.Fatalf("generate seed %d: %v", seed, err)
		}
		if err := CheckWorkload(w); err != nil {
			fails++
			t.Errorf("%v", err)
			if fails > 5 {
				t.Fatal("too many failures")
			}
		}
		// Probe: does naive == bb exactly?
		for _, q := range w.Queries {
			opts := search.Options{K: q.K, Diameter: q.Diameter, ExtendedMerge: true}
			bb, _, err := w.Searcher.TopK(q.Terms, opts)
			if err != nil {
				t.Fatal(err)
			}
			nOpts := opts
			nOpts.ExtendedMerge = false
			nv, _, err := w.Searcher.NaiveTopK(q.Terms, nOpts)
			if err != nil {
				t.Fatal(err)
			}
			eq := len(nv) == len(bb)
			if eq {
				for i := range nv {
					if nv[i].Tree.CanonicalKey() != bb[i].Tree.CanonicalKey() ||
						math.Abs(nv[i].Score-bb[i].Score) > 1e-9 {
						eq = false
						break
					}
				}
			}
			naiveTot++
			if eq {
				naiveEq++
			}
			if w.UniformWeights {
				naiveTotUniform++
				if eq {
					naiveEqUniform++
				}
			}
		}
	}
	t.Logf("%d seeds in %v (%v/seed)", seeds, time.Since(start), time.Since(start)/seeds)
	t.Logf("naive==bb: %d/%d overall, %d/%d uniform-weight", naiveEq, naiveTot, naiveEqUniform, naiveTotUniform)
}
