package searchbench

import (
	"testing"

	"cirank/internal/search"
)

// TestAllocReductionVsFrozenBaseline certifies the headline claim of the
// allocation-lean rewrite: on the paper's Fig. 2 query the live engine
// allocates at least 10× less per query than the frozen pre-rewrite engine
// this package preserves. The measured gap is far wider (roughly 70×); the
// 10× floor keeps the test robust to compiler and runtime churn while still
// failing loudly if the hot path regresses to per-candidate allocation.
func TestAllocReductionVsFrozenBaseline(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the ratio holds only on plain builds")
	}
	m := fig2Model(t)
	s := search.New(m)
	terms := []string{"tsimmis", "ullman"}
	opts := search.Options{K: 5, Diameter: 4, Workers: 1}
	for i := 0; i < 3; i++ {
		if _, _, err := s.TopK(terms, opts); err != nil {
			t.Fatal(err)
		}
	}
	live := testing.AllocsPerRun(200, func() {
		if _, _, err := s.TopK(terms, opts); err != nil {
			t.Fatal(err)
		}
	})
	frozen := testing.AllocsPerRun(200, func() {
		if _, err := NaiveAllocTopK(m, terms, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/query: live=%.0f frozen=%.0f (%.1fx reduction)", live, frozen, frozen/live)
	if live <= 0 {
		return // nothing to divide; trivially satisfied
	}
	if frozen/live < 10 {
		t.Errorf("alloc reduction %.1fx < required 10x (live %.0f, frozen %.0f)", frozen/live, live, frozen)
	}
}
