package cirank

import (
	"testing"

	"cirank/internal/searchbench"
	"cirank/internal/shard"
)

// haloCeilings are the committed ceilings for the halo duplication factor of
// the locality plan at 4 shards, radius 2, on the benchmark datasets at the
// CI smoke scale. The factor is deterministic in the partition inputs, so
// these are structural regression gates, not noise-tolerant perf checks:
// they were recorded between the locality plan's measured factor and the
// retired raw-ID range split's, and fail if an ownership or projection
// change gives the improvement back. Lowering a factor further is fine —
// tighten the ceiling alongside such a change.
var haloCeilings = []struct {
	dataset string
	ceiling float64
}{
	{"dblp", 3.93}, // measured 3.88 locality vs 3.96 for the range split
	{"imdb", 3.80}, // measured 3.70 locality vs 3.94 for the range split
}

// TestHaloDuplicationCeiling reproduces the shard benchmark's partitions
// (scale 0.25, seed pair from searchbench, radius 2) and gates the plan's
// duplication factor at 4 shards against the committed ceiling.
func TestHaloDuplicationCeiling(t *testing.T) {
	for _, tc := range haloCeilings {
		dataSeed, querySeed := searchbench.DefaultSeeds(tc.dataset)
		w, err := searchbench.Load(tc.dataset, 0.25, dataSeed, querySeed)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := shard.NewPlan(w.G, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		dup := plan.DuplicationFactor(w.G)
		t.Logf("%s scale 0.25, 4 shards radius 2: duplication factor %.4f, ceiling %.2f",
			tc.dataset, dup, tc.ceiling)
		if dup > tc.ceiling {
			t.Errorf("%s: duplication factor %.4f exceeds the committed ceiling %.2f",
				tc.dataset, dup, tc.ceiling)
		}
	}
}
