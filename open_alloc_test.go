//go:build !race

package cirank

import (
	"testing"

	"cirank/internal/datagen"
)

// openAllocCeiling bounds the heap allocations of one Open + Close of the
// dblp scale-0.25 snapshot (331 nodes, star index on). Open aliases the flat
// arrays but still decodes node records, the text index's terms and the
// entity map per entry, so the count grows with the corpus; the ceiling is
// 1.5× the measured 2 664 and exists to catch a return to per-element
// decoding of the flat sections or of the posting lists (which share one
// backing array). The zero-copy fix in ROADMAP (O(sections) allocations) is
// expected to lower it — tighten the ceiling alongside that change.
const openAllocCeiling = 4000

// TestOpenAllocCeiling is excluded under -race, whose instrumentation
// allocates.
func TestOpenAllocCeiling(t *testing.T) {
	ds, err := datagen.GenerateDBLP(datagen.DefaultDBLPConfig(7).Scale(0.25))
	if err != nil {
		t.Fatal(err)
	}
	b := NewDBLPBuilder()
	if err := ds.Replay(b.InsertEntity, b.Relate); err != nil {
		t.Fatal(err)
	}
	eng, err := b.Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := writeSnapFile(t, saveV2(t, eng))
	allocs := testing.AllocsPerRun(5, func() {
		e, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Open+Close of %d nodes: %.0f allocs (ceiling %d)", eng.NumNodes(), allocs, openAllocCeiling)
	if allocs > openAllocCeiling {
		t.Errorf("Open+Close allocates %.0f times, ceiling %d", allocs, openAllocCeiling)
	}
}
