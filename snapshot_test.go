package cirank

import (
	"bytes"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	eng := fig2Engine(t, DefaultConfig())
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNodes() != eng.NumNodes() || loaded.NumEdges() != eng.NumEdges() {
		t.Fatalf("loaded graph shape %d/%d, want %d/%d",
			loaded.NumNodes(), loaded.NumEdges(), eng.NumNodes(), eng.NumEdges())
	}
	// Identical search results before and after.
	orig, err := eng.Search("papakonstantinou ullman", 3)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := loaded.Search("papakonstantinou ullman", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) != len(restored) {
		t.Fatalf("result counts differ: %d vs %d", len(orig), len(restored))
	}
	for i := range orig {
		if orig[i].Score != restored[i].Score {
			t.Errorf("result %d score %g vs %g", i, orig[i].Score, restored[i].Score)
		}
		if len(orig[i].Rows) != len(restored[i].Rows) {
			t.Errorf("result %d row counts differ", i)
		}
	}
	// Importance lookups survive.
	a, _ := eng.Importance("Paper", "p2")
	b, ok := loaded.Importance("Paper", "p2")
	if !ok || a != b {
		t.Errorf("importance after reload = %g, %v; want %g", b, ok, a)
	}
}

// TestSnapshotWithoutIndex: the engine ignores Config.IndexDepth, so an
// engine built with it at 0 saves exactly the bytes of one built with
// DefaultConfig's 6.
func TestSnapshotWithoutIndex(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IndexDepth = 0
	if !bytes.Equal(saveV2(t, fig2Engine(t, cfg)), saveV2(t, fig2Engine(t, DefaultConfig()))) {
		t.Fatal("IndexDepth 0 and DefaultConfig save different snapshots")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := LoadEngine(strings.NewReader("not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
	eng := fig2Engine(t, DefaultConfig())
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/3]
	if _, err := LoadEngine(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated snapshot accepted")
	}
}
