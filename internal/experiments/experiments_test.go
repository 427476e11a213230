package experiments

import (
	"strings"
	"testing"

	"cirank/internal/datagen"
	"cirank/internal/jtt"
	"cirank/internal/rwmp"
)

// smallConfig keeps the test datasets tiny so the full experiment paths run
// in seconds.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.2
	cfg.QueryCount = 6
	cfg.PoolLimit = 150
	cfg.MaxExpansions = 5000
	return cfg
}

func smallBundles(t *testing.T) (*Bundle, *Bundle) {
	t.Helper()
	cfg := smallConfig()
	imdb, err := Prepare("imdb", cfg.Scale, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	dblp, err := Prepare("dblp", cfg.Scale, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return imdb, dblp
}

func TestPrepareBundles(t *testing.T) {
	imdb, dblp := smallBundles(t)
	if imdb.Built.G.NumNodes() == 0 || dblp.Built.G.NumNodes() == 0 {
		t.Fatal("empty bundles")
	}
	if imdb.Name != "IMDB" || dblp.Name != "DBLP" {
		t.Errorf("bundle names %q, %q, want IMDB, DBLP", imdb.Name, dblp.Name)
	}
	if _, err := Prepare("nope", 0.2, 1); err == nil {
		t.Error("Prepare accepted an unknown dataset")
	}
	m, err := imdb.DefaultModel()
	if err != nil {
		t.Fatal(err)
	}
	if m.Params() != rwmp.DefaultParams() {
		t.Error("default model has wrong params")
	}
	idx, err := imdb.StarIndex(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if idx.MemStats().Entries == 0 {
		t.Error("no star nodes indexed")
	}
}

func TestFig8And9Tables(t *testing.T) {
	imdb, dblp := smallBundles(t)
	cfg := smallConfig()
	t8, err := Fig8MRRComparison(imdb, dblp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t8.Rows) != 3 {
		t.Fatalf("Fig8 rows = %d, want 3", len(t8.Rows))
	}
	for _, row := range t8.Rows {
		if len(row) != 4 {
			t.Fatalf("Fig8 row %v has %d cells", row, len(row))
		}
	}
	rendered := t8.String()
	for _, want := range []string{"SPARK", "BANKS", "CI-Rank", "Fig. 8"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
	t9, err := Fig9PrecisionComparison(imdb, dblp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t9.Rows) != 3 {
		t.Fatalf("Fig9 rows = %d", len(t9.Rows))
	}
}

func TestFig6SweepRuns(t *testing.T) {
	imdb, dblp := smallBundles(t)
	cfg := smallConfig()
	tab, err := Fig6AlphaSweep(imdb, dblp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("Fig6 rows = %d, want 10 alpha points", len(tab.Rows))
	}
}

func TestFig7SweepRuns(t *testing.T) {
	imdb, dblp := smallBundles(t)
	cfg := smallConfig()
	tab, err := Fig7GroupSweep(imdb, dblp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("Fig7 rows = %d, want 6 g points", len(tab.Rows))
	}
}

func TestFig10Runs(t *testing.T) {
	imdb, dblp := smallBundles(t)
	cfg := smallConfig()
	tab, err := Fig10NaiveVsBB(imdb, dblp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("Fig10 rows = %d, want 2 datasets", len(tab.Rows))
	}
}

func TestFig11And12Run(t *testing.T) {
	if testing.Short() {
		t.Skip("index timing experiments are slow")
	}
	imdb, dblp := smallBundles(t)
	cfg := smallConfig()
	t11, err := Fig11IMDBIndexTime(imdb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t11.Rows) != 3 {
		t.Fatalf("Fig11 rows = %d, want 3 diameters", len(t11.Rows))
	}
	t12, err := Fig12DBLPIndexTime(dblp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t12.Rows) != 3 {
		t.Fatalf("Fig12 rows = %d", len(t12.Rows))
	}
}

func TestCIScorerAdapter(t *testing.T) {
	imdb, _ := smallBundles(t)
	m, err := imdb.DefaultModel()
	if err != nil {
		t.Fatal(err)
	}
	sc := CIScorer(m)
	if sc.Name() != "CI-Rank" {
		t.Errorf("scorer name = %q", sc.Name())
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Header: []string{"a", "bbbb"},
		Notes:  []string{"n1"},
	}
	tab.AddRow("xxxxx", "y")
	out := tab.String()
	for _, want := range []string{"T\n=", "a", "bbbb", "xxxxx", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q in:\n%s", want, out)
		}
	}
}

func TestClassBreakdown(t *testing.T) {
	_, dblp := smallBundles(t)
	tab, err := ClassBreakdown(dblp, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no class rows")
	}
	for _, row := range tab.Rows {
		if len(row) != 5 {
			t.Errorf("row %v has %d cells, want 5", row, len(row))
		}
	}
}

func TestPoolsContainGold(t *testing.T) {
	_, dblp := smallBundles(t)
	cfg := smallConfig()
	setup, err := newSetup("DBLP", dblp, dblpWorkloadForTest(cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !poolsContainGold(setup.queries, setup.pools) {
		t.Error("a query pool is missing its gold answer")
	}
}

// dblpWorkloadForTest mirrors the standard DBLP workload at test scale.
func dblpWorkloadForTest(cfg Config) datagen.WorkloadConfig {
	return datagen.SyntheticConfig(cfg.QueryCount, cfg.Seed+300)
}

// poolsContainGold verifies the invariant that every query's pool contains
// its gold answer (pools() guarantees it).
func poolsContainGold(queries []datagen.Query, queryPools [][]*jtt.Tree) bool {
	for i, q := range queries {
		found := false
		for _, t := range queryPools[i] {
			if t.CanonicalKey() == q.GoldKey {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
