package experiments

import (
	"flag"
	"os"
	"strconv"
	"testing"
)

// updateGolden rewrites testdata/figures.golden from the running code.
// Re-record only for a change that is meant to move a Fig. 8/9 or class
// table figure, and say which figures moved and why.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/figures.golden")

const goldenPath = "testdata/figures.golden"

// TestFiguresGolden pins the rendered Fig. 8, Fig. 9 and class tables at
// smallConfig byte for byte, and holds the paper's direction in every
// Fig. 8/9 column: CI-Rank scores at least as high as SPARK and BANKS.
func TestFiguresGolden(t *testing.T) {
	imdb, dblp := smallBundles(t)
	cfg := smallConfig()
	t8, err := Fig8MRRComparison(imdb, dblp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t9, err := Fig9PrecisionComparison(imdb, dblp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	classes, err := ClassBreakdown(dblp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := t8.String() + "\n" + t9.String() + "\n" + classes.String()
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("figures differ from %s (re-record with -update-golden only for an intended change):\ngot:\n%s\nwant:\n%s", goldenPath, got, want)
	}

	for _, tab := range []*Table{t8, t9} {
		score := map[string][]float64{}
		for _, row := range tab.Rows {
			for _, cell := range row[1:] {
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					t.Fatalf("%s: row %v: %v", tab.Title, row, err)
				}
				score[row[0]] = append(score[row[0]], v)
			}
		}
		ci := score["CI-Rank"]
		for _, rival := range []string{"SPARK", "BANKS"} {
			if len(score[rival]) != len(ci) {
				t.Fatalf("%s: %s has %d columns, CI-Rank %d", tab.Title, rival, len(score[rival]), len(ci))
			}
			for i, v := range score[rival] {
				if ci[i] < v {
					t.Errorf("%s, %s: CI-Rank %.3f below %s %.3f", tab.Title, tab.Header[i+1], ci[i], rival, v)
				}
			}
		}
	}
}
