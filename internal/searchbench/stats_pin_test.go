package searchbench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"cirank/internal/search"
)

// updatePins rewrites testdata/stats_pins.json from the running engine.
// Re-record only for a change that is meant to alter what the search
// explores. A change that only builds fewer trees moves Generated and Built,
// down, and nothing else, and the update holds it to that: while the
// committed file exists, a re-record that changes any row's Expanded, Answers
// or Truncated, or raises a Generated or a Built, fails and writes nothing.
// (Delete the file first to record a change that means to move those; say
// why in the PR.)
var updatePins = flag.Bool("update-pins", false, "rewrite testdata/stats_pins.json")

const pinsPath = "testdata/stats_pins.json"

// pinnedWork is the deterministic part of search.Stats: what the search popped,
// generated, built and found, and whether a cap stopped it.
type pinnedWork struct {
	Query     string `json:"query"`
	Expanded  int    `json:"expanded"`
	Generated int    `json:"generated"`
	Built     int    `json:"built"`
	Answers   int    `json:"answers"`
	Truncated bool   `json:"truncated"`
}

// pinnedWorkload holds one workload's rows at one diameter, one per query in
// the workload's order.
type pinnedWorkload struct {
	Dataset  string       `json:"dataset"`
	Scale    float64      `json:"scale"`
	Diameter int          `json:"diameter"`
	Single   []pinnedWork `json:"single"`
}

const pinK = 10

// pinDiameters are the diameters every workload is pinned at: the one the
// benchmarks run and the next, whose ⌈D/2⌉ = 3 depth limit is where the
// search holds most trees at the limit.
var pinDiameters = []int{4, 5}

func workOf(terms []string, st search.Stats) pinnedWork {
	return pinnedWork{
		Query:    strings.Join(terms, " "),
		Expanded: st.Expanded, Generated: st.Generated, Built: st.Built, Answers: st.Answers, Truncated: st.Truncated,
	}
}

// TestStatsPinned replays every query of the tracked workloads and demands
// the recorded Expanded/Generated/Built/Answers/Truncated.
func TestStatsPinned(t *testing.T) {
	var pins, old []pinnedWorkload
	raw, err := os.ReadFile(pinsPath)
	if err == nil {
		// A key nothing decodes must not sit in the file unread.
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		err = dec.Decode(&old)
	}
	if *updatePins && os.IsNotExist(err) {
		err = nil
	}
	if err != nil {
		t.Fatal(err)
	}
	if *updatePins {
		pins = nil
		for _, d := range pinDiameters {
			for _, dataset := range []string{"dblp", "imdb"} {
				pins = append(pins, pinnedWorkload{Dataset: dataset, Scale: 0.25, Diameter: d})
			}
		}
	} else {
		pins = old
	}
	for pi := range pins {
		pin := &pins[pi]
		dataSeed, querySeed := DefaultSeeds(pin.Dataset)
		w, err := Load(pin.Dataset, pin.Scale, dataSeed, querySeed)
		if err != nil {
			t.Fatal(err)
		}
		opts := search.Options{K: pinK, Diameter: pin.Diameter}

		s := search.New(w.M)
		var got []pinnedWork
		for _, terms := range w.Queries {
			_, st, err := s.TopK(terms, opts)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, workOf(terms, st))
		}
		if *updatePins {
			pin.Single = got
		}
		comparePins(t, pin, got)
	}
	if *updatePins {
		for _, o := range old {
			for _, p := range pins {
				if p.Dataset == o.Dataset && p.Scale == o.Scale && p.Diameter == o.Diameter {
					onlyBuildsFell(t, p, o.Single)
				}
			}
		}
		if t.Failed() {
			t.Fatalf("%s not rewritten", pinsPath)
		}
		raw, err := json.MarshalIndent(pins, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// onlyBuildsFell is the re-record guard: against the committed rows, the new
// ones may differ in Generated and Built alone, and only downwards. It logs
// the old → new totals, which is the table EXPERIMENTS.md quotes.
func onlyBuildsFell(t *testing.T, pin pinnedWorkload, old []pinnedWork) {
	t.Helper()
	rows := pin.Single
	if len(old) != len(rows) {
		t.Errorf("%s D=%d: %d committed rows, %d re-recorded", pin.Dataset, pin.Diameter, len(old), len(rows))
		return
	}
	var genWas, genNow, builtWas, builtNow int
	for i, o := range old {
		r := rows[i]
		genWas, genNow = genWas+o.Generated, genNow+r.Generated
		builtWas, builtNow = builtWas+o.Built, builtNow+r.Built
		rest := o
		rest.Generated, rest.Built = r.Generated, r.Built
		if rest != r || r.Generated > o.Generated || r.Built > o.Built {
			t.Errorf("%s D=%d query %d: re-record moves more than Generated and Built, or moves one up:\n new %+v\n old %+v", pin.Dataset, pin.Diameter, i, r, o)
		}
	}
	t.Logf("%s D=%d: generated %d -> %d, built %d -> %d over %d queries", pin.Dataset, pin.Diameter, genWas, genNow, builtWas, builtNow, len(rows))
}

func comparePins(t *testing.T, pin *pinnedWorkload, got []pinnedWork) {
	t.Helper()
	want := pin.Single
	if len(want) != len(got) {
		t.Errorf("%s D=%d: %d pinned queries, workload has %d", pin.Dataset, pin.Diameter, len(want), len(got))
		return
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("%s D=%d query %d:\n got %+v\nwant %+v", pin.Dataset, pin.Diameter, i, got[i], want[i])
		}
	}
}
