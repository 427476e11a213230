package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{200, 0.50, 100},
		{200, 0.90, 180},
		{104, 0.90, 94}, // two passes over 52 queries: exactly ten beyond
		{92, 0.90, 82},  // nearest rank 83 has nine beyond, so one lower
		{15, 0.90, 8},   // too few samples for any tail: the median
		{1, 0.90, 1},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
	}
	w := &window{}
	for i := 0; i < 30; i++ {
		w.add(time.Millisecond, i != 0)
	}
	if w.failed != 1 || !math.IsInf(w.latencyMS[0], 1) {
		t.Errorf("a failed operation must count and sort as +Inf, got failed=%d first=%g", w.failed, w.latencyMS[0])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %g, %g, want 1, 4", q1, q3)
	}
}

func TestZipfStreamDeterministicInSeed(t *testing.T) {
	a, b, c := zipfStream(3, 328, 20000), zipfStream(3, 328, 20000), zipfStream(4, 328, 20000)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed must draw the same stream")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew the same stream")
	}
	counts := make([]int, 328)
	for _, qi := range a {
		if qi < 0 || qi >= 328 {
			t.Fatalf("index %d out of range", qi)
		}
		counts[qi]++
	}
	if !(counts[0] > counts[9] && counts[9] > counts[99] && counts[99] > 0) {
		t.Errorf("popularity is not Zipf-like: rank 1 %d, rank 10 %d, rank 100 %d", counts[0], counts[9], counts[99])
	}
}

func digestOf(truncated bool, answers ...[]string) string {
	var d rankingDigest
	for i, rows := range answers {
		for _, r := range rows {
			d.row("Paper", r)
		}
		d.score(1.5 / float64(i+1))
	}
	return d.sum(truncated)
}

func TestDigestStability(t *testing.T) {
	base := digestOf(false, []string{"p1", "p2"}, []string{"p3"})
	if want := "518dc227f649c78e6b19f1e5097d4034"; base != want {
		t.Errorf("digest = %s, want %s (changing the digest invalidates every golden file)", base, want)
	}
	if digestOf(false, []string{"p2", "p1"}, []string{"p3"}) != base {
		t.Error("row order within an answer must not matter")
	}
	if digestOf(false, []string{"p3"}, []string{"p1", "p2"}) == base {
		t.Error("answer order must matter")
	}
	if digestOf(true, []string{"p1", "p2"}, []string{"p3"}) == base {
		t.Error("a truncated ranking must not match a complete one")
	}
	var a, b, c rankingDigest
	a.score(0.123456789012)
	b.score(0.123456789099)
	c.score(0.123456799)
	if a.sum(false) != b.sum(false) || a.sum(false) == c.sum(false) {
		t.Error("scores must compare at nine significant digits")
	}
}

func TestGoldenRejectsChangedInputs(t *testing.T) {
	if _, err := loadGolden("serve-zipf", fingerprint{Nodes: 1}); !errors.Is(err, errInputsChanged) {
		t.Errorf("err = %v, want errInputsChanged", err)
	}
}

func TestClassify(t *testing.T) {
	want := digestOf(false, []string{"p1"})
	body := func(gen int, table string, interrupted bool) []byte {
		return []byte(fmt.Sprintf(`{"generation":%d,"results":[{"score":1.5,"rows":[{"table":%q,"key":"p1","text":"x"}]}],"stats":{"source":"cache","interrupted":%v}}`, gen, table, interrupted))
	}
	cases := []struct {
		name   string
		status int
		body   []byte
		floor  uint64
		want   verdict
	}{
		{"current generation", http.StatusOK, body(3, "Paper", false), 3, verdictOK},
		{"newer generation", http.StatusOK, body(4, "Paper", false), 3, verdictOK},
		{"below the reload floor", http.StatusOK, body(2, "Paper", false), 3, verdictStale},
		{"wrong ranking", http.StatusOK, body(3, "Author", false), 3, verdictFailed},
		{"interrupted", http.StatusOK, body(3, "Paper", true), 3, verdictFailed},
		{"not JSON", http.StatusOK, []byte("oops"), 1, verdictFailed},
		{"shed", http.StatusTooManyRequests, nil, 1, verdictRejected},
		{"server error", http.StatusInternalServerError, nil, 1, verdictFailed},
	}
	for _, c := range cases {
		if _, got := classify(c.status, c.body, c.floor, want); got != c.want {
			t.Errorf("%s: verdict %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50},  // overlaps a: 20 new
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120}, // clipped to the parent: 10
		{ID: 5, Parent: 2, Name: "grandchild", StartNS: 12, EndNS: 18},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// TestManifest keeps BENCHMARK.json and the harness naming the same
// workloads and metrics, within the limits the benchmark contract sets.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the harness", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %q is not in the harness", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	got := map[string]string{}
	for _, e := range m.EndToEnd {
		got[e.Name] = e.Unit
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if !reflect.DeepEqual(got, endToEndUnits) {
		t.Errorf("end_to_end = %v, harness reports %v", got, endToEndUnits)
	}
	got = map[string]string{}
	for _, e := range m.PerLayer {
		got[e.Name] = e.Unit
		if e.Better != "lower" && e.Better != "higher" {
			t.Errorf("%s: better = %q", e.Name, e.Better)
		}
	}
	if !reflect.DeepEqual(got, perLayerUnits) {
		t.Errorf("per_layer = %v, harness reports %v", got, perLayerUnits)
	}
}

// TestSmoke runs every workload, untraced and traced, on a quarter-size
// corpus and query set with one refresh and a 0.2 s window (one pass for
// the search workloads), so that a change that breaks the harness fails
// here and not in the benchmark pipeline.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				res, err := run(context.Background(), options{
					workload: w.name, seed: 2, seconds: 0.2, trace: trace, smoke: true, workDir: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				units := endToEndUnits
				if trace {
					units = perLayerUnits
				}
				for name, unit := range units {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %+v (present %v), want a finite value in %s", name, m, ok, unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, must never be 0", name, m.Value)
					}
				}
				if trace {
					lookups := res.Metrics["pathindex.lookups"].Value
					if w.noIndex && lookups != 0 {
						t.Errorf("pathindex.lookups = %g without a star index", lookups)
					}
					if !w.noIndex && lookups == 0 {
						t.Error("pathindex.lookups = 0 with a star index")
					}
					if w.serve == (res.Metrics["server.hit_rate"].Value == 0) {
						t.Errorf("server.hit_rate = %g on a workload with serve=%v", res.Metrics["server.hit_rate"].Value, w.serve)
					}
				}
			})
		}
	}
}
