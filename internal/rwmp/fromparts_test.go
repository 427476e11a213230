package rwmp

import (
	"math"
	"testing"

	"cirank/internal/graph"
	"cirank/internal/textindex"
)

func TestNewFromPartsMatchesNew(t *testing.T) {
	f := build(t,
		[]string{"tsimmis project", "jeffrey ullman", "mediation systems", "query answering"},
		[]float64{4, 2, 1, 1},
		[][2]int{{0, 1}, {1, 2}, {2, 3}},
		DefaultParams())

	imp := f.m.imp
	damp, _, err := dampRates(imp, f.m.Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(damp) != len(f.m.DampVector()) {
		t.Fatalf("dampRates returned %d rates for %d nodes", len(damp), len(f.m.DampVector()))
	}
	for i, d := range damp {
		if d != f.m.DampVector()[i] {
			t.Fatalf("dampRates[%d] = %g, New computed %g", i, d, f.m.DampVector()[i])
		}
	}

	re, err := NewFromParts(f.g, f.ix, imp, damp, f.m.Params())
	if err != nil {
		t.Fatal(err)
	}
	if re.t != f.m.t {
		t.Fatalf("surfers %g, want %g", re.t, f.m.t)
	}
	for v := 0; v < f.g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if re.Damp(id) != f.m.Damp(id) || re.imp[id] != f.m.imp[id] {
			t.Fatalf("node %d: damp/imp %g/%g, want %g/%g",
				v, re.Damp(id), re.imp[id], f.m.Damp(id), f.m.imp[id])
		}
	}
	// The vectors are retained, not copied.
	if &re.imp[0] != &imp[0] || &re.DampVector()[0] != &damp[0] {
		t.Error("NewFromParts copied its input vectors")
	}
}

func TestNewFromPartsValidation(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddNode(graph.Node{Text: "x", Words: 1})
	b.AddNode(graph.Node{Text: "y", Words: 1})
	b.AddBiEdge(0, 1, 1, 1)
	g := b.Build()
	ix := textindex.Build(g)
	imp := []float64{0.75, 0.25}
	damp := []float64{0.5, 0.25}
	params := DefaultParams()

	if _, err := NewFromParts(g, ix, imp, damp, params); err != nil {
		t.Fatalf("valid parts rejected: %v", err)
	}
	cases := []struct {
		name      string
		imp, damp []float64
		params    Params
	}{
		{"bad params", imp, damp, Params{Alpha: 2, Group: 20}},
		{"short importance", imp[:1], damp, params},
		{"short damp", imp, damp[:1], params},
		{"zero importance", []float64{0, 1}, damp, params},
		{"NaN importance", []float64{math.NaN(), 1}, damp, params},
		{"infinite importance", []float64{math.Inf(1), 1}, damp, params},
		{"zero damp", imp, []float64{0, 0.5}, params},
		{"damp of one", imp, []float64{1, 0.5}, params},
		{"negative damp", imp, []float64{-0.1, 0.5}, params},
	}
	for _, c := range cases {
		if _, err := NewFromParts(g, ix, c.imp, c.damp, c.params); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, _, err := dampRates([]float64{0.5, 0}, params); err == nil {
		t.Error("dampRates accepted a zero importance entry")
	}
}
