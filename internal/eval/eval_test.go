package eval

import (
	"math"
	"testing"

	"cirank/internal/graph"
	"cirank/internal/jtt"
)

func TestReciprocalRank(t *testing.T) {
	keys := []string{"a", "b", "c"}
	cases := []struct {
		gold string
		want float64
	}{
		{"a", 1},
		{"b", 0.5},
		{"c", 1.0 / 3},
		{"missing", 0},
	}
	for _, c := range cases {
		if got := ReciprocalRank(keys, c.gold); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RR(%q) = %g, want %g", c.gold, got, c.want)
		}
	}
	if got := ReciprocalRank(nil, "x"); got != 0 {
		t.Errorf("RR on empty = %g", got)
	}
}

func TestEndpointGrade(t *testing.T) {
	tree := jtt.NewSingle(1).MustAttach(2, 1).MustAttach(3, 2)
	if g := EndpointGrade(tree, []graph.NodeID{1, 3}); g != 1 {
		t.Errorf("full grade = %g, want 1", g)
	}
	if g := EndpointGrade(tree, []graph.NodeID{1, 9}); g != 0.5 {
		t.Errorf("half grade = %g, want 0.5", g)
	}
	if g := EndpointGrade(tree, []graph.NodeID{8, 9}); g != 0 {
		t.Errorf("zero grade = %g, want 0", g)
	}
	if g := EndpointGrade(tree, nil); g != 0 {
		t.Errorf("empty endpoints grade = %g, want 0", g)
	}
}

func TestPrecisionAtK(t *testing.T) {
	grades := []float64{1, 0.5, 0}
	if p := PrecisionAtK(grades, 2); math.Abs(p-0.75) > 1e-12 {
		t.Errorf("P@2 = %g, want 0.75", p)
	}
	if p := PrecisionAtK(grades, 10); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("P@10 over 3 = %g, want 0.5", p)
	}
	if p := PrecisionAtK(nil, 5); p != 0 {
		t.Errorf("P@5 empty = %g, want 0", p)
	}
}

func TestAccumulator(t *testing.T) {
	var a Accumulator
	if a.MRR() != 0 || a.Precision() != 0 || a.n != 0 {
		t.Error("empty accumulator not zero")
	}
	a.Add(1, 0.8)
	a.Add(0.5, 1.0)
	if a.n != 2 {
		t.Errorf("n = %d", a.n)
	}
	if math.Abs(a.MRR()-0.75) > 1e-12 {
		t.Errorf("MRR = %g, want 0.75", a.MRR())
	}
	if math.Abs(a.Precision()-0.9) > 1e-12 {
		t.Errorf("Precision = %g, want 0.9", a.Precision())
	}
}
