package pagerank

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cirank/internal/graph"
)

func lineGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddNode(graph.Node{})
	}
	for i := 0; i+1 < n; i++ {
		b.AddBiEdge(graph.NodeID(i), graph.NodeID(i+1), 1, 1)
	}
	return b.Build()
}

func starGraph(leaves int) *graph.Graph {
	b := graph.NewBuilder(leaves + 1)
	for i := 0; i <= leaves; i++ {
		b.AddNode(graph.Node{})
	}
	for i := 1; i <= leaves; i++ {
		b.AddBiEdge(0, graph.NodeID(i), 1, 1)
	}
	return b.Build()
}

func TestComputeSumsToOne(t *testing.T) {
	g := starGraph(5)
	res, err := Compute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("did not converge")
	}
	sum := 0.0
	for _, s := range res.Scores {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("scores sum to %g, want 1", sum)
	}
}

func TestHubIsMostImportant(t *testing.T) {
	g := starGraph(8)
	res, err := Compute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < g.NumNodes(); i++ {
		if res.Scores[0] <= res.Scores[i] {
			t.Errorf("hub score %g not greater than leaf %d score %g", res.Scores[0], i, res.Scores[i])
		}
	}
}

func TestSymmetryOnLine(t *testing.T) {
	g := lineGraph(5)
	res, err := Compute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Scores[0]-res.Scores[4]) > 1e-9 || math.Abs(res.Scores[1]-res.Scores[3]) > 1e-9 {
		t.Errorf("line graph scores not symmetric: %v", res.Scores)
	}
	if res.Scores[2] <= res.Scores[0] {
		t.Errorf("middle node should outrank endpoint: %v", res.Scores)
	}
}

func TestDanglingNodes(t *testing.T) {
	// 0 ↔ 1 ↔ 2, and node 3 isolated, so dangling: all mass must still sum
	// to 1.
	b := graph.NewBuilder(4)
	for i := 0; i < 4; i++ {
		b.AddNode(graph.Node{})
	}
	b.AddBiEdge(0, 1, 1, 1)
	b.AddBiEdge(1, 2, 1, 1)
	g := b.Build()
	res, err := Compute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range res.Scores {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("scores sum to %g with dangling nodes, want 1", sum)
	}
	if res.Scores[1] <= res.Scores[0] || res.Scores[3] >= res.Scores[0] {
		t.Errorf("want the middle node above an end node above the isolated one: %v", res.Scores)
	}
}

func TestEdgeWeightsMatter(t *testing.T) {
	// 0 points to 1 (weight 9) and 2 (weight 1): 1 should be more important.
	b := graph.NewBuilder(3)
	for i := 0; i < 3; i++ {
		b.AddNode(graph.Node{})
	}
	b.AddBiEdge(0, 1, 9, 1)
	b.AddBiEdge(0, 2, 1, 1)
	g := b.Build()
	res, err := Compute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[1] <= res.Scores[2] {
		t.Errorf("weight-favored node 1 (%g) not above node 2 (%g)", res.Scores[1], res.Scores[2])
	}
}

func TestOptionValidation(t *testing.T) {
	g := lineGraph(2)
	bad := []Options{
		{Teleport: 0, MaxIterations: 10},
		{Teleport: 1, MaxIterations: 10},
		{Teleport: 0.15, MaxIterations: 0},
		{Teleport: 0.15, MaxIterations: 10, PersonalizationMix: 2},
	}
	for i, o := range bad {
		if _, err := Compute(g, o); err == nil {
			t.Errorf("options %d accepted: %+v", i, o)
		}
	}
	opts := DefaultOptions()
	opts.Personalization = map[graph.NodeID]float64{99: 1}
	opts.PersonalizationMix = 0.5
	if _, err := Compute(g, opts); err == nil {
		t.Error("out-of-range personalization node accepted")
	}
	opts.Personalization = map[graph.NodeID]float64{0: -1}
	if _, err := Compute(g, opts); err == nil {
		t.Error("negative personalization weight accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	res, err := Compute(g, DefaultOptions())
	if err != nil || !res.Converged {
		t.Fatalf("empty graph: res=%+v err=%v", res, err)
	}
}

func TestPersonalizationBiases(t *testing.T) {
	g := lineGraph(5)
	base, err := Compute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Personalization = map[graph.NodeID]float64{4: 1}
	opts.PersonalizationMix = 0.8
	biased, err := Compute(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if biased.Scores[4] <= base.Scores[4] {
		t.Errorf("personalized score for node 4 (%g) not above baseline (%g)", biased.Scores[4], base.Scores[4])
	}
	sum := 0.0
	for _, s := range biased.Scores {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("personalized scores sum to %g, want 1", sum)
	}
}

func TestMinPositive(t *testing.T) {
	g := starGraph(6)
	res, err := Compute(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m := slices.Min(res.Scores); m <= 0 {
		t.Errorf("min score = %g, want > 0 (teleport guarantees positivity)", m)
	}
}

// Property: on random graphs, scores form a probability distribution with
// every entry ≥ c/n (the teleport floor with uniform u).
func TestDistributionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		b := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddNode(graph.Node{})
		}
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddBiEdge(graph.NodeID(u), graph.NodeID(v), rng.Float64()+0.05, rng.Float64()+0.05)
			}
		}
		g := b.Build()
		res, err := Compute(g, DefaultOptions())
		if err != nil || !res.Converged {
			return false
		}
		sum := 0.0
		floor := 0.15 / float64(n) * (1 - 1e-9)
		for _, s := range res.Scores {
			if s < floor {
				return false
			}
			sum += s
		}
		return math.Abs(sum-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
