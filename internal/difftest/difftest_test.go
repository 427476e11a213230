package difftest

import (
	"fmt"
	"testing"

	"cirank/internal/graph"
	"cirank/internal/search"
)

// numSeeds is the committed workload count: every seed in [0, numSeeds) is
// generated and cross-checked on every run. Failures name the seed, which
// alone reproduces the workload.
const numSeeds = 224

// seedGroups spreads the seeds over parallel subtests (labelled "shard<i>",
// the name CI history knows them by).
const seedGroups = 8

// TestDifferential is the harness entry point: for every committed seed it
// generates a random workload and cross-checks all four oracle axes —
// branch-and-bound vs naive vs exhaustive top-k, path index bounds vs
// brute-force ground truth (plus codec roundtrips), cached/parallel engine
// variants vs the sequential baseline, and the answer/bound invariants.
func TestDifferential(t *testing.T) {
	for group := 0; group < seedGroups; group++ {
		group := group
		t.Run(fmt.Sprintf("shard%d", group), func(t *testing.T) {
			t.Parallel()
			for seed := int64(group); seed < numSeeds; seed += seedGroups {
				w, err := Generate(seed)
				if err != nil {
					t.Fatalf("generate seed %d: %v", seed, err)
				}
				if err := CheckWorkload(w); err != nil {
					t.Errorf("%v", err)
				}
			}
		})
	}
}

// TestGenerateDeterministic pins the property every failure report relies
// on: the same seed always yields the same workload.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumNodes() != b.Graph.NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", a.Graph.NumNodes(), b.Graph.NumNodes())
	}
	for v := 0; v < a.Graph.NumNodes(); v++ {
		na, nb := a.Graph.Node(graph.NodeID(v)), b.Graph.Node(graph.NodeID(v))
		if *na != *nb {
			t.Fatalf("node %d differs: %+v vs %+v", v, na, nb)
		}
	}
	if a.Params != b.Params {
		t.Fatalf("params differ: %+v vs %+v", a.Params, b.Params)
	}
	if len(a.Queries) != len(b.Queries) {
		t.Fatalf("query counts differ: %d vs %d", len(a.Queries), len(b.Queries))
	}
	for i := range a.Queries {
		qa, qb := a.Queries[i], b.Queries[i]
		if qa.K != qb.K || qa.Diameter != qb.Diameter || fmt.Sprint(qa.Terms) != fmt.Sprint(qb.Terms) {
			t.Fatalf("query %d differs: %+v vs %+v", i, qa, qb)
		}
	}
}

// TestRegressionSeed978 pins the first bug the harness caught: the
// branch-and-bound upper bound treated a lone source's generation as its
// score ceiling, so the low-generation merge partner {1←9} of the optimal
// branching answer {1;2,9} was pruned once the top-k filled, and the true
// rank-4 answer was silently replaced by rank 5. The single-source
// supplement bound in search/bounds.go is the fix.
func TestRegressionSeed978(t *testing.T) {
	w, err := Generate(978)
	if err != nil {
		t.Fatal(err)
	}
	q := w.Queries[2]
	opts := search.Options{K: q.K, Diameter: q.Diameter, Workers: 1, ExtendedMerge: true}
	bb, _, err := w.Searcher.TopK(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := "1,2,9|1-2,1-9"
	for _, a := range bb {
		if a.Tree.CanonicalKey() == want {
			return
		}
	}
	t.Fatalf("top-%d for %v lost answer %s again", q.K, q.Terms, want)
}
