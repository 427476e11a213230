package search

import (
	"fmt"
	"sync"
	"testing"

	"cirank/internal/datagen"
	"cirank/internal/graph"
	"cirank/internal/pathindex"
	"cirank/internal/relational"
	"cirank/internal/rwmp"
)

// datagenFixture materializes a synthetic dataset into a searcher plus a
// query workload — the randomized end-to-end substrate of the determinism
// suite.
type datagenFixture struct {
	s       *Searcher
	g       *graph.Graph
	isStar  []bool
	queries []datagen.Query
}

func prepareDatagen(t testing.TB, kind string, scale float64, dataSeed, querySeed int64, queryCount int) *datagenFixture {
	t.Helper()
	ds, err := datagen.Generate(kind, scale, dataSeed)
	if err != nil {
		t.Fatal(err)
	}
	built, err := datagen.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rwmp.New(built.G, built.Ix, built.Importance, rwmp.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	queries, err := built.GenerateWorkload(datagen.SyntheticConfig(queryCount, querySeed))
	if err != nil {
		t.Fatal(err)
	}
	isStar := relational.StarNodeSet(built.G, relational.StarTables(ds.Schema))
	return &datagenFixture{s: New(m), g: built.G, isStar: isStar, queries: queries}
}

// answersEqual asserts two ranked lists are byte-identical: same length,
// same trees (by canonical key), same exact float64 scores, same order.
func answersEqual(t *testing.T, label string, want, got []Answer) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d answers, want %d", label, len(got), len(want))
		return
	}
	for i := range want {
		if want[i].Tree.CanonicalKey() != got[i].Tree.CanonicalKey() {
			t.Errorf("%s: rank %d tree %s, want %s",
				label, i, got[i].Tree.CanonicalKey(), want[i].Tree.CanonicalKey())
		}
		if want[i].Score != got[i].Score {
			t.Errorf("%s: rank %d score %v, want exactly %v", label, i, got[i].Score, want[i].Score)
		}
	}
}

// TestParallelDeterminism is the acceptance suite for Options.Workers, which
// fans out the per-term supply fields: across randomized datagen workloads
// (two datasets × many generated queries ≥ 20 workloads total),
// branch-and-bound search with Workers: 8 must return a ranked list
// byte-identical to the Workers: 1 run — same trees, same exact scores,
// same order — and identical Stats. The guarantee covers truncated runs
// too, so every query also runs under a MaxExpansions cap of 50.
func TestParallelDeterminism(t *testing.T) {
	fixtures := []*datagenFixture{
		prepareDatagen(t, "imdb", 0.12, 1, 11, 12),
		prepareDatagen(t, "dblp", 0.12, 2, 13, 12),
	}
	const capped = 50
	total, truncated := 0, 0
	for fi, fx := range fixtures {
		for qi, q := range fx.queries {
			total++
			for _, limit := range []int{200000, capped} {
				base := Options{K: 5, Diameter: 4, MaxExpansions: limit}
				seqOpts := base
				seqOpts.Workers = 1
				seq, seqStats, err := fx.s.TopK(q.Terms, seqOpts)
				if err != nil {
					t.Fatal(err)
				}
				if seqStats.Truncated {
					if limit != capped {
						t.Fatalf("fixture %d query %d truncated; raise MaxExpansions", fi, qi)
					}
					truncated++
				}
				parOpts := base
				parOpts.Workers = 8
				par, parStats, err := fx.s.TopK(q.Terms, parOpts)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("fixture %d query %d (%v) MaxExpansions %d", fi, qi, q.Terms, limit)
				answersEqual(t, label, seq, par)
				if seqStats != parStats {
					t.Errorf("%s: stats diverged: seq %+v, par %+v", label, seqStats, parStats)
				}
			}
		}
	}
	if total < 20 {
		t.Fatalf("determinism suite covered %d workloads, want >= 20", total)
	}
	if truncated == 0 {
		t.Fatalf("no query hit the MaxExpansions cap of %d; the truncated arm tested nothing", capped)
	}
}

// TestParallelDeterminismIndexed repeats the determinism check with a path
// index assisting the bounds: the sequential and the parallel run share one
// immutable index.
func TestParallelDeterminismIndexed(t *testing.T) {
	fx := prepareDatagen(t, "imdb", 0.12, 3, 17, 8)
	damp := make([]float64, fx.g.NumNodes())
	for i := range damp {
		damp[i] = fx.s.m.Damp(graph.NodeID(i))
	}
	idx, err := pathindex.BuildNaive(fx.g, damp, 4)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range fx.queries {
		seq, seqStats, err := fx.s.TopK(q.Terms, Options{
			K: 5, Diameter: 4, MaxExpansions: 200000, Workers: 1, Index: idx,
		})
		if err != nil {
			t.Fatal(err)
		}
		if seqStats.Truncated {
			t.Fatalf("query %d truncated; raise MaxExpansions", qi)
		}
		par, _, err := fx.s.TopK(q.Terms, Options{
			K: 5, Diameter: 4, MaxExpansions: 200000, Workers: 8, Index: idx,
		})
		if err != nil {
			t.Fatal(err)
		}
		answersEqual(t, fmt.Sprintf("query %d (%v)", qi, q.Terms), seq, par)
	}
}

// TestConcurrentCachedSearches drives one Searcher — one scratch pool — and
// one immutable star index, passed explicitly as Options.Index, from many
// goroutines. Run under -race this exercises the isolation of pooled
// per-query state (dense tables, field table, tree set, root records) and
// the index's lock-free reads; each goroutine must also observe the same
// ranked lists.
func TestConcurrentCachedSearches(t *testing.T) {
	fx := prepareDatagen(t, "imdb", 0.1, 5, 23, 4)
	idx, err := pathindex.BuildStar(fx.g, fx.s.m.DampVector(), fx.isStar, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 5, Diameter: 4, MaxExpansions: 200000, Workers: 2, Index: idx}
	type outcome struct {
		qi  int
		res []Answer
		err error
	}
	var wg sync.WaitGroup
	results := make(chan outcome, 8*len(fx.queries))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi, q := range fx.queries {
				res, _, err := fx.s.TopK(q.Terms, opts)
				results <- outcome{qi: qi, res: res, err: err}
			}
		}()
	}
	wg.Wait()
	close(results)
	reference := make([][]Answer, len(fx.queries))
	for out := range results {
		if out.err != nil {
			t.Fatal(out.err)
		}
		if reference[out.qi] == nil {
			reference[out.qi] = out.res
			continue
		}
		answersEqual(t, fmt.Sprintf("concurrent query %d", out.qi), reference[out.qi], out.res)
	}
}

// TestWorkersValidation covers the new Options field.
func TestWorkersValidation(t *testing.T) {
	if err := (Options{K: 1, Diameter: 4, Workers: -1}).Validate(); err == nil {
		t.Error("negative Workers accepted")
	}
	if err := (Options{K: 1, Diameter: 4, Workers: 8}).Validate(); err != nil {
		t.Errorf("Workers 8 rejected: %v", err)
	}
}

// TestParallelFor exercises the work-distribution primitive.
func TestParallelFor(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {7, 1}, {7, 3}, {100, 8}, {3, 100},
	} {
		var mu sync.Mutex
		seen := make(map[int]int)
		parallelFor(tc.n, tc.workers, func(i int) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
		})
		if len(seen) != tc.n {
			t.Errorf("parallelFor(%d, %d) covered %d indices", tc.n, tc.workers, len(seen))
		}
		for i, count := range seen {
			if count != 1 {
				t.Errorf("parallelFor(%d, %d): index %d ran %d times", tc.n, tc.workers, i, count)
			}
		}
	}
}

// TestExhaustiveAgreesWithParallel pins the parallel branch-and-bound to the
// oracle on the shared fig2 fixture: optimality must survive the concurrency
// layer.
func TestExhaustiveAgreesWithParallel(t *testing.T) {
	fx := fig2Fixture(t)
	terms := []string{"papakonstantinou", "ullman"}
	oracle, err := fx.s.ExhaustiveTopK(terms, Options{K: 2, Diameter: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := fx.s.TopK(terms, Options{K: 2, Diameter: 4, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	answersEqual(t, "fig2 oracle", oracle, par)
}
