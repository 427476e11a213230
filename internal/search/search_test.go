package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/pathindex"
	"cirank/internal/rwmp"
	"cirank/internal/textindex"
)

// fixture builds a searcher over an explicit graph.
type fixture struct {
	g  *graph.Graph
	m  *rwmp.Model
	s  *Searcher
	ix *textindex.Index
}

func build(t testing.TB, texts []string, imp []float64, edges [][2]int) *fixture {
	t.Helper()
	b := graph.NewBuilder(len(texts))
	for _, s := range texts {
		b.AddNode(graph.Node{Relation: "R", Text: s, Words: textindex.WordCount(s)})
	}
	for _, e := range edges {
		b.AddBiEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), 1, 1)
	}
	g := b.Build()
	sum := 0.0
	for _, p := range imp {
		sum += p
	}
	norm := make([]float64, len(imp))
	for i, p := range imp {
		norm[i] = p / sum
	}
	ix := textindex.Build(g)
	m, err := rwmp.New(g, ix, norm, rwmp.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{g: g, m: m, s: New(m), ix: ix}
}

// fig2Fixture reproduces the paper's Fig. 2: two authors connected by two
// papers; node 2 ("tsimmis project") is far more important (more cited).
func fig2Fixture(t testing.TB) *fixture {
	return build(t,
		[]string{
			"papakonstantinou",         // 0
			"ullman",                   // 1
			"tsimmis project",          // 2: 38 citations
			"capability based tsimmis", // 3: 7 citations
		},
		[]float64{1, 1, 38, 7},
		[][2]int{{0, 2}, {1, 2}, {0, 3}, {1, 3}},
	)
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{K: 0, Diameter: 4},
		{K: 1, Diameter: -1},
		{K: 1, Diameter: 4, MaxExpansions: -1},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil", o)
		}
	}
}

func TestEmptyAndUnmatchedQueries(t *testing.T) {
	fx := fig2Fixture(t)
	if _, _, err := fx.s.TopK(nil, Options{K: 3, Diameter: 4}); err == nil {
		t.Error("empty query accepted")
	}
	if _, _, err := fx.s.TopK([]string{"  ", ""}, Options{K: 3, Diameter: 4}); err == nil {
		t.Error("blank query accepted")
	}
	res, _, err := fx.s.TopK([]string{"ullman", "nosuchword"}, Options{K: 3, Diameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("AND semantics violated: got %d answers for unmatched term", len(res))
	}
}

func TestFig2CitedPaperWins(t *testing.T) {
	fx := fig2Fixture(t)
	res, stats, err := fx.s.TopK([]string{"papakonstantinou", "ullman"}, Options{K: 2, Diameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 2 {
		t.Fatalf("got %d answers, want ≥ 2 (stats %+v)", len(res), stats)
	}
	if !res[0].Tree.Contains(2) {
		t.Errorf("top answer does not contain the highly-cited paper: nodes %v", res[0].Tree.Nodes())
	}
	if !res[1].Tree.Contains(3) {
		t.Errorf("second answer should use the lesser paper: nodes %v", res[1].Tree.Nodes())
	}
	if res[0].Score <= res[1].Score {
		t.Errorf("scores not ordered: %g vs %g", res[0].Score, res[1].Score)
	}
}

func TestSingleKeywordQuery(t *testing.T) {
	fx := fig2Fixture(t)
	res, _, err := fx.s.TopK([]string{"tsimmis"}, Options{K: 5, Diameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no answers for single keyword")
	}
	// The best single-node answer should be the important paper.
	if res[0].Tree.Size() != 1 || !res[0].Tree.Contains(2) {
		t.Errorf("top answer = %v, want single node 2", res[0].Tree.Nodes())
	}
}

func TestNaiveAgreesOnFig2(t *testing.T) {
	fx := fig2Fixture(t)
	terms := []string{"papakonstantinou", "ullman"}
	opts := Options{K: 2, Diameter: 4}
	bb, _, err := fx.s.TopK(terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	nv, _, err := fx.s.NaiveTopK(terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(bb) != len(nv) {
		t.Fatalf("bb %d answers, naive %d", len(bb), len(nv))
	}
	for i := range bb {
		if math.Abs(bb[i].Score-nv[i].Score) > 1e-12 {
			t.Errorf("answer %d: bb score %g, naive %g", i, bb[i].Score, nv[i].Score)
		}
	}
}

// randomFixture builds a small random connected graph with two keyword
// families sprinkled around.
func randomFixture(t testing.TB, rng *rand.Rand) *fixture {
	n := 5 + rng.Intn(5)
	texts := make([]string, n)
	imp := make([]float64, n)
	vocab := []string{"alpha", "beta", "hub spoke", "filler words here", "alpha beta"}
	for i := range texts {
		texts[i] = vocab[rng.Intn(len(vocab))]
		imp[i] = rng.Float64()*10 + 0.1
	}
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{i, rng.Intn(i)})
	}
	extra := rng.Intn(n)
	for i := 0; i < extra; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			edges = append(edges, [2]int{a, b})
		}
	}
	return build(t, texts, imp, edges)
}

// TestOptimalityAgainstOracle is the Theorem 1 certification: on random
// small graphs, branch-and-bound top-k must match exhaustive enumeration.
func TestOptimalityAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fx := randomFixture(t, rng)
		terms := [][]string{{"alpha"}, {"alpha", "beta"}, {"alpha", "spoke"}}[rng.Intn(3)]
		opts := Options{K: 1 + rng.Intn(4), Diameter: 2 + rng.Intn(3), ExtendedMerge: true}
		oracle, err := fx.s.ExhaustiveTopK(terms, opts, fx.g.NumNodes())
		if err != nil {
			t.Logf("oracle: %v", err)
			return false
		}
		got, _, err := fx.s.TopK(terms, opts)
		if err != nil {
			t.Logf("TopK: %v", err)
			return false
		}
		if len(got) != len(oracle) {
			t.Logf("seed %d: bb %d answers, oracle %d (terms %v opts %+v)", seed, len(got), len(oracle), terms, opts)
			return false
		}
		for i := range got {
			if math.Abs(got[i].Score-oracle[i].Score) > 1e-9 {
				t.Logf("seed %d: answer %d score %g vs oracle %g", seed, i, got[i].Score, oracle[i].Score)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestOptimalityWithIndex repeats the oracle check with the naive path
// index wired in: index-assisted bounds must not change the results.
func TestOptimalityWithIndex(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fx := randomFixture(t, rng)
		damp := make([]float64, fx.g.NumNodes())
		for i := range damp {
			damp[i] = fx.m.Damp(graph.NodeID(i))
		}
		diameter := 2 + rng.Intn(3)
		idx, err := pathindex.BuildNaive(fx.g, damp, diameter)
		if err != nil {
			t.Logf("index: %v", err)
			return false
		}
		terms := []string{"alpha", "beta"}
		opts := Options{K: 3, Diameter: diameter, Index: idx, ExtendedMerge: true}
		oracle, err := fx.s.ExhaustiveTopK(terms, Options{K: 3, Diameter: diameter}, fx.g.NumNodes())
		if err != nil {
			return false
		}
		got, _, err := fx.s.TopK(terms, opts)
		if err != nil {
			return false
		}
		if len(got) != len(oracle) {
			t.Logf("seed %d: with-index %d answers, oracle %d", seed, len(got), len(oracle))
			return false
		}
		for i := range got {
			if math.Abs(got[i].Score-oracle[i].Score) > 1e-9 {
				t.Logf("seed %d: answer %d score %g vs oracle %g", seed, i, got[i].Score, oracle[i].Score)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIndexReducesWork(t *testing.T) {
	fx := fig2Fixture(t)
	terms := []string{"papakonstantinou", "ullman"}
	_, plain, err := fx.s.TopK(terms, Options{K: 1, Diameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	damp := make([]float64, fx.g.NumNodes())
	for i := range damp {
		damp[i] = fx.m.Damp(graph.NodeID(i))
	}
	idx, err := pathindex.BuildNaive(fx.g, damp, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, indexed, err := fx.s.TopK(terms, Options{K: 1, Diameter: 4, Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	if indexed.Generated > plain.Generated {
		t.Errorf("index increased generated candidates: %d > %d", indexed.Generated, plain.Generated)
	}
}

func TestMaxExpansionsTruncates(t *testing.T) {
	fx := fig2Fixture(t)
	_, stats, err := fx.s.TopK([]string{"papakonstantinou", "ullman"}, Options{K: 50, Diameter: 6, MaxExpansions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated {
		t.Error("expected truncation with MaxExpansions=1")
	}
	if stats.Expanded > 1 {
		t.Errorf("expanded %d candidates despite cap", stats.Expanded)
	}
}

// TestFrontierBoundGivesUpOnLostTrees is the lossy side of the FrontierBound
// certificate (TestFrontierBoundCertifies holds the finite side): a cap whose
// Generated backstop the hub's merge closure overruns drops trees, and only
// then does the bound read +Inf.
func TestFrontierBoundGivesUpOnLostTrees(t *testing.T) {
	fx := hubFixture(t, 40, 0)
	var lost, kept int
	for limit := 1; limit <= 64; limit *= 2 {
		st, err := fx.s.run(context.Background(), newQueryScratch(), hubTerms,
			Options{K: 5, Diameter: 4, Workers: 1, MaxExpansions: limit})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(st.stats.FrontierBound, 1) != st.lost || !st.stats.Truncated {
			t.Errorf("cap %d: FrontierBound %g, trees lost %v, stats %+v", limit, st.stats.FrontierBound, st.lost, st.stats)
		}
		if st.lost {
			lost++
		} else {
			kept++
		}
	}
	if lost == 0 || kept == 0 {
		t.Fatalf("%d capped runs lost trees, %d did not; want some of each", lost, kept)
	}
}

// TestExtendedMergeAssemblesThreeSubtreeStar: a hub with three neighbours
// that all match the one query term has an answer only the extended merge
// rule builds — the star of hub and all three matches, whose third subtree
// adds a non-free node without covering a new keyword, which the paper's
// §IV-B rule never merges.
func TestExtendedMergeAssemblesThreeSubtreeStar(t *testing.T) {
	fx := build(t,
		[]string{"connector", "smith", "smith", "smith"},
		[]float64{1, 1, 1, 1},
		[][2]int{{0, 1}, {0, 2}, {0, 3}},
	)
	hasStar := func(answers []Answer) bool {
		for _, a := range answers {
			if a.Tree.Size() == 4 {
				return true
			}
		}
		return false
	}
	opts := Options{K: 20, Diameter: 4, Workers: 1}
	strict, _, err := fx.s.TopK([]string{"smith"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.ExtendedMerge = true
	extended, _, err := fx.s.TopK([]string{"smith"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hasStar(strict) || !hasStar(extended) || len(extended) <= len(strict) {
		t.Errorf("strict: %d answers (star %v), extended: %d (star %v); want the star from the extended rule only",
			len(strict), hasStar(strict), len(extended), hasStar(extended))
	}
}

func TestStrictMergeIsSubset(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fx := randomFixture(t, rng)
		terms := []string{"alpha", "beta"}
		opts := Options{K: 5, Diameter: 4, ExtendedMerge: true}
		ext, _, err := fx.s.TopK(terms, opts)
		if err != nil {
			return false
		}
		opts.ExtendedMerge = false
		strict, _, err := fx.s.TopK(terms, opts)
		if err != nil {
			return false
		}
		// Strict mode explores a subset of trees, so its i-th best answer
		// can never beat the extended i-th best.
		if len(strict) > len(ext) {
			return false
		}
		for i := range strict {
			if strict[i].Score > ext[i].Score+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEnumerateAnswersValidDistinct(t *testing.T) {
	fx := fig2Fixture(t)
	trees, err := fx.s.EnumerateAnswers([]string{"papakonstantinou", "ullman"}, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) < 2 {
		t.Fatalf("enumerated %d answers, want ≥ 2", len(trees))
	}
	seen := map[string]bool{}
	for _, tr := range trees {
		key := tr.CanonicalKey()
		if seen[key] {
			t.Error("duplicate answer from EnumerateAnswers")
		}
		seen[key] = true
		if tr.Diameter() > 4 {
			t.Errorf("answer exceeds diameter: %v", tr.Nodes())
		}
	}
}

func TestEnumerateAnswersLimit(t *testing.T) {
	fx := fig2Fixture(t)
	trees, err := fx.s.EnumerateAnswers([]string{"papakonstantinou", "ullman"}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 {
		t.Errorf("limit ignored: got %d answers", len(trees))
	}
}

func TestTopKDedup(t *testing.T) {
	tk := newTopK(3)
	tr := jtt.NewSingle(1)
	if !tk.add(tr, 5) {
		t.Error("first add failed")
	}
	if tk.add(tr, 5) {
		t.Error("duplicate add succeeded")
	}
	tk.add(jtt.NewSingle(2), 7)
	tk.add(jtt.NewSingle(3), 6)
	tk.add(jtt.NewSingle(4), 1) // falls off: list is full with higher scores
	res := tk.results()
	if len(res) != 3 || res[0].Score != 7 || res[1].Score != 6 || res[2].Score != 5 {
		t.Errorf("unexpected topK order: %+v", res)
	}
	if tk.min() != 5 {
		t.Errorf("min = %g, want 5", tk.min())
	}
}

func TestQueryTermNormalization(t *testing.T) {
	fx := fig2Fixture(t)
	a, _, err := fx.s.TopK([]string{"ULLMAN", " ullman "}, Options{K: 3, Diameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := fx.s.TopK([]string{"ullman"}, Options{K: 3, Diameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("normalization changed results: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Score != b[i].Score {
			t.Errorf("answer %d scores differ: %g vs %g", i, a[i].Score, b[i].Score)
		}
	}
}

func TestConcurrentSearches(t *testing.T) {
	fx := fig2Fixture(t)
	terms := []string{"papakonstantinou", "ullman"}
	want, _, err := fx.s.TopK(terms, Options{K: 2, Diameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := fx.s.TopK(terms, Options{K: 2, Diameter: 4})
			if err != nil {
				errs <- err
				return
			}
			if len(got) != len(want) {
				errs <- fmt.Errorf("got %d answers, want %d", len(got), len(want))
				return
			}
			for j := range got {
				if got[j].Score != want[j].Score {
					errs <- fmt.Errorf("answer %d score %g != %g", j, got[j].Score, want[j].Score)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDiameterZeroAndOne(t *testing.T) {
	fx := fig2Fixture(t)
	// Diameter 0: only single-node answers are possible; a two-term query
	// has none (no node contains both terms).
	res, _, err := fx.s.TopK([]string{"papakonstantinou", "ullman"}, Options{K: 3, Diameter: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("diameter 0 found %d multi-node answers", len(res))
	}
	// Diameter 0, single term: the node itself.
	res, _, err = fx.s.TopK([]string{"ullman"}, Options{K: 3, Diameter: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Tree.Size() != 1 {
		t.Errorf("diameter 0 single-term results: %+v", res)
	}
	// Diameter 1 on the author–paper–author shape (diameter 2) still
	// yields nothing for the pair query.
	res, _, err = fx.s.TopK([]string{"papakonstantinou", "ullman"}, Options{K: 3, Diameter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("diameter 1 found %d answers, want 0", len(res))
	}
}

// TestHugeDiameterIsBounded checks a hostile Diameter against the supply
// fields: they store at most maxSupplyLevels levels per node whatever D is,
// so D = 2^20 on the Fig. 2 graph ranks exactly as D = n does (no tree there
// is wider) and allocates a few kilobytes, not a NumNodes × D table.
func TestHugeDiameterIsBounded(t *testing.T) {
	fx := fig2Fixture(t)
	terms := []string{"papakonstantinou", "ullman"}
	want, _, err := fx.s.TopK(terms, Options{K: 10, Diameter: fx.g.NumNodes(), Workers: 1})
	if err != nil || len(want) == 0 {
		t.Fatalf("D = n: %d answers, err %v", len(want), err)
	}
	huge := Options{K: 10, Diameter: 1 << 20, Workers: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, stats, err := New(fx.m).TopK(terms, huge) // a fresh searcher: nothing pooled
	runtime.ReadMemStats(&after)
	if err != nil || stats.Truncated || stats.Interrupted {
		t.Fatalf("D = 2^20: err %v, stats %+v", err, stats)
	}
	answersEqual(t, "D = 2^20 against D = n", want, got)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("D = 2^20 on a %d-node graph allocated %d bytes", fx.g.NumNodes(), grew)
	}
}

func TestStatsAccounting(t *testing.T) {
	fx := fig2Fixture(t)
	_, stats, err := fx.s.TopK([]string{"papakonstantinou", "ullman"}, Options{K: 2, Diameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Generated < stats.Answers {
		t.Errorf("generated %d < answers %d", stats.Generated, stats.Answers)
	}
	if stats.Expanded == 0 || stats.Generated == 0 || stats.Answers == 0 {
		t.Errorf("zero stats: %+v", stats)
	}
	if stats.Truncated {
		t.Error("unexpected truncation")
	}
}
