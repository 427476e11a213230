// Benchmarks regenerating every figure of the paper's evaluation section
// (§VI), plus ablation benches for the design choices DESIGN.md calls out.
// Each BenchmarkFigN drives the same code path as
// `cirank-experiments -fig N`, at a reduced scale so the suite completes in
// minutes; run the command for full-scale tables.
package cirank

import (
	"fmt"
	"sync"
	"testing"

	"cirank/internal/datagen"
	"cirank/internal/experiments"
	"cirank/internal/graph"
	"cirank/internal/pagerank"
	"cirank/internal/pathindex"
	"cirank/internal/relational"
	"cirank/internal/rwmp"
	"cirank/internal/search"
)

// benchConfig is the reduced-scale experiment configuration shared by the
// figure benchmarks.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.3
	cfg.QueryCount = 8
	cfg.PoolLimit = 200
	cfg.MaxExpansions = 20000
	return cfg
}

var (
	benchOnce sync.Once
	benchIMDB *experiments.Bundle
	benchDBLP *experiments.Bundle
	benchErr  error
)

// benchBundles prepares the datasets once per `go test -bench` process.
func benchBundles(b *testing.B) (*experiments.Bundle, *experiments.Bundle) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := benchConfig()
		benchIMDB, benchErr = experiments.PrepareIMDB(cfg.Scale, cfg.Seed)
		if benchErr != nil {
			return
		}
		benchDBLP, benchErr = experiments.PrepareDBLP(cfg.Scale, cfg.Seed)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchIMDB, benchDBLP
}

// BenchmarkFig6AlphaSweep regenerates Fig. 6: MRR as a function of α.
func BenchmarkFig6AlphaSweep(b *testing.B) {
	imdb, dblp := benchBundles(b)
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig6AlphaSweep(imdb, dblp, cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab)
	}
}

// BenchmarkFig7GroupSweep regenerates Fig. 7: MRR as a function of g.
func BenchmarkFig7GroupSweep(b *testing.B) {
	imdb, dblp := benchBundles(b)
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig7GroupSweep(imdb, dblp, cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab)
	}
}

// BenchmarkFig8MRRComparison regenerates Fig. 8: MRR of SPARK, BANKS and
// CI-Rank over the three dataset/workload pairs.
func BenchmarkFig8MRRComparison(b *testing.B) {
	imdb, dblp := benchBundles(b)
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig8MRRComparison(imdb, dblp, cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab)
	}
}

// BenchmarkFig9PrecisionComparison regenerates Fig. 9: precision of the
// three methods.
func BenchmarkFig9PrecisionComparison(b *testing.B) {
	imdb, dblp := benchBundles(b)
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig9PrecisionComparison(imdb, dblp, cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab)
	}
}

// BenchmarkFig10NaiveVsBB regenerates Fig. 10: naive vs branch-and-bound
// average search time.
func BenchmarkFig10NaiveVsBB(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig10NaiveVsBB(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab)
	}
}

// BenchmarkFig11IMDBIndexTime regenerates Fig. 11: IMDB search time across
// D with and without the star index.
func BenchmarkFig11IMDBIndexTime(b *testing.B) {
	imdb, _ := benchBundles(b)
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig11IMDBIndexTime(imdb, cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab)
	}
}

// BenchmarkFig12DBLPIndexTime regenerates Fig. 12: the same on DBLP.
func BenchmarkFig12DBLPIndexTime(b *testing.B) {
	_, dblp := benchBundles(b)
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig12DBLPIndexTime(dblp, cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab)
	}
}

// reportTable prints each figure once per benchmark run, so
// `go test -bench` output doubles as the experiment record.
var reportOnce sync.Map

func reportTable(b *testing.B, tab *experiments.Table) {
	if _, dup := reportOnce.LoadOrStore(tab.Title, true); !dup {
		b.Logf("\n%s", tab)
	}
}

// BenchmarkTable2GraphBuild covers Table II: building the data graph with
// the paper's per-type edge weights, the substrate every experiment rests
// on.
func BenchmarkTable2GraphBuild(b *testing.B) {
	ds, err := datagen.GenerateIMDB(datagen.DefaultIMDBConfig(1).Scale(0.3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := relational.BuildGraph(ds.DB, graph.DefaultIMDBWeights(), 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations and microbenchmarks -------------------------------------

// BenchmarkAblationMergeRule compares the paper's strict merge-admission
// rule (§IV-B: the union must cover more keywords) against the extended
// rule that restores full completeness; the strict rule is the default
// because the extended one explodes around hub nodes.
func BenchmarkAblationMergeRule(b *testing.B) {
	imdb, _ := benchBundles(b)
	m, err := imdb.DefaultModel()
	if err != nil {
		b.Fatal(err)
	}
	s := search.New(m)
	queries, err := imdb.Built.GenerateWorkload(datagen.SyntheticConfig(6, 31))
	if err != nil {
		b.Fatal(err)
	}
	for _, extended := range []bool{false, true} {
		name := "strict"
		if extended {
			name = "extended"
		}
		b.Run(name, func(b *testing.B) {
			opts := search.Options{K: 5, Diameter: 4, MaxExpansions: 20000, ExtendedMerge: extended}
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, _, err := s.TopK(q.Terms, opts); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationIndexKind compares branch-and-bound assisted by no
// index, the O(|V|²) naive index (§V-A) and the star index (§V-B).
func BenchmarkAblationIndexKind(b *testing.B) {
	imdb, _ := benchBundles(b)
	m, err := imdb.DefaultModel()
	if err != nil {
		b.Fatal(err)
	}
	s := search.New(m)
	queries, err := imdb.Built.GenerateWorkload(datagen.SyntheticConfig(6, 37))
	if err != nil {
		b.Fatal(err)
	}
	g := imdb.Built.G
	damp := make([]float64, g.NumNodes())
	for i := range damp {
		damp[i] = m.Damp(graph.NodeID(i))
	}
	naiveIdx, err := pathindex.BuildNaive(g, damp, 4)
	if err != nil {
		b.Fatal(err)
	}
	starIdx, err := imdb.StarIndex(m, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		idx  pathindex.Index
	}{
		{"none", nil},
		{"naive", naiveIdx},
		{"star", starIdx},
	} {
		b.Run(tc.name, func(b *testing.B) {
			opts := search.Options{K: 5, Diameter: 4, MaxExpansions: 20000, Index: tc.idx}
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, _, err := s.TopK(q.Terms, opts); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkPageRank measures the importance computation (Eq. 1) that every
// engine build pays once.
func BenchmarkPageRank(b *testing.B) {
	imdb, _ := benchBundles(b)
	g := imdb.Built.G
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pagerank.Compute(g, pagerank.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRWMPScore measures scoring one joined tuple tree — the inner
// loop of both ranking and bounding.
func BenchmarkRWMPScore(b *testing.B) {
	imdb, _ := benchBundles(b)
	m, err := imdb.DefaultModel()
	if err != nil {
		b.Fatal(err)
	}
	s := search.New(m)
	queries, err := imdb.Built.GenerateWorkload(datagen.SyntheticConfig(3, 41))
	if err != nil {
		b.Fatal(err)
	}
	q := queries[0]
	trees, err := s.EnumerateAnswers(q.Terms, 4, 50)
	if err != nil || len(trees) == 0 {
		b.Fatalf("no trees to score: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range trees {
			m.Score(t, q.Terms)
		}
	}
}

// BenchmarkStarIndexBuild measures constructing the §V-B index.
func BenchmarkStarIndexBuild(b *testing.B) {
	imdb, _ := benchBundles(b)
	m, err := imdb.DefaultModel()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := imdb.StarIndex(m, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSearch measures an end-to-end public-API query.
func BenchmarkEngineSearch(b *testing.B) {
	builder := NewDBLPBuilder()
	for i := 0; i < 60; i++ {
		builder.MustInsert("Author", fmt.Sprintf("a%d", i), fmt.Sprintf("author number%d", i))
	}
	for i := 0; i < 150; i++ {
		key := fmt.Sprintf("p%d", i)
		builder.MustInsert("Paper", key, fmt.Sprintf("paper title number%d", i))
		builder.MustRelate("written_by", key, fmt.Sprintf("a%d", i%60))
		builder.MustRelate("written_by", key, fmt.Sprintf("a%d", (i+7)%60))
		if i > 0 {
			builder.MustRelate("cites", key, fmt.Sprintf("p%d", i/2))
		}
	}
	eng, err := builder.Build(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search("number3 number10", 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRWMPDamp measures the dampening-rate evaluation (Eq. 2).
func BenchmarkRWMPDamp(b *testing.B) {
	imdb, _ := benchBundles(b)
	params := rwmp.DefaultParams()
	if err := params.Validate(); err != nil {
		b.Fatal(err)
	}
	m, err := imdb.Model(params)
	if err != nil {
		b.Fatal(err)
	}
	n := imdb.Built.G.NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Damp(graph.NodeID(i % n))
	}
}
