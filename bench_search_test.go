package cirank_test

// The online-search benchmark grid: dataset size × worker count × answer
// count k, over the skewed AOL-style query stream internal/searchbench
// derives, against an index-free search.Searcher. It is an ad-hoc view for
// benchstat while working on the hot path; the numbers a change is judged on
// come from the bench/ harness (BENCHMARK.json), and the allocation gate is
// internal/search/alloc_test.go's absolute ceilings.

import (
	"fmt"
	"testing"

	"cirank/internal/search"
	"cirank/internal/searchbench"
)

// searchBenchScales are the benchmarked dataset sizes (multipliers on the
// default DBLP table counts). Online search visits a bounded neighbourhood
// per query, so the scales are small: latency growth comes from denser term
// postings, not raw graph size.
var searchBenchScales = []struct {
	name  string
	scale float64
}{
	{"small", 0.12},
	{"medium", 0.25},
	{"large", 0.5},
}

var (
	searchBenchWorkers = []int{1, 2, 4}
	searchBenchKs      = []int{5, 10}
)

const searchBenchDiameter = 4

func BenchmarkSearch(b *testing.B) {
	for _, sc := range searchBenchScales {
		dataSeed, querySeed := searchbench.DefaultSeeds("dblp")
		w, err := searchbench.Load("dblp", sc.scale, dataSeed, querySeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range searchBenchKs {
			b.Run(fmt.Sprintf("stage=search/data=dblp-%s/k=%d", sc.name, k), func(b *testing.B) {
				for _, workers := range searchBenchWorkers {
					b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
						benchSearchStream(b, w, k, workers)
					})
				}
			})
		}
	}
}

func benchSearchStream(b *testing.B, w *searchbench.Workload, k, workers int) {
	b.ReportAllocs()
	s := search.New(w.M)
	opts := search.Options{K: k, Diameter: searchBenchDiameter, Workers: workers}
	// Warm the scratch pool so the measured loop sees the steady state a
	// long-running server reaches.
	for i := 0; i < 3; i++ {
		if _, _, err := s.TopK(w.Terms(i), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.TopK(w.Terms(i), opts); err != nil {
			b.Fatal(err)
		}
	}
}
