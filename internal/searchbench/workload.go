// Package searchbench prepares the query workload the search benchmarks and
// the exploration pin share: a generated dataset, the RWMP scoring model over
// it, and a skewed AOL-style query stream. The root package's BenchmarkSearch
// and this package's own TestStatsPinned (testdata/stats_pins.json: the exact
// per-query Expanded/Generated/Answers counts of the live engine) both load
// their queries through it, so they measure and pin the same stream.
package searchbench

import (
	"math"
	"math/rand"

	"cirank/internal/datagen"
	"cirank/internal/graph"
	"cirank/internal/rwmp"
)

// Workload bundles one generated dataset with a skewed query stream, ready
// for the search benchmarks.
type Workload struct {
	// Dataset is "dblp" or "imdb".
	Dataset string
	// Scale multiplies the dataset's default table sizes.
	Scale float64
	// DataSeed drives dataset generation, QuerySeed the query sampler and
	// the stream skew.
	DataSeed, QuerySeed int64

	// G is the data graph.
	G *graph.Graph
	// M is the RWMP scoring model over G.
	M *rwmp.Model
	// Queries are the distinct query term lists, generated with the
	// AOL-derived class mix (datagen.UserLogConfig: mostly adjacent pairs,
	// 11.4% requiring free connectors, ambiguous name queries).
	Queries [][]string
	// Stream indexes Queries in benchmark execution order. Real query logs
	// are highly repetitive, so the stream draws from Queries under a Zipf
	// skew: a handful of popular queries dominate, the tail appears once or
	// twice. Engines with cross-query state (scratch pools, the bound memo)
	// meet the access pattern they would see in production.
	Stream []int
}

// workloadQueries is the number of distinct queries per workload and
// streamLength the benchmark stream's length; zipfS is the stream's Zipf
// exponent (queries are ranked by generation order).
const (
	workloadQueries = 24
	streamLength    = 96
	zipfS           = 1.1
)

// Load generates the dataset ("dblp" or "imdb") at the given scale, builds
// the scoring model, and derives the query stream. Identical arguments
// produce an identical workload.
func Load(dataset string, scale float64, dataSeed, querySeed int64) (*Workload, error) {
	ds, err := datagen.Generate(dataset, scale, dataSeed)
	if err != nil {
		return nil, err
	}
	built, err := datagen.Build(ds)
	if err != nil {
		return nil, err
	}
	m, err := rwmp.New(built.G, built.Ix, built.Importance, rwmp.DefaultParams())
	if err != nil {
		return nil, err
	}
	qs, err := built.GenerateWorkload(datagen.UserLogConfig(workloadQueries, querySeed))
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Dataset:   dataset,
		Scale:     scale,
		DataSeed:  dataSeed,
		QuerySeed: querySeed,
		G:         built.G,
		M:         m,
	}
	for _, q := range qs {
		w.Queries = append(w.Queries, q.Terms)
	}
	w.Stream = zipfStream(len(w.Queries), streamLength, querySeed)
	return w, nil
}

// Terms returns the term list of the i-th stream entry (i taken modulo the
// stream length, so benchmark loops can pass a plain iteration counter).
func (w *Workload) Terms(i int) []string {
	return w.Queries[w.Stream[i%len(w.Stream)]]
}

// zipfStream samples length query indices from [0, n) under a Zipf
// distribution with exponent zipfS, deterministically in seed.
func zipfStream(n, length int, seed int64) []int {
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), zipfS)
		total += weights[i]
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eedc0de))
	out := make([]int, length)
	for j := range out {
		r := rng.Float64() * total
		for i, w := range weights {
			r -= w
			if r <= 0 || i == n-1 {
				out[j] = i
				break
			}
		}
	}
	return out
}

// DefaultSeeds returns the workload seeds the benchmarks and pins use for the
// dataset: generation seeds proven to yield a full AOL-style workload at the
// benchmarked scales.
func DefaultSeeds(dataset string) (dataSeed, querySeed int64) {
	if dataset == "imdb" {
		return 1, 11
	}
	return 2, 13
}
