// Package searchbench prepares query workloads for the online-search
// benchmarks and preserves the frozen pre-rewrite search engine they are
// measured against. The root package's BenchmarkSearch and the
// cmd/cirank-bench JSON emitter (-mode search) share this code, so `go test
// -bench` and the tracked BENCH_search.json measure the same thing: a
// generated dataset, a skewed AOL-style query stream over it, and the live
// branch-and-bound engine next to the naive-alloc baseline.
//
// The frozen baseline (NaiveAllocTopK, over map-backed trees) is the online
// counterpart of internal/buildbench's naive-maps: a wholesale copy of the
// engine as it was before the pooled-scratch rewrite, kept so the rewrite's
// allocation and latency win stays measurable release after release. Its
// rankings are byte-identical to the live engine's, which
// TestNaiveAllocMatchesLiveEngine certifies — same answers, different
// allocators.
//
// # BENCH_search.json
//
// cmd/cirank-bench -mode search writes the tracked trajectory under schema
// "cirank/bench-search/v1". The document carries the shared report header
// (schema, go_version, gomaxprocs, num_cpu, dataset, seed — the data seed —
// query_seed, and a human-oriented note) plus one results entry per grid
// cell with these fields:
//
//   - stage: "search" for the live engine, "naive-alloc" for the frozen
//     pre-rewrite baseline (always sequential).
//   - scale: dataset scale multiplier; nodes, edges: resulting graph size.
//   - workers: Options.Workers for the cell (1 on naive-alloc cells).
//   - k: Options.K, the requested answer count.
//   - n: number of measured query executions (passes × stream length).
//   - ns_per_op: mean wall-clock nanoseconds per query.
//   - p50_ns, p99_ns: the 50th and 99th percentile per-query latency; p99
//     is what an interactive caller experiences on the hub-heavy tail.
//   - queries_per_sec: measured throughput of the whole stream.
//   - allocs_per_query: mean heap allocations per query (exact, from the
//     runtime's allocation counter).
//   - speedup_vs_w1: this stage's workers=1 mean latency over this cell's
//     (1 on the workers=1 cells; needs a multi-core machine to exceed 1).
//   - speedup_vs_naive_alloc: the frozen baseline's mean latency at the
//     same scale and k over this cell's — the allocation-lean rewrite's
//     headline axis, visible on any machine.
package searchbench

import (
	"fmt"
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
	ds, err := generateDatasetByKind(dataset, scale, dataSeed)
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

// StreamPlan returns the standard workload sizing of the tracked
// benchmarks — the number of distinct queries to generate and the skewed
// replay order over them — deterministic in seed. internal/servebench uses
// it to drive the serving benchmarks with exactly the stream the engine
// benchmarks measure, without building a second scoring model.
func StreamPlan(seed int64) (queries int, stream []int) {
	return workloadQueries, zipfStream(workloadQueries, streamLength, seed)
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

// generateDatasetByKind builds one synthetic dataset by kind.
func generateDatasetByKind(kind string, scale float64, seed int64) (*datagen.Dataset, error) {
	switch kind {
	case "imdb":
		return datagen.GenerateIMDB(datagen.DefaultIMDBConfig(seed).Scale(scale))
	case "dblp":
		return datagen.GenerateDBLP(datagen.DefaultDBLPConfig(seed).Scale(scale))
	}
	return nil, fmt.Errorf("searchbench: unknown dataset kind %q (want dblp or imdb)", kind)
}

// DefaultSeeds returns the workload seeds the tracked benchmarks use for the
// dataset: generation seeds proven to yield a full AOL-style workload at the
// benchmarked scales.
func DefaultSeeds(dataset string) (dataSeed, querySeed int64) {
	if dataset == "imdb" {
		return 1, 11
	}
	return 2, 13
}
