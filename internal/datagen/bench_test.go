package datagen

import (
	"testing"

	"cirank/internal/relational"
)

// The preparation benchmarks run on dblp×6, the corpus of the search-large
// benchmark workload: 7 950 nodes, 96 510 edges.
const benchScale = 6

// BenchmarkBuildGraph benchmarks relational.BuildGraph: node creation,
// per-pair weight accumulation and the CSR freeze.
func BenchmarkBuildGraph(b *testing.B) {
	ds, err := Generate("dblp", benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()

	for i := 0; i < b.N; i++ {
		g, _, err := relational.BuildGraph(ds.DB, ds.Weights, 1.0)
		if err != nil {
			b.Fatal(err)
		}

		_ = g
	}
}

// BenchmarkGenerateWorkload benchmarks the query generator on the 56-query
// user-log workload search-large runs.
func BenchmarkGenerateWorkload(b *testing.B) {
	ds, err := Generate("dblp", benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	built, err := Build(ds)
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()

	for i := 0; i < b.N; i++ {
		qs, err := built.GenerateWorkload(UserLogConfig(56, 1))
		if err != nil {
			b.Fatal(err)
		}

		_ = qs
	}
}
