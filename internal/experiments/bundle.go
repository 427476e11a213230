// Package experiments regenerates every figure of the paper's evaluation
// (§VI): the α and g parameter sweeps (Fig. 6–7), the effectiveness
// comparison against SPARK and BANKS (Fig. 8–9), the naive-vs-branch-and-
// bound efficiency comparison (Fig. 10) and the index timing studies
// (Fig. 11–12). Each figure has one entry point returning a printable
// Table; cmd/cirank-experiments and the repository benchmarks drive them.
package experiments

import (
	"fmt"
	"strings"

	"cirank/internal/baseline"
	"cirank/internal/datagen"
	"cirank/internal/jtt"
	"cirank/internal/pathindex"
	"cirank/internal/relational"
	"cirank/internal/rwmp"
	"cirank/internal/search"
)

// Config holds the shared experiment knobs. The defaults match the paper's
// settings where it states them (k = 5 answers for timing, D ∈ {4,5,6},
// α = 0.15, g = 20, teleport 0.15) and commodity-scale datasets elsewhere
// (see DESIGN.md §3 on scaling).
type Config struct {
	// Seed drives dataset and workload generation.
	Seed       int64
	Scale      float64 // dataset size multiplier over the defaults
	QueryCount int     // queries per workload (paper: 44 user-log, 20 synthetic)
	K          int     // top-k for timing runs
	Diameter   int     // D for effectiveness runs
	PoolLimit  int     // candidate pool cap per query for effectiveness
	// MaxExpansions bounds branch-and-bound work per query in timing runs;
	// 0 = unlimited.
	MaxExpansions int
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		Scale:         1,
		QueryCount:    20,
		K:             5,
		Diameter:      4,
		PoolLimit:     400,
		MaxExpansions: 200000,
	}
}

// Bundle is a fully prepared dataset: relational data, graph, text index
// and global importance values. Models for specific (α, g) points are
// derived cheaply from it.
type Bundle struct {
	// Name labels the dataset in figure rows: "IMDB" or "DBLP".
	Name string
	// Built is the materialized dataset; its Importance vector is the
	// global importance every model starts from.
	Built  *datagen.Built
	isStar []bool
}

// Prepare generates and materializes the named synthetic dataset ("imdb"
// or "dblp", see datagen.Generate) at the given scale.
func Prepare(kind string, scale float64, seed int64) (*Bundle, error) {
	ds, err := datagen.Generate(kind, scale, seed)
	if err != nil {
		return nil, err
	}
	built, err := datagen.Build(ds)
	if err != nil {
		return nil, err
	}
	return &Bundle{
		Name:   strings.ToUpper(kind),
		Built:  built,
		isStar: relational.StarNodeSet(built.G, relational.StarTables(ds.Schema)),
	}, nil
}

// Model builds an RWMP model at the given dampening parameters.
func (b *Bundle) Model(params rwmp.Params) (*rwmp.Model, error) {
	return rwmp.New(b.Built.G, b.Built.Ix, b.Built.Importance, params)
}

// DefaultModel builds the model at the paper's chosen α = 0.15, g = 20.
func (b *Bundle) DefaultModel() (*rwmp.Model, error) {
	return b.Model(rwmp.DefaultParams())
}

// StarIndex builds the §V-B star index for the given model's dampening
// rates, with horizon maxDepth.
func (b *Bundle) StarIndex(m *rwmp.Model, maxDepth int) (*pathindex.StarIndex, error) {
	return pathindex.BuildStar(b.Built.G, m.DampVector(), b.isStar, maxDepth)
}

// ciScorer adapts the RWMP model to the baseline.Scorer interface so the
// effectiveness experiments can rank the shared candidate pool with every
// method uniformly.
type ciScorer struct {
	m *rwmp.Model
}

// CIScorer wraps an RWMP model as a Scorer named CI-Rank.
func CIScorer(m *rwmp.Model) baseline.Scorer { return &ciScorer{m: m} }

func (c *ciScorer) Name() string { return "CI-Rank" }

func (c *ciScorer) Score(t *jtt.Tree, terms []string) float64 {
	return c.m.Score(t, terms)
}

// pools enumerates the shared candidate pool for each query once; the
// sweeps and method comparisons rank the same pools.
func pools(s *search.Searcher, queries []datagen.Query, diameter, limit int) ([][]*jtt.Tree, error) {
	out := make([][]*jtt.Tree, len(queries))
	for i, q := range queries {
		trees, err := s.EnumerateAnswers(q.Terms, diameter, limit)
		if err != nil {
			return nil, fmt.Errorf("experiments: enumerating query %d (%v): %w", i, q.Terms, err)
		}
		// Guarantee the gold answer and the oracle's rejected alternatives
		// are in the pool (TREC-style pooling): the enumerator caps its
		// output, and effectiveness should measure ranking, not enumeration
		// truncation.
		have := make(map[string]bool, len(trees))
		for _, t := range trees {
			have[t.CanonicalKey()] = true
		}
		for _, t := range append([]*jtt.Tree{q.Gold}, q.Alternatives...) {
			if key := t.CanonicalKey(); !have[key] {
				have[key] = true
				trees = append(trees, t)
			}
		}
		out[i] = trees
	}
	return out, nil
}
