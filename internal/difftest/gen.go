// Package difftest implements the differential correctness harness: a
// seeded random-workload generator (schemas → databases → graphs → keyword
// queries, sized small enough to brute-force) and an oracle runner that
// cross-checks, for every seed,
//
//	(a) branch-and-bound vs naive vs exhaustive top-k,
//	(b) star path index vs naive path index vs BFS/Dijkstra ground-truth
//	    bounds (plus codec roundtrips),
//	(c) index-assisted and field-free engine variants vs the plain one, and
//	(d) the invariants the paper requires but no fixture states: the
//	    branch-and-bound upper bound is admissible (≥ the true Eq. 4 score
//	    of every answer it could prune), returned trees are valid joined
//	    tuple trees containing all query terms, and top-k scores are
//	    non-increasing.
//
// Fixed fixtures certify behaviour on the paper's figures; this package
// certifies it on adversarial random shapes, which is where bound and
// pruning bugs in keyword-search engines actually surface. Every workload is
// reproducible from its seed alone, so a failure message identifies a
// permanent regression test.
package difftest

import (
	"fmt"
	"math/rand"

	"cirank/internal/graph"
	"cirank/internal/pagerank"
	"cirank/internal/pathindex"
	"cirank/internal/relational"
	"cirank/internal/rwmp"
	"cirank/internal/search"
	"cirank/internal/textindex"
)

// maxIndexDepth is the horizon both path indexes are built with; it must be
// at least the largest query diameter the generator emits so that indexed
// searches match the engine's "horizon covers the diameter" gating.
const maxIndexDepth = 4

// Query is one keyword query of a workload.
type Query struct {
	// Terms are the query keywords (lowercase, distinct).
	Terms []string
	// K is the number of answers requested.
	K int
	// Diameter is the answer-tree diameter limit D.
	Diameter int
}

// Workload is one fully-materialized random scenario: a relational database,
// its data graph, the RWMP model over PageRank importance, both path
// indexes, and a batch of keyword queries. All of it derives
// deterministically from Seed.
type Workload struct {
	// Seed reproduces the workload.
	Seed int64
	// Schema and DB are the relational source of the graph.
	Schema *relational.Schema
	// DB is the populated database Graph was built from.
	DB *relational.Database
	// Graph is the weighted directed data graph built from DB.
	Graph *graph.Graph
	// IsStar marks the star-table nodes (§V-B) of Graph.
	IsStar []bool
	// UniformWeights reports whether every edge weight is 1.0. (Even then
	// the naive search is not exactly optimal — dampening rates still vary
	// per node — so no oracle asserts strict naive-vs-bb equality.)
	UniformWeights bool
	// Imp is the PageRank importance vector, Damp the Eq. 2 rates.
	Imp, Damp []float64
	// Params are the (randomized) dampening parameters.
	Params rwmp.Params
	// Model is the RWMP scoring model over Graph.
	Model *rwmp.Model
	// Searcher runs the top-k searches under test.
	Searcher *search.Searcher
	// NaiveIdx and StarIdx are the §V-A and §V-B path indexes, both built
	// with horizon maxIndexDepth.
	NaiveIdx *pathindex.NaiveIndex
	// StarIdx is the §V-B star path index counterpart of NaiveIdx.
	StarIdx *pathindex.StarIndex
	// Queries are the keyword queries to cross-check.
	Queries []Query
}

// vocab is the text pool tuples draw from. Multi-word entries exercise
// multi-term nodes; repeated words across entries create the keyword
// ambiguity that makes top-k boundaries contested.
var vocab = []string{
	"alpha",
	"beta",
	"gamma",
	"alpha beta",
	"hub spoke",
	"filler words here",
	"beta gamma",
	"spoke",
	"alpha gamma hub",
}

// queryWords are the words queries are drawn from; all occur in vocab so
// most queries have matches, while multi-term combinations still often have
// none (exercising AND semantics).
var queryWords = []string{"alpha", "beta", "gamma", "spoke", "hub", "filler"}

// Generate materializes the workload for a seed. Graphs are kept small
// enough (≤ ~12 nodes) that exhaustive answer enumeration stays tractable —
// the whole point is to brute-force the ground truth.
func Generate(seed int64) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{Seed: seed}

	// Schema: a star "Hub" table, 1–3 entity tables pointing at it, and
	// sometimes a Hub–Hub self-relationship (the DBLP citation shape, with
	// asymmetric direction labels).
	numEntityTables := 1 + rng.Intn(3)
	schema := &relational.Schema{Tables: []string{"Hub"}}
	for i := 0; i < numEntityTables; i++ {
		name := fmt.Sprintf("Ent%d", i)
		schema.Tables = append(schema.Tables, name)
		schema.Relationships = append(schema.Relationships, relational.Relationship{
			Name: "rel_" + name, From: name, To: "Hub",
		})
	}
	hasSelfRel := rng.Intn(2) == 0
	if hasSelfRel {
		schema.Relationships = append(schema.Relationships, relational.Relationship{
			Name: "links", From: "Hub", To: "Hub", FromType: "Hub:out", ToType: "Hub:in",
		})
	}
	w.Schema = schema

	db, err := relational.NewDatabase(schema)
	if err != nil {
		return nil, fmt.Errorf("difftest: seed %d: %w", seed, err)
	}
	w.DB = db

	// Tuples: 2–4 hubs, 3–7 entity tuples spread over the entity tables.
	numHubs := 2 + rng.Intn(3)
	for i := 0; i < numHubs; i++ {
		db.MustInsert("Hub", relational.Tuple{
			Key:  fmt.Sprintf("h%d", i),
			Text: vocab[rng.Intn(len(vocab))],
		})
	}
	numEnts := 3 + rng.Intn(5)
	entTable := make([]string, numEnts)
	for i := 0; i < numEnts; i++ {
		entTable[i] = schema.Tables[1+rng.Intn(numEntityTables)]
		t := relational.Tuple{
			Key:  fmt.Sprintf("e%d", i),
			Text: vocab[rng.Intn(len(vocab))],
		}
		// Occasionally share an entity key across tuples, exercising the
		// §VI-A entity-merging pass (merged nodes union their text and keep
		// their combined links).
		if i >= 2 && rng.Intn(5) == 0 {
			t.EntityKey = "shared"
		}
		db.MustInsert(entTable[i], t)
	}

	// Links: every entity tuple attaches to 1–2 distinct hubs; hub pairs
	// sometimes cite each other.
	for i := 0; i < numEnts; i++ {
		first := rng.Intn(numHubs)
		db.MustRelate("rel_"+entTable[i], fmt.Sprintf("e%d", i), fmt.Sprintf("h%d", first))
		if numHubs > 1 && rng.Intn(2) == 0 {
			second := rng.Intn(numHubs)
			if second != first {
				db.MustRelate("rel_"+entTable[i], fmt.Sprintf("e%d", i), fmt.Sprintf("h%d", second))
			}
		}
	}
	if hasSelfRel {
		for i := 0; i < numHubs; i++ {
			for j := 0; j < numHubs; j++ {
				if i != j && rng.Intn(4) == 0 {
					db.MustRelate("links", fmt.Sprintf("h%d", i), fmt.Sprintf("h%d", j))
				}
			}
		}
	}

	// Edge weights: uniform for exact naive-vs-optimal agreement, or varied
	// per direction label for adversarial bound shapes.
	w.UniformWeights = rng.Intn(2) == 0
	weights := graph.WeightTable{}
	if !w.UniformWeights {
		addPair := func(a, b string) {
			weights[graph.RelPair{From: a, To: b}] = 0.1 + rng.Float64()*1.4
			weights[graph.RelPair{From: b, To: a}] = 0.1 + rng.Float64()*1.4
		}
		for i := 0; i < numEntityTables; i++ {
			addPair(fmt.Sprintf("Ent%d", i), "Hub")
		}
		addPair("Hub:out", "Hub:in")
	}
	g, _, err := relational.BuildGraph(db, weights, 1.0)
	if err != nil {
		return nil, fmt.Errorf("difftest: seed %d: %w", seed, err)
	}
	w.Graph = g
	w.IsStar = relational.StarNodeSet(g, relational.StarTables(schema))

	// Importance and model: PageRank with a randomized teleport, randomized
	// dampening parameters (small groups make dampening steep — adversarial
	// for retention bounds).
	prOpts := pagerank.DefaultOptions()
	prOpts.Teleport = 0.1 + rng.Float64()*0.2
	pr, err := pagerank.Compute(g, prOpts)
	if err != nil {
		return nil, fmt.Errorf("difftest: seed %d: %w", seed, err)
	}
	w.Imp = pr.Scores
	w.Params = rwmp.Params{
		Alpha: 0.05 + rng.Float64()*0.4,
		Group: 2 + rng.Float64()*30,
	}
	ix := textindex.Build(g)
	model, err := rwmp.New(g, ix, w.Imp, w.Params)
	if err != nil {
		return nil, fmt.Errorf("difftest: seed %d: %w", seed, err)
	}
	w.Model = model
	w.Searcher = search.New(model)
	damp := make([]float64, g.NumNodes())
	for i := range damp {
		damp[i] = model.Damp(graph.NodeID(i))
	}
	w.Damp = damp

	w.NaiveIdx, err = pathindex.BuildNaive(g, damp, maxIndexDepth)
	if err != nil {
		return nil, fmt.Errorf("difftest: seed %d: naive index: %w", seed, err)
	}
	w.StarIdx, err = pathindex.BuildStar(g, damp, w.IsStar, maxIndexDepth)
	if err != nil {
		return nil, fmt.Errorf("difftest: seed %d: star index: %w", seed, err)
	}

	// Queries: 2–3 per workload, 1–3 distinct terms each.
	numQueries := 2 + rng.Intn(2)
	for q := 0; q < numQueries; q++ {
		n := 1 + rng.Intn(3)
		seen := make(map[string]bool, n)
		var terms []string
		for len(terms) < n {
			t := queryWords[rng.Intn(len(queryWords))]
			if !seen[t] {
				seen[t] = true
				terms = append(terms, t)
			}
		}
		w.Queries = append(w.Queries, Query{
			Terms:    terms,
			K:        1 + rng.Intn(4),
			Diameter: 2 + rng.Intn(3),
		})
	}
	return w, nil
}
