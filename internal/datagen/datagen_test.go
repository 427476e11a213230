package datagen

import (
	"math/rand"
	"sort"
	"testing"

	"cirank/internal/graph"
	"cirank/internal/relational"
)

func smallIMDB(t *testing.T, seed int64) *Built {
	t.Helper()
	cfg := DefaultIMDBConfig(seed).Scale(0.25)
	ds, err := GenerateIMDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func smallDBLP(t *testing.T, seed int64) *Built {
	t.Helper()
	ds, err := GenerateDBLP(DefaultDBLPConfig(seed).Scale(0.25))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGenerateIMDBShape(t *testing.T) {
	cfg := DefaultIMDBConfig(1)
	ds, err := GenerateIMDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := ds.DB
	if db.TableSize("Movie") != cfg.Movies {
		t.Errorf("movies = %d, want %d", db.TableSize("Movie"), cfg.Movies)
	}
	if db.TableSize("Actor") != cfg.Actors {
		t.Errorf("actors = %d, want %d", db.TableSize("Actor"), cfg.Actors)
	}
	if db.NumLinks() == 0 {
		t.Fatal("no links generated")
	}
	// Popularity is planted for every movie, Zipf-distributed (heavy max
	// over min) and shuffled against insertion order.
	minP, maxP := ds.Pop("Movie", "Mo0"), ds.Pop("Movie", "Mo0")
	for _, key := range db.Keys("Movie") {
		p := ds.Pop("Movie", key)
		if p <= 0 {
			t.Fatalf("movie %s has no planted popularity", key)
		}
		if p < minP {
			minP = p
		}
		if p > maxP {
			maxP = p
		}
	}
	if maxP < 20*minP {
		t.Errorf("popularity not heavy-tailed: max %g, min %g", maxP, minP)
	}
}

func TestGenerateIMDBDeterministic(t *testing.T) {
	a, err := GenerateIMDB(DefaultIMDBConfig(7).Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateIMDB(DefaultIMDBConfig(7).Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if a.DB.NumLinks() != b.DB.NumLinks() || a.DB.NumTuples() != b.DB.NumTuples() {
		t.Error("same seed produced different datasets")
	}
	ta, _ := a.DB.Lookup("Actor", "Ac0")
	tb, _ := b.DB.Lookup("Actor", "Ac0")
	if ta.Text != tb.Text {
		t.Errorf("same seed produced different names: %q vs %q", ta.Text, tb.Text)
	}
}

func TestGenerateByName(t *testing.T) {
	imdb, err := GenerateIMDB(DefaultIMDBConfig(7).Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	dblp, err := GenerateDBLP(DefaultDBLPConfig(7).Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []*Dataset{imdb, dblp} {
		got, err := Generate(want.Kind, 0.1, 7)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || got.DB.NumTuples() != want.DB.NumTuples() || got.DB.NumLinks() != want.DB.NumLinks() {
			t.Errorf("Generate(%q): %s with %d tuples, %d links; want %s with %d, %d", want.Kind,
				got.Kind, got.DB.NumTuples(), got.DB.NumLinks(), want.Kind, want.DB.NumTuples(), want.DB.NumLinks())
		}
	}
	if _, err := Generate("IMDB", 0.1, 7); err == nil {
		t.Error("Generate accepted an unknown dataset name")
	}
}

func TestGenerateDBLPShape(t *testing.T) {
	cfg := DefaultDBLPConfig(2)
	ds, err := GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.DB.TableSize("Paper") != cfg.Papers {
		t.Errorf("papers = %d, want %d", ds.DB.TableSize("Paper"), cfg.Papers)
	}
	// Citation counts should be heavy-tailed: the most cited paper should
	// have several times the mean citations.
	var counts []float64
	total := 0.0
	for _, key := range ds.DB.Keys("Paper") {
		c := ds.Pop("Paper", key)
		counts = append(counts, c)
		total += c
	}
	sort.Float64s(counts)
	mean := total / float64(len(counts))
	if maxC := counts[len(counts)-1]; maxC < 3*mean {
		t.Errorf("citation distribution not heavy-tailed: max %g, mean %g", maxC, mean)
	}
}

func TestBuildGraphConnected(t *testing.T) {
	b := smallIMDB(t, 3)
	if b.G.NumNodes() == 0 || b.G.NumEdges() == 0 {
		t.Fatal("empty graph")
	}
	// The movie table must be the schema's star cover.
	if b.connector != "Movie" {
		t.Errorf("connector = %q, want Movie", b.connector)
	}
	stars := relational.StarNodeSet(b.G, []string{"Movie"})
	// Every edge must touch a movie node (vertex-cover property the star
	// index depends on).
	for v := 0; v < b.G.NumNodes(); v++ {
		for _, e := range b.G.OutEdges(graph.NodeID(v)) {
			if !stars[v] && !stars[e.To] {
				t.Fatalf("edge %d→%d touches no star node", v, e.To)
			}
		}
	}
}

func TestEntityMergingOccurs(t *testing.T) {
	cfg := DefaultIMDBConfig(5)
	cfg.MergedRoleFraction = 0.5
	ds, err := GenerateIMDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	if b.G.NumNodes() >= ds.DB.NumTuples() {
		t.Errorf("no entity merging: %d nodes for %d tuples", b.G.NumNodes(), ds.DB.NumTuples())
	}
}

func TestWorkloadMixes(t *testing.T) {
	b := smallDBLP(t, 11)
	queries, err := b.GenerateWorkload(SyntheticConfig(20, 42))
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 20 {
		t.Fatalf("got %d queries", len(queries))
	}
	counts := map[Class]int{}
	for _, q := range queries {
		counts[q.Class]++
		if len(q.Terms) == 0 || q.Gold == nil || q.GoldKey == "" || len(q.GoldEndpoints) == 0 {
			t.Fatalf("malformed query %+v", q)
		}
	}
	if counts[NonAdjacentPair] != 10 {
		t.Errorf("non-adjacent = %d, want 10 (50%%)", counts[NonAdjacentPair])
	}
	if counts[MultiNode] != 4 {
		t.Errorf("multi = %d, want 4 (20%%)", counts[MultiNode])
	}
}

func TestWorkloadGoldIsValidTree(t *testing.T) {
	for _, b := range []*Built{smallIMDB(t, 21), smallDBLP(t, 22)} {
		queries, err := b.GenerateWorkload(SyntheticConfig(12, 7))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			// Every gold endpoint node must match at least one query term,
			// and every term must match some node of the gold tree.
			for _, term := range q.Terms {
				found := false
				for _, v := range q.Gold.Nodes() {
					if b.Ix.TF(v, term) > 0 {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("term %q unmatched in gold tree %v (class %v)", term, q.Gold.Nodes(), q.Class)
				}
			}
			// Gold trees connecting n persons must have diameter ≤ 2.
			if q.Gold.Diameter() > 2 {
				t.Errorf("gold diameter %d > 2", q.Gold.Diameter())
			}
		}
	}
}

func TestWorkloadGoldUsesGroundTruthConnector(t *testing.T) {
	b := smallDBLP(t, 31)
	queries, err := b.GenerateWorkload(WorkloadConfig{Seed: 3, Count: 8, FracNonAdjacent: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if q.Class != NonAdjacentPair {
			t.Fatalf("class = %v", q.Class)
		}
		// The gold connector is the root of the star and must have maximal
		// planted popularity among common connectors.
		root := q.Gold.Root()
		best := b.mostPopular(b.commonConnectors(nil, q.GoldEndpoints))
		if best != root {
			t.Errorf("gold root %d is not the best common connector %d", root, best)
		}
	}
}

func TestUserLogConfigMix(t *testing.T) {
	cfg := UserLogConfig(100, 1)
	if cfg.FracNonAdjacent != 0.114 {
		t.Errorf("user-log non-adjacent fraction = %g", cfg.FracNonAdjacent)
	}
}

func TestWorkloadCountValidation(t *testing.T) {
	b := smallDBLP(t, 41)
	if _, err := b.GenerateWorkload(WorkloadConfig{Count: 0}); err == nil {
		t.Error("zero count accepted")
	}
}

func TestVocabularyHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := vocab(rng, 50, 2)
	if len(v) != 50 {
		t.Fatalf("vocab size %d", len(v))
	}
	seen := map[string]bool{}
	for _, w := range v {
		if seen[w] {
			t.Fatalf("duplicate vocab word %q", w)
		}
		seen[w] = true
	}
	ng := newNameGen(rng, 20, 5, 1.0)
	names := map[string]bool{}
	for i := 0; i < 30; i++ {
		n := ng.next()
		if names[n] {
			t.Fatalf("duplicate name %q", n)
		}
		names[n] = true
	}
	w := zipfWeights(3, 1)
	if w[0] != 1 || w[1] >= w[0] || w[2] >= w[1] {
		t.Errorf("zipfWeights = %v", w)
	}
}

func TestNameQueryGeneration(t *testing.T) {
	b := smallIMDB(t, 51)
	cfg := WorkloadConfig{Seed: 5, Count: 6, FracName: 1}
	queries, err := b.GenerateWorkload(cfg)
	if err != nil {
		t.Skip("dataset too small for boundary name queries at this seed")
	}
	for _, q := range queries {
		if q.Class != NameQuery {
			t.Fatalf("class = %v", q.Class)
		}
		if len(q.Terms) != 2 {
			t.Fatalf("terms = %v", q.Terms)
		}
		// Both words must be genuinely ambiguous.
		for _, term := range q.Terms {
			if b.Ix.DFTotal(term) < 2 {
				t.Errorf("term %q is unambiguous (df=%d)", term, b.Ix.DFTotal(term))
			}
		}
		// Exactly one rejected alternative of the other interpretation kind.
		if len(q.Alternatives) != 1 {
			t.Fatalf("alternatives = %d", len(q.Alternatives))
		}
		if (q.Gold.Size() == 1) == (q.Alternatives[0].Size() == 1) {
			t.Error("gold and alternative are the same interpretation kind")
		}
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	b := smallDBLP(t, 71)
	q1, err := b.GenerateWorkload(SyntheticConfig(8, 123))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := b.GenerateWorkload(SyntheticConfig(8, 123))
	if err != nil {
		t.Fatal(err)
	}
	for i := range q1 {
		if q1[i].GoldKey != q2[i].GoldKey {
			t.Fatalf("query %d differs between identical runs", i)
		}
		if len(q1[i].Terms) != len(q2[i].Terms) {
			t.Fatalf("query %d terms differ", i)
		}
	}
}
