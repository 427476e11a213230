package datagen

import (
	"fmt"
	"math/rand"

	"cirank/internal/graph"
	"cirank/internal/relational"
)

// Dataset bundles a generated database with its schema-level configuration
// and the planted ground truth the evaluation oracle uses.
type Dataset struct {
	// Kind names the generator: "imdb" or "dblp".
	Kind string
	// DB is the populated database.
	DB *relational.Database
	// Schema declares DB's tables and relationships.
	Schema *relational.Schema
	// Weights carries the per-relationship edge weights of Table I.
	Weights graph.WeightTable
	// popularity records the planted importance of connector tuples
	// (movies, papers): the ground truth that replaces the paper's human
	// relevance judges. Keys are table + "\x00" + tuple key.
	popularity map[string]float64
}

// Generate builds the named synthetic dataset, "imdb" or "dblp", at the
// default configuration for seed scaled by scale. It is the one place a
// dataset name maps to a generator.
func Generate(kind string, scale float64, seed int64) (*Dataset, error) {
	switch kind {
	case "imdb":
		return GenerateIMDB(DefaultIMDBConfig(seed).Scale(scale))
	case "dblp":
		return GenerateDBLP(DefaultDBLPConfig(seed).Scale(scale))
	}
	return nil, fmt.Errorf("datagen: unknown dataset %q (want imdb or dblp)", kind)
}

// Pop returns the planted popularity of (table, key); 0 if unknown.
func (d *Dataset) Pop(table, key string) float64 {
	return d.popularity[table+"\x00"+key]
}

func (d *Dataset) setPop(table, key string, v float64) {
	d.popularity[table+"\x00"+key] = v
}

// IMDBConfig sizes the synthetic IMDB dataset (schema of Fig. 1(b)).
// Counts scale together: the paper's snapshot has ~3.4M nodes; the default
// experiment scales are far smaller but preserve the shape (Zipf popularity,
// bipartite person–movie structure, name sharing). See DESIGN.md §3.
type IMDBConfig struct {
	// Seed drives the generator.
	Seed int64
	// Movies through Companies are the entity counts per table.
	Movies, Actors, Actresses, Directors, Producers, Companies int
	// PopularitySkew is the Zipf exponent of movie popularity: popular
	// movies attract more cast links (and thus more importance).
	PopularitySkew float64
	// BaseCast is the minimum number of actors per movie; popular movies
	// receive up to ~4× more.
	BaseCast int
	// MergedRoleFraction is the fraction of directors who are also actors
	// (same entity), exercising the §VI-A node-merging rule.
	MergedRoleFraction float64
}

// DefaultIMDBConfig returns a small-but-structured configuration.
func DefaultIMDBConfig(seed int64) IMDBConfig {
	return IMDBConfig{
		Seed:               seed,
		Movies:             800,
		Actors:             300,
		Actresses:          200,
		Directors:          80,
		Producers:          60,
		Companies:          40,
		PopularitySkew:     1.0,
		BaseCast:           3,
		MergedRoleFraction: 0.1,
	}
}

// Scale multiplies every table size by f (at least 1 each).
func (c IMDBConfig) Scale(f float64) IMDBConfig {
	mul := func(n int) int {
		v := int(float64(n) * f)
		if v < 1 {
			v = 1
		}
		return v
	}
	c.Movies = mul(c.Movies)
	c.Actors = mul(c.Actors)
	c.Actresses = mul(c.Actresses)
	c.Directors = mul(c.Directors)
	c.Producers = mul(c.Producers)
	c.Companies = mul(c.Companies)
	return c
}

// GenerateIMDB builds the synthetic IMDB database.
func GenerateIMDB(cfg IMDBConfig) (*Dataset, error) {
	if cfg.Movies < 1 || cfg.Actors < 2 {
		return nil, fmt.Errorf("datagen: IMDB config needs at least 1 movie and 2 actors")
	}
	if cfg.BaseCast < 1 {
		cfg.BaseCast = 1
	}
	if cfg.PopularitySkew <= 0 {
		cfg.PopularitySkew = 1.0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	schema := relational.IMDBSchema()
	db, err := relational.NewDatabase(schema)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{
		Kind:       "imdb",
		DB:         db,
		Schema:     schema,
		Weights:    graph.DefaultIMDBWeights(),
		popularity: make(map[string]float64),
	}
	// Vocabulary scales with the population: Zipf reuse keeps common words
	// ambiguous while the tail stays unique enough for workload generation.
	people := cfg.Actors + cfg.Actresses + cfg.Directors + cfg.Producers
	names := newNameGen(rng, max(400, 2*people), max(40, cfg.Actors/12), 0.8)
	titles := newTitleGen(rng, max(600, cfg.Movies), 0.9, cfg.Movies+8)

	// People tables. A slice per table of keys for link sampling.
	mkPeople := func(table string, count int, entityPrefix string) []string {
		keys := make([]string, count)
		for i := 0; i < count; i++ {
			key := fmt.Sprintf("%s%d", table[:2], i)
			keys[i] = key
			db.MustInsert(table, relational.Tuple{Key: key, Text: names.next(), EntityKey: entityPrefix + key})
		}
		return keys
	}
	actors := mkPeople("Actor", cfg.Actors, "pa:")
	actresses := mkPeople("Actress", cfg.Actresses, "ps:")
	producers := mkPeople("Producer", cfg.Producers, "pp:")
	// Directors: a fraction share an entity with an actor (the Mel Gibson
	// rule).
	directors := make([]string, cfg.Directors)
	for i := 0; i < cfg.Directors; i++ {
		key := fmt.Sprintf("Di%d", i)
		directors[i] = key
		if rng.Float64() < cfg.MergedRoleFraction && len(actors) > 0 {
			twin := rng.Intn(len(actors))
			actorTuple, _ := db.Lookup("Actor", actors[twin])
			db.MustInsert("Director", relational.Tuple{Key: key, Text: actorTuple.Text, EntityKey: "pa:" + actors[twin]})
		} else {
			db.MustInsert("Director", relational.Tuple{Key: key, Text: names.next(), EntityKey: "pd:" + key})
		}
	}
	companies := make([]string, cfg.Companies)
	for i := 0; i < cfg.Companies; i++ {
		key := fmt.Sprintf("Co%d", i)
		companies[i] = key
		db.MustInsert("Company", relational.Tuple{Key: key, Text: word(rng, 3) + " pictures"})
	}

	// Movie popularity is a shuffled Zipf: popularity must not correlate
	// with insertion order (and therefore node IDs), or ordering artifacts
	// would leak ground truth into tie-breaking.
	popW := zipfWeights(cfg.Movies, cfg.PopularitySkew)
	perm := rng.Perm(cfg.Movies)
	// Troupes: people repeatedly collaborate, as in the real data, so two
	// people typically share several movies and connector choice matters.
	actorTroupes := troupes(actors, 8, 8)
	actressTroupes := troupes(actresses, 8, 5)
	actorPk := newWeightedPicker(rng, zipfWeights(len(actors), 1.0))
	var actressPk *weightedPicker
	if len(actresses) > 0 {
		actressPk = newWeightedPicker(rng, zipfWeights(len(actresses), 1.0))
	}
	for i := 0; i < cfg.Movies; i++ {
		key := fmt.Sprintf("Mo%d", i)
		year := 1950 + rng.Intn(70)
		db.MustInsert("Movie", relational.Tuple{Key: key, Text: fmt.Sprintf("%s %d", titles.title(), year)})
		pop := popW[perm[i]]
		ds.setPop("Movie", key, pop)
		// Cast size grows with normalized popularity: blockbusters have
		// larger casts, which is how planted popularity becomes visible to
		// the random walk.
		cast := cfg.BaseCast + int(6*pop/popW[0])
		troupe := actorTroupes[rng.Intn(len(actorTroupes))]
		castFromTroupe(rng, cast, troupe, len(actors), actorPk, func(j int) {
			db.MustRelate("acts_in", actors[j], key)
		})
		if actressPk != nil {
			castFromTroupe(rng, max(1, cast/2), actressTroupes[rng.Intn(len(actressTroupes))], len(actresses), actressPk, func(j int) {
				db.MustRelate("actress_in", actresses[j], key)
			})
		}
		if len(directors) > 0 {
			db.MustRelate("directs", directors[rng.Intn(len(directors))], key)
		}
		if len(producers) > 0 && rng.Float64() < 0.8 {
			db.MustRelate("produces", producers[rng.Intn(len(producers))], key)
		}
		if len(companies) > 0 && rng.Float64() < 0.9 {
			db.MustRelate("made_by", companies[rng.Intn(len(companies))], key)
		}
	}
	return ds, nil
}

// troupes partitions indices [0, len(keys)) into groups of roughly size
// per; people in a troupe repeatedly work together. The first stars
// indices — the most famous people under the Zipf fame order, which the
// pickers place at low indices — are added to every troupe: real stars
// work across many circles, which is what stretches the fame distribution
// into the heavy tail the ranking experiments need.
func troupes(keys []string, per, stars int) [][]int {
	n := len(keys)
	if stars > n {
		stars = n
	}
	count := max(1, (n-stars)/per)
	out := make([][]int, count)
	for t := range out {
		out[t] = make([]int, 0, per+stars)
		for s := 0; s < stars; s++ {
			out[t] = append(out[t], s)
		}
	}
	for i := stars; i < n; i++ {
		t := i % count
		out[t] = append(out[t], i)
	}
	return out
}

// castFromTroupe links count distinct people, drawing ~80% from the troupe
// (repeat collaboration) and the rest from the global fame distribution.
func castFromTroupe(rng *rand.Rand, count int, troupe []int, n int, globalPk *weightedPicker, link func(int)) {
	if count > n {
		count = n
	}
	chosen := make(map[int]bool, count)
	attempts := 0
	for len(chosen) < count && attempts < 50*count {
		attempts++
		var j int
		if len(troupe) > 0 && rng.Float64() < 0.8 {
			j = troupe[rng.Intn(len(troupe))]
		} else {
			j = globalPk.pick()
		}
		if !chosen[j] {
			chosen[j] = true
			link(j)
		}
	}
}

// linkDistinct invokes link for count distinct indices in [0, n), sampled
// from the picker.
func linkDistinct(rng *rand.Rand, count, n int, link func(int), pk *weightedPicker) {
	if count > n {
		count = n
	}
	chosen := make(map[int]bool, count)
	for len(chosen) < count {
		j := pk.pick()
		if !chosen[j] {
			chosen[j] = true
			link(j)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
