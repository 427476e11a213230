package datagen

import (
	"fmt"
	"math/bits"
	"math/rand"

	"cirank/internal/graph"
	"cirank/internal/relational"
)

// DBLPConfig sizes the synthetic DBLP dataset (schema of Fig. 1(a)).
type DBLPConfig struct {
	// Seed drives the generator.
	Seed int64
	// Papers, Authors and Conferences are the entity counts.
	Papers, Authors, Conferences int
	// AuthorsPerPaper is the mean number of authors on a paper (min 1).
	AuthorsPerPaper int
	// CitationsPerPaper is the mean number of outgoing citations per
	// paper; in-citations follow preferential attachment, yielding the
	// heavy-tailed citation counts real bibliographies show (and that the
	// paper's Fig. 2 example relies on: 38 vs 7 citations).
	CitationsPerPaper int
}

// DefaultDBLPConfig returns a small-but-structured configuration.
func DefaultDBLPConfig(seed int64) DBLPConfig {
	return DBLPConfig{
		Seed:              seed,
		Papers:            1000,
		Authors:           300,
		Conferences:       25,
		AuthorsPerPaper:   3,
		CitationsPerPaper: 4,
	}
}

// Scale multiplies the table sizes by f.
func (c DBLPConfig) Scale(f float64) DBLPConfig {
	mul := func(n int) int {
		v := int(float64(n) * f)
		if v < 1 {
			v = 1
		}
		return v
	}
	c.Papers = mul(c.Papers)
	c.Authors = mul(c.Authors)
	c.Conferences = mul(c.Conferences)
	return c
}

// GenerateDBLP builds the synthetic DBLP database. Citation targets are
// chosen by preferential attachment over earlier papers, so citation counts
// are Zipf-like; a paper's planted popularity is its in-citation count.
func GenerateDBLP(cfg DBLPConfig) (*Dataset, error) {
	if cfg.Papers < 1 || cfg.Authors < 2 {
		return nil, fmt.Errorf("datagen: DBLP config needs at least 1 paper and 2 authors")
	}
	if cfg.AuthorsPerPaper < 1 {
		cfg.AuthorsPerPaper = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	schema := relational.DBLPSchema()
	db, err := relational.NewDatabase(schema)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{
		Kind:       "dblp",
		DB:         db,
		Schema:     schema,
		Weights:    graph.DefaultDBLPWeights(),
		popularity: make(map[string]float64),
	}
	// Vocabulary scales with the population (see the IMDB generator).
	names := newNameGen(rng, max(300, 2*cfg.Authors), max(40, cfg.Authors/12), 0.8)
	titles := newTitleGen(rng, max(800, cfg.Papers), 0.9, cfg.Papers+8)

	authors := make([]string, cfg.Authors)
	for i := range authors {
		key := fmt.Sprintf("Au%d", i)
		authors[i] = key
		db.MustInsert("Author", relational.Tuple{Key: key, Text: names.next()})
	}
	confs := make([]string, cfg.Conferences)
	for i := range confs {
		key := fmt.Sprintf("Cf%d", i)
		confs[i] = key
		db.MustInsert("Conference", relational.Tuple{Key: key, Text: word(rng, 2) + " symposium"})
	}
	authorPk := newWeightedPicker(rng, zipfWeights(len(authors), 1.0))
	// Research groups: co-authors collaborate repeatedly, so author pairs
	// typically share several papers and the connector choice matters.
	groups := troupes(authors, 6, 8)

	papers := make([]string, cfg.Papers)
	// inCites[i] counts citations received by paper i; +1 smoothing keeps
	// preferential attachment live for uncited papers. pool holds the
	// weights 1 + inCites[j] of the papers already written, the ones a new
	// paper may cite.
	inCites := make([]int, cfg.Papers)
	pool := newCitationPool(cfg.Papers)
	for i := 0; i < cfg.Papers; i++ {
		key := fmt.Sprintf("Pa%d", i)
		papers[i] = key
		db.MustInsert("Paper", relational.Tuple{Key: key, Text: titles.title()})
		db.MustRelate("appears_in", key, confs[rng.Intn(len(confs))])
		nAuth := 1 + rng.Intn(2*cfg.AuthorsPerPaper-1)
		castFromTroupe(rng, nAuth, groups[rng.Intn(len(groups))], len(authors), authorPk, func(j int) {
			db.MustRelate("written_by", key, authors[j])
		})
		// Cite earlier papers with probability ∝ (1 + their in-citations).
		if i > 0 {
			nCite := rng.Intn(2*cfg.CitationsPerPaper + 1)
			if nCite > i {
				nCite = i
			}
			cited := make(map[int]bool, nCite)
			for len(cited) < nCite {
				j := pool.find(rng.Intn(pool.total))
				if !cited[j] {
					cited[j] = true
					db.MustRelate("cites", key, papers[j])
					inCites[j]++
					pool.add(j, 1)
				}
			}
		}
		pool.add(i, 1)
	}
	for i, key := range papers {
		ds.setPop("Paper", key, float64(inCites[i]))
	}
	return ds, nil
}

// citationPool is a Fenwick tree over the papers' citation weights
// 1 + inCites[i]. A draw x in [0, total) maps to the paper whose weight
// interval holds x — the index a linear scan subtracting weights in paper
// order would return — in O(log n), so citing stays near-linear in papers.
type citationPool struct {
	tree  []int // 1-based: tree[k] sums the weights of papers (k - k&-k, k]
	total int
}

func newCitationPool(n int) *citationPool {
	return &citationPool{tree: make([]int, n+1)}
}

// add adds d to paper i's weight.
func (p *citationPool) add(i, d int) {
	p.total += d
	for k := i + 1; k < len(p.tree); k += k & -k {
		p.tree[k] += d
	}
}

// find returns the smallest i whose prefix weight sum exceeds x, for x in
// [0, total).
func (p *citationPool) find(x int) int {
	i := 0
	for step := bits.Len(uint(len(p.tree)-1)) - 1; step >= 0; step-- {
		if k := i + 1<<step; k < len(p.tree) && p.tree[k] <= x {
			i = k
			x -= p.tree[k]
		}
	}
	return i
}
