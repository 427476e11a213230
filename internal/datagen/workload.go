package datagen

import (
	"fmt"
	"math/rand"
	"sort"

	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/pagerank"
	"cirank/internal/relational"
	"cirank/internal/textindex"
)

// Built is a dataset materialized into the search substrate.
type Built struct {
	// Dataset is the generated source data with its planted ground truth.
	Dataset *Dataset
	// G is the data graph built from the dataset.
	G *graph.Graph
	// Mapping translates between tuples and graph nodes.
	Mapping *relational.Mapping
	// Ix indexes the node texts for keyword matching.
	Ix *textindex.Index
	// Importance holds the global random-walk importance values (Eq. 1
	// with the default teleport). The workload oracle uses them as the
	// fame signal for person entities: "the user meant the famous one."
	Importance []float64
	// connector is the star table name ("Movie" or "Paper").
	connector string
	// connectors are the connector table's nodes in key insertion order.
	connectors []graph.NodeID
}

// Build materializes the dataset into a graph, text index and importance
// vector.
func Build(ds *Dataset) (*Built, error) {
	g, m, err := relational.BuildGraph(ds.DB, ds.Weights, 1.0)
	if err != nil {
		return nil, err
	}
	stars := relational.StarTables(ds.Schema)
	if len(stars) == 0 {
		return nil, fmt.Errorf("datagen: schema has no star table")
	}
	pr, err := pagerank.Compute(g, pagerank.DefaultOptions())
	if err != nil {
		return nil, err
	}
	keys := ds.DB.Keys(stars[0])
	connectors := make([]graph.NodeID, len(keys))
	for i, key := range keys {
		connectors[i] = m.MustNodeOf(stars[0], key)
	}
	return &Built{
		Dataset:    ds,
		G:          g,
		Mapping:    m,
		Ix:         textindex.Build(g),
		Importance: pr.Scores,
		connector:  stars[0],
		connectors: connectors,
	}, nil
}

// Class labels the structural difficulty of a generated query, following
// the mix the paper describes in §VI-A.
type Class int

const (
	// Single queries match one node.
	Single Class = iota
	// AdjacentPair queries match two directly connected nodes — the
	// dominant pattern in the AOL user log.
	AdjacentPair
	// NonAdjacentPair queries match two nodes joined through a free
	// connector node.
	NonAdjacentPair
	// MultiNode queries match three or more nodes.
	MultiNode
	// NameQuery queries use two ambiguous person-name words (the paper's
	// Fig. 4 "wilson cruz" scenario): the answer may be a single person
	// containing both words or a pair of entities matching one word each,
	// and the right choice depends on balancing importance against
	// cohesiveness — the trade-off the dampening parameters α and g
	// control.
	NameQuery
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Single:
		return "single"
	case AdjacentPair:
		return "adjacent-pair"
	case NonAdjacentPair:
		return "non-adjacent-pair"
	case MultiNode:
		return "multi-node"
	case NameQuery:
		return "name-query"
	default:
		return "unknown"
	}
}

// Query is a generated keyword query with its planted ground truth — the
// substitute for the paper's human-labeled AOL queries (DESIGN.md §3).
type Query struct {
	// Terms are the query keywords (already lowercased).
	Terms []string
	// Class is the generation scenario the query instantiates.
	Class Class
	// Gold is the intended best answer tree.
	Gold *jtt.Tree
	// GoldKey caches Gold.CanonicalKey().
	GoldKey string
	// GoldEndpoints are the gold answer's keyword-matching nodes, used for
	// graded precision: an answer naming the right entities is relevant
	// even if it connects them through a suboptimal free node.
	GoldEndpoints []graph.NodeID
	// Alternatives are the competing interpretations the oracle rejected
	// (the famous-but-loose pair for a name query, lesser connectors for a
	// pair query). The evaluation merges them into each query's candidate
	// pool — TREC-style pooling — so that a ranker that wrongly prefers
	// them is actually penalized; the enumerated pool alone is capped and
	// may miss them.
	Alternatives []*jtt.Tree
}

// WorkloadConfig controls query generation.
type WorkloadConfig struct {
	// Seed drives the query sampler.
	Seed int64
	// Count is the number of queries to generate.
	Count int
	// FracSingle, FracNonAdjacent, FracMulti and FracName set the class
	// mix; fractions must sum to ≤ 1, the remainder becomes AdjacentPair
	// queries.
	FracSingle, FracNonAdjacent, FracMulti, FracName float64
	// Ambiguous makes endpoint tokens prefer shared (high-DF) words, so
	// queries admit several entity interpretations and ranking quality is
	// what separates the methods.
	Ambiguous bool
	// MinCommon is the minimum number of common connectors the entities of
	// a NonAdjacentPair/MultiNode query must share (default 2 when zero).
	// With a single common connector there is only one tight answer and
	// every method trivially finds it; the paper's motivating examples
	// (Fig. 2: many co-authored papers) have several.
	MinCommon int
}

// UserLogConfig mirrors the AOL-derived workload: mostly directly-connected
// matches, 11.4% requiring free connector nodes (§VI-B).
func UserLogConfig(count int, seed int64) WorkloadConfig {
	return WorkloadConfig{
		Seed:            seed,
		Count:           count,
		FracSingle:      0.1,
		FracNonAdjacent: 0.114,
		FracMulti:       0,
		FracName:        0.35,
		Ambiguous:       true,
	}
}

// SyntheticConfig mirrors the paper's synthetic query sets: 50% of queries
// matched by two non-adjacent nodes, 20% by three or more nodes, the rest
// by a single node or an adjacent pair (§VI-A).
func SyntheticConfig(count int, seed int64) WorkloadConfig {
	return WorkloadConfig{
		Seed:            seed,
		Count:           count,
		FracSingle:      0.05,
		FracNonAdjacent: 0.5,
		FracMulti:       0.2,
		FracName:        0.15,
		Ambiguous:       false,
	}
}

// GenerateWorkload produces queries with planted gold answers.
func (b *Built) GenerateWorkload(cfg WorkloadConfig) ([]Query, error) {
	if cfg.Count < 1 {
		return nil, fmt.Errorf("datagen: workload count must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []Query
	classFor := func(i int) Class {
		f := float64(i) / float64(cfg.Count)
		switch {
		case f < cfg.FracNonAdjacent:
			return NonAdjacentPair
		case f < cfg.FracNonAdjacent+cfg.FracMulti:
			return MultiNode
		case f < cfg.FracNonAdjacent+cfg.FracMulti+cfg.FracName:
			return NameQuery
		case f < cfg.FracNonAdjacent+cfg.FracMulti+cfg.FracName+cfg.FracSingle:
			return Single
		default:
			return AdjacentPair
		}
	}
	minCommon := cfg.MinCommon
	if minCommon <= 0 {
		minCommon = 2
	}
	const maxAttempts = 1500
	for i := 0; i < cfg.Count; i++ {
		class := classFor(i)
		var q *Query
		for attempt := 0; attempt < maxAttempts && q == nil; attempt++ {
			// Relax the common-connector requirement if the data cannot
			// satisfy it after many attempts.
			mc := minCommon
			if attempt > maxAttempts/2 {
				mc = 1
			}
			switch class {
			case Single:
				q = b.genSingle(rng, cfg.Ambiguous)
			case AdjacentPair:
				q = b.genAdjacent(rng, cfg.Ambiguous)
			case NonAdjacentPair:
				q = b.genNonAdjacent(rng, 2, mc)
			case MultiNode:
				q = b.genNonAdjacent(rng, 3, mc)
			case NameQuery:
				q = b.genNameQuery(rng)
			}
		}
		if q == nil {
			return nil, fmt.Errorf("datagen: could not generate %v query after %d attempts", class, maxAttempts)
		}
		out = append(out, *q)
	}
	return out, nil
}

// connectorPop returns the planted popularity of a connector node.
func (b *Built) connectorPop(v graph.NodeID) float64 {
	n := b.G.Node(v)
	return b.Dataset.Pop(n.Relation, n.Key)
}

// personPop proxies a person node's fame by its random-walk importance —
// the centrality the Zipf-assigned collaboration counts induce.
func (b *Built) personPop(v graph.NodeID) float64 {
	return b.Importance[v]
}

// randomConnector samples a connector node uniformly.
func (b *Built) randomConnector(rng *rand.Rand) graph.NodeID {
	return b.connectors[rng.Intn(len(b.connectors))]
}

// personNeighbors lists the non-connector neighbours of a connector node
// that carry person-like text (anything except other connectors and
// auxiliary tables like Conference/Company).
func (b *Built) personNeighbors(v graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, e := range b.G.OutEdges(v) {
		rel := b.G.Node(e.To).Relation
		switch rel {
		case b.connector, "Conference", "Company":
			continue
		}
		out = append(out, e.To)
	}
	return out
}

// token picks a query token from node v's text: the rarest token when
// ambiguous is false, or a shared token (document frequency > 1) when
// ambiguous is true and one exists.
func (b *Built) token(v graph.NodeID, rng *rand.Rand, ambiguous bool) (string, bool) {
	terms := textindex.Tokenize(b.G.Node(v).Text)
	if len(terms) == 0 {
		return "", false
	}
	if ambiguous {
		var shared []string
		for _, t := range terms {
			if b.Ix.DFTotal(t) > 1 {
				shared = append(shared, t)
			}
		}
		if len(shared) > 0 {
			return shared[rng.Intn(len(shared))], true
		}
	}
	best, bestDF := "", int(^uint(0)>>1)
	for _, t := range terms {
		if df := b.Ix.DFTotal(t); df < bestDF {
			best, bestDF = t, df
		}
	}
	return best, best != ""
}

// genSingle emits a query matched by one node; with ambiguity, the gold is
// the most famous interpretation.
func (b *Built) genSingle(rng *rand.Rand, ambiguous bool) *Query {
	conn := b.randomConnector(rng)
	people := b.personNeighbors(conn)
	if len(people) == 0 {
		return nil
	}
	p := people[rng.Intn(len(people))]
	term, ok := b.token(p, rng, ambiguous)
	if !ok {
		return nil
	}
	// Gold: the most famous node matching the term.
	var gold graph.NodeID = graph.InvalidNode
	bestPop := -1.0
	for _, v := range b.Ix.MatchingNodes(term) {
		pop := b.personPop(v) + b.connectorPop(v)
		if pop > bestPop {
			gold, bestPop = v, pop
		}
	}
	if gold == graph.InvalidNode {
		return nil
	}
	tree := jtt.NewSingle(gold)
	return &Query{
		Terms:         []string{term},
		Class:         Single,
		Gold:          tree,
		GoldKey:       tree.CanonicalKey(),
		GoldEndpoints: []graph.NodeID{gold},
	}
}

// genAdjacent emits a (person token, connector token) query whose gold
// answer is the directly connected pair with the most popular connector
// among all matching interpretations.
func (b *Built) genAdjacent(rng *rand.Rand, ambiguous bool) *Query {
	conn := b.randomConnector(rng)
	people := b.personNeighbors(conn)
	if len(people) == 0 {
		return nil
	}
	p := people[rng.Intn(len(people))]
	pTerm, ok := b.token(p, rng, ambiguous)
	if !ok {
		return nil
	}
	cTerm, ok := b.token(conn, rng, false)
	if !ok || cTerm == pTerm {
		return nil
	}
	// Gold: among connector nodes matching cTerm adjacent to a person
	// matching pTerm, the pair with the most popular connector (fame
	// breaking ties) — the interpretation a user most plausibly meant.
	var goldP, goldC graph.NodeID = graph.InvalidNode, graph.InvalidNode
	best := -1.0
	for _, c := range b.Ix.MatchingNodes(cTerm) {
		for _, e := range b.G.OutEdges(c) {
			if b.Ix.TF(e.To, pTerm) == 0 {
				continue
			}
			score := b.connectorPop(c)*1000 + b.personPop(e.To)
			if score > best {
				goldP, goldC, best = e.To, c, score
			}
		}
	}
	if goldP == graph.InvalidNode {
		return nil
	}
	tree, err := jtt.NewSingle(goldP).Grow(b.G, goldC)
	if err != nil {
		return nil
	}
	return &Query{
		Terms:         []string{pTerm, cTerm},
		Class:         AdjacentPair,
		Gold:          tree,
		GoldKey:       tree.CanonicalKey(),
		GoldEndpoints: []graph.NodeID{goldP, goldC},
	}
}

// genNonAdjacent emits a query matching n persons who co-occur in at least
// minCommon connectors; the gold answer joins them through their most
// popular common connector.
func (b *Built) genNonAdjacent(rng *rand.Rand, n, minCommon int) *Query {
	conn := b.randomConnector(rng)
	people := b.personNeighbors(conn)
	if len(people) < n {
		return nil
	}
	rng.Shuffle(len(people), func(i, j int) { people[i], people[j] = people[j], people[i] })
	chosen := people[:n]
	common := b.commonConnectors(nil, chosen)
	if len(common) < minCommon {
		return nil
	}
	terms := make([]string, 0, n)
	seen := map[string]bool{}
	for _, p := range chosen {
		t, ok := b.token(p, rng, false)
		if !ok || seen[t] {
			return nil
		}
		// Endpoint tokens must identify the entity uniquely so the gold
		// answer is objective (DESIGN.md §3): retry otherwise.
		if b.Ix.DFTotal(t) != 1 {
			return nil
		}
		seen[t] = true
		terms = append(terms, t)
	}
	gold := b.mostPopular(common)
	if gold == graph.InvalidNode {
		return nil
	}
	// Build the star tree: connector as root, persons as leaves.
	tree := jtt.NewSingle(chosen[0])
	tree, err := tree.Grow(b.G, gold)
	if err != nil {
		return nil
	}
	for _, p := range chosen[1:] {
		leaf, err := jtt.NewSingle(p).Grow(b.G, gold)
		if err != nil {
			return nil
		}
		tree, err = tree.Merge(leaf)
		if err != nil {
			return nil
		}
	}
	class := NonAdjacentPair
	if n >= 3 {
		class = MultiNode
	}
	endpoints := append([]graph.NodeID(nil), chosen...)
	sort.Slice(endpoints, func(i, j int) bool { return endpoints[i] < endpoints[j] })
	return &Query{
		Terms:         terms,
		Class:         class,
		Gold:          tree,
		GoldKey:       tree.CanonicalKey(),
		GoldEndpoints: endpoints,
	}
}

// nameOracleThreshold encodes the relevance oracle's judgment for name
// queries: a user typing "wilson cruz" means the single person Wilson Cruz
// (the paper's Fig. 4 judgment) unless a pair of entities matching the two
// words separately is far more famous — the pair reading wins when
// (fame_u + fame_v) / fame_single exceeds this threshold.
//
// The value is a calibration, playing the role of the paper's five human
// judges: the paper reports that agreement with its judges peaks at
// α ∈ [0.1, 0.25], i.e. its humans' cohesiveness-vs-importance trade-off
// sits where the model with α ≈ 0.15 operates. We place our oracle at the
// same operating point; what the Fig. 6/7 sweeps then validate is the
// paper's *shape* — agreement degrades on both sides of the calibrated
// region (too little dampening over-rewards loosely-connected famous
// entities; too much makes the ranker blind to importance).
const nameOracleThreshold = 26.0

// nameAmbiguityBand keeps only name queries whose fame ratio sits near the
// oracle threshold — the genuinely ambiguous queries, mirroring the paper's
// use of manually-labeled (i.e. judgment-requiring) AOL queries.
var nameAmbiguityBand = [2]float64{6, 120}

// genNameQuery emits the Fig. 4-style cross-interpretation query: two
// ambiguous name words that match a single person jointly and famous
// entity pairs separately. The gold is whichever interpretation the fame
// oracle prefers, so ranking it correctly requires balancing importance
// against cohesiveness — the trade-off the α/g sweeps (Fig. 6–7) measure.
func (b *Built) genNameQuery(rng *rand.Rand) *Query {
	conn := b.randomConnector(rng)
	people := b.personNeighbors(conn)
	if len(people) == 0 {
		return nil
	}
	p := people[rng.Intn(len(people))]
	toks := textindex.Tokenize(b.G.Node(p).Text)
	if len(toks) < 2 {
		return nil
	}
	t1, t2 := toks[0], toks[1]
	if t1 == t2 {
		return nil
	}
	// Require genuine ambiguity: both words must be shared.
	if b.Ix.DFTotal(t1) < 2 || b.Ix.DFTotal(t2) < 2 {
		return nil
	}
	// Best single interpretation: the most famous node containing both.
	var bestSingle graph.NodeID = graph.InvalidNode
	bestSingleFame := -1.0
	for _, v := range b.Ix.MatchingNodes(t1) {
		if b.Ix.TF(v, t2) == 0 {
			continue
		}
		if fame := b.personPop(v) + b.connectorPop(v); fame > bestSingleFame {
			bestSingle, bestSingleFame = v, fame
		}
	}
	if bestSingle == graph.InvalidNode {
		return nil
	}
	// Best pair interpretation: famous matchers of each word sharing a
	// connector; pair fame is the lesser entity's fame, discounted for the
	// looser structure.
	m1 := b.topFameMatchers(t1, 20)
	m2 := b.topFameMatchers(t2, 20)
	var bp1, bp2, bpConn graph.NodeID = graph.InvalidNode, graph.InvalidNode, graph.InvalidNode
	bestPairFame := -1.0
	var common []graph.NodeID
	for _, u := range m1 {
		for _, v := range m2 {
			if u == v {
				continue
			}
			common = b.commonConnectors(common[:0], []graph.NodeID{u, v})
			cc := b.mostPopular(common)
			if cc == graph.InvalidNode {
				continue
			}
			fame := b.personPop(u) + b.personPop(v)
			if fame > bestPairFame {
				bp1, bp2, bpConn, bestPairFame = u, v, cc, fame
			}
		}
	}
	// Keep only genuinely ambiguous queries: the fame ratio of the two
	// interpretations must sit near the oracle threshold (the labeled AOL
	// queries the paper uses are exactly the ones where interpretation
	// required judgment). Queries with one overwhelming reading teach the
	// sweep nothing.
	if bestPairFame <= 0 || bestSingleFame <= 0 {
		return nil
	}
	ratio := bestPairFame / bestSingleFame
	if ratio < nameAmbiguityBand[0] || ratio > nameAmbiguityBand[1] {
		return nil
	}
	pairTree := b.starTree(bpConn, bp1, bp2)
	if pairTree == nil {
		return nil
	}
	singleTree := jtt.NewSingle(bestSingle)
	terms := []string{t1, t2}
	if ratio > nameOracleThreshold {
		return &Query{
			Terms:         terms,
			Class:         NameQuery,
			Gold:          pairTree,
			GoldKey:       pairTree.CanonicalKey(),
			GoldEndpoints: []graph.NodeID{bp1, bp2},
			Alternatives:  []*jtt.Tree{singleTree},
		}
	}
	return &Query{
		Terms:         terms,
		Class:         NameQuery,
		Gold:          singleTree,
		GoldKey:       singleTree.CanonicalKey(),
		GoldEndpoints: []graph.NodeID{bestSingle},
		Alternatives:  []*jtt.Tree{pairTree},
	}
}

// starTree builds the tree rooted at conn with the given leaves, or nil on
// any inconsistency.
func (b *Built) starTree(conn graph.NodeID, leaves ...graph.NodeID) *jtt.Tree {
	tree, err := jtt.NewSingle(leaves[0]).Grow(b.G, conn)
	if err != nil {
		return nil
	}
	for _, l := range leaves[1:] {
		leaf, err := jtt.NewSingle(l).Grow(b.G, conn)
		if err != nil {
			return nil
		}
		tree, err = tree.Merge(leaf)
		if err != nil {
			return nil
		}
	}
	return tree
}

// topFameMatchers returns up to limit nodes matching term, most famous
// first.
func (b *Built) topFameMatchers(term string, limit int) []graph.NodeID {
	nodes := b.Ix.MatchingNodes(term)
	sort.Slice(nodes, func(i, j int) bool {
		fi, fj := b.personPop(nodes[i]), b.personPop(nodes[j])
		if fi != fj {
			return fi > fj
		}
		return nodes[i] < nodes[j]
	})
	if len(nodes) > limit {
		nodes = nodes[:limit]
	}
	return nodes
}

// commonConnectors appends to dst the connector nodes adjacent to every
// person in the set, in ascending ID order. It walks the shortest out-list,
// which is sorted by destination, and probes the others by binary search,
// so a set holding a prolific person costs the least prolific one's degree.
func (b *Built) commonConnectors(dst, people []graph.NodeID) []graph.NodeID {
	base := people[0]
	for _, p := range people[1:] {
		if b.G.OutDegree(p) < b.G.OutDegree(base) {
			base = p
		}
	}
next:
	for _, e := range b.G.OutEdges(base) {
		if b.G.Node(e.To).Relation != b.connector {
			continue
		}
		for _, p := range people {
			if !b.G.HasEdge(p, e.To) {
				continue next
			}
		}
		dst = append(dst, e.To)
	}
	return dst
}

// mostPopular returns the connector with the highest planted popularity,
// the lowest node ID among equals (citation counts tie), or InvalidNode
// for an empty set. The connectors must be in ascending ID order.
func (b *Built) mostPopular(connectors []graph.NodeID) graph.NodeID {
	best := graph.InvalidNode
	bestPop := -1.0
	for _, c := range connectors {
		if pop := b.connectorPop(c); pop > bestPop {
			best, bestPop = c, pop
		}
	}
	return best
}
