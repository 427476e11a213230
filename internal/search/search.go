// Package search implements the top-k answer generation algorithms of §IV:
// the naive breadth-first algorithm (§IV-A), the branch-and-bound algorithm
// over candidate trees (§IV-B, Algorithm 1), and — for validation — an
// exhaustive enumerator of all reduced answer trees, used by the tests to
// certify the branch-and-bound optimality guarantee (Theorem 1).
package search

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/pathindex"
	"cirank/internal/rwmp"
)

// Options configure a search.
type Options struct {
	// K is the number of answers to return.
	K int
	// Diameter is the maximal answer-tree diameter D (§IV). The paper
	// evaluates D ∈ {4, 5, 6}.
	Diameter int
	// Index optionally provides DS/LS bounds (§V). A supplement bound is the
	// lower of the index's estimate and the search's own, so passing one
	// never weakens a bound; the supply fields are never looser on their
	// own, which leaves the index to the NoDynamicBounds arm.
	Index pathindex.Index
	// MaxExpansions caps the number of candidate-tree expansions in the
	// branch-and-bound loop as a safety valve; 0 means unlimited. It caps
	// what Stats.Expanded counts: frontier pops, each of which grows its
	// tree (trees at the depth limit are never queued, so never counted).
	// When the cap fires the results are the best found so far and
	// Stats.Truncated is set.
	MaxExpansions int
	// NoDynamicBounds disables the per-query supply fields (field.go) that
	// tighten the upper bounds at query time, leaving the best generation of
	// a missing term as its supplement bound. The fields are this
	// implementation's extension over the paper's upper-bound search; the
	// Fig. 11/12 reproduction disables them so the with/without-star-index
	// comparison measures what the paper measured.
	NoDynamicBounds bool
	// ExtendedMerge admits tree merges that add non-free nodes without
	// covering new keywords. The default (false) follows the paper's §IV-B
	// rule — merge only when the union covers more keywords than either
	// operand — which is what prevents a combinatorial explosion of
	// leaf-subset candidates around hub nodes. The strict rule cannot
	// assemble answers where a root has three or more same-keyword child
	// subtrees (two are reachable through re-rooted grows); extended mode
	// restores full completeness at exponential cost and exists for the
	// exhaustive-oracle validation tests and the ablation benchmark.
	ExtendedMerge bool
	// Workers has no effect: a query runs on the goroutine that calls it,
	// supply fields included, because fanning the fields out across
	// goroutines measured slower than relaxing them inline. The field stays,
	// with its check that rejects a negative value, only because the
	// benchmark module under bench/ sets it; it goes together with that
	// reader.
	Workers int
}

// Validate checks the options. Failures wrap the sentinel errors ErrBadK
// and ErrBadOptions so callers can classify them with errors.Is.
func (o Options) Validate() error {
	if o.K < 1 {
		return fmt.Errorf("%w (got %d)", ErrBadK, o.K)
	}
	if o.Diameter < 0 {
		return fmt.Errorf("%w: negative diameter %d", ErrBadOptions, o.Diameter)
	}
	if o.MaxExpansions < 0 {
		return fmt.Errorf("%w: negative MaxExpansions %d", ErrBadOptions, o.MaxExpansions)
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w: negative Workers %d", ErrBadOptions, o.Workers)
	}
	return nil
}

// Answer is one ranked query answer.
type Answer struct {
	// Tree is the joined tuple tree connecting the query keywords.
	Tree *jtt.Tree
	// Score is the tree's collective importance under Eq. 4.
	Score float64
}

// Stats reports work done by a search, for the efficiency experiments.
type Stats struct {
	// Expanded counts candidate trees popped from the frontier and grown.
	// Only a tree below the ⌈D/2⌉ depth limit is queued — one at the limit
	// can grow nothing — so every count is a real expansion.
	Expanded int
	// Generated counts the candidates the search created: built trees after
	// dedup, plus terminal children priced and registered without being
	// built.
	Generated int
	// Answers counts complete valid answers encountered (before top-k
	// truncation, after dedup).
	Answers int
	// Truncated reports that MaxExpansions stopped the search early.
	Truncated bool
	// Interrupted reports that the caller's context expired or was
	// cancelled mid-search; the returned answers are the best found up to
	// that point and carry no optimality guarantee.
	Interrupted bool
	// FrontierBound is the best Eq. 3 upper bound left in the
	// branch-and-bound frontier when the search stopped. It certifies the
	// returned list against everything unexplored: every valid answer not
	// in the list either scores strictly below the k-th returned answer
	// (its whole build lineage was commit-pruned against a full top-k) or
	// grows out of a still-queued candidate and is bounded by
	// FrontierBound (Lemma 1). 0 when the frontier was exhausted, +Inf
	// when no finite bound exists — the run was interrupted, or merge
	// cascades were dropped at the Generated cap.
	FrontierBound float64
	// Built counts the trees the query's arena handed out: seeds, grown
	// children that passed every pre-build check, successful merges, and
	// terminal children built because a merge needed them.
	Built int
	// Spared counts the grown children the bound check kept from being
	// built, priced from their parents' flows (Options.NoDynamicBounds
	// leaves nothing to price them from, so it spares none).
	Spared int
	// Relaxed counts the edges the supply-field relaxation scanned, pushes
	// and pulls, summed over the query's terms (0 without dynamic bounds).
	Relaxed int
	// MergesPriced counts the merges priced from their operands' bound
	// views before being built: those whose union covers every term while
	// the top-k is full. MergesSkipped counts those of them whose price lay
	// below the k-th answer, so nothing was built.
	MergesPriced, MergesSkipped int
}

// Searcher runs queries against one RWMP model. It is safe for concurrent
// use: searches share only immutable state plus a scratch pool, and
// concurrent queries draw distinct scratches from it.
type Searcher struct {
	m *rwmp.Model
	// nbDamp holds, per node, the largest dampening rate among its
	// out-neighbours (bounds.go, firstHop). It is derived from the model in
	// one pass over the edges and never saved.
	nbDamp  []float64
	scratch sync.Pool // of *queryScratch
}

// New returns a Searcher over the model.
func New(m *rwmp.Model) *Searcher {
	g, damp := m.Graph(), m.DampVector()
	nbDamp := make([]float64, g.NumNodes())
	for v := range nbDamp {
		for _, e := range g.OutEdges(graph.NodeID(v)) {
			nbDamp[v] = max(nbDamp[v], damp[e.To])
		}
	}
	return &Searcher{m: m, nbDamp: nbDamp}
}

// maxQueryTerms bounds the per-candidate coverage bitmask.
const maxQueryTerms = 64

// queryContext precomputes per-query matching structures shared by all
// algorithms.
type queryContext struct {
	terms []string
	full  uint64
	// masks and gen are dense per-node tables, one entry per graph node:
	// the bitmask of matched terms (0 for a free node) and the generation
	// count r_vv. Only the nonFree entries are ever non-zero, so release
	// clears them by walking that list.
	masks   []uint64
	gen     []float64
	perTerm [][]graph.NodeID // term → matching nodes (ascending)
	byGen   [][]graph.NodeID // term → matching nodes, generation descending
	nonFree []graph.NodeID   // all matching nodes, ascending
	// matchNbrs is dense too: per node, how many of its out-neighbours
	// match a term. nbrs lists the nodes where it is non-zero, which is
	// what release clears.
	matchNbrs []int32
	nbrs      []graph.NodeID
	// levels is how many levels per node the query's supply fields hold
	// (field.go; the fields themselves live in the scratch): 0 without
	// dynamic bounds.
	levels int
	// isNonFreeFn is the bound method value of isNonFree, captured once per
	// query so the per-candidate IsReduced calls don't allocate a closure
	// each.
	isNonFreeFn func(graph.NodeID) bool
}

// prepare normalizes the query and resolves its non-free node sets into a
// freshly allocated context — the entry point of the unpooled paths (naive,
// exhaustive, oracle). It returns an error for empty or oversized queries
// and ok=false when some term has no matches (AND semantics ⇒ no answers).
func (s *Searcher) prepare(rawTerms []string) (*queryContext, bool, error) {
	return s.prepareInto(newQueryScratch(), rawTerms)
}

// prepareInto is prepare writing into the scratch's pooled query context:
// term lists, masks, generation counts and the sorted node sets all reuse
// the scratch's buffers, so a steady-state prepare allocates nothing.
func (s *Searcher) prepareInto(sc *queryScratch, rawTerms []string) (*queryContext, bool, error) {
	qc := &sc.qc
	qc.terms = qc.terms[:0]
	for _, t := range rawTerms {
		t = strings.ToLower(strings.TrimSpace(t))
		if t == "" {
			continue
		}
		dup := false
		for _, prev := range qc.terms {
			if prev == t {
				dup = true
				break
			}
		}
		if !dup {
			qc.terms = append(qc.terms, t)
		}
	}
	if len(qc.terms) == 0 {
		return nil, false, ErrEmptyQuery
	}
	if len(qc.terms) > maxQueryTerms {
		return nil, false, fmt.Errorf("%w: query has %d terms, limit %d", ErrBadOptions, len(qc.terms), maxQueryTerms)
	}
	qc.full = (uint64(1) << len(qc.terms)) - 1
	qc.isNonFreeFn = qc.isNonFree
	ix := s.m.Index()
	qc.perTerm = qc.perTerm[:0]
	for i, term := range qc.terms {
		nodes := ix.AppendMatchingNodes(nodeBuf(&sc.matchBufs, i), term)
		sc.matchBufs[i] = nodes
		if len(nodes) == 0 {
			return qc, false, nil
		}
		qc.perTerm = append(qc.perTerm, nodes)
	}
	// The dense tables are written only once every term has matched, so the
	// early return above leaves them clean.
	sc.sizeTables(s.m.Graph().NumNodes())
	for i, nodes := range qc.perTerm {
		for _, v := range nodes {
			if qc.masks[v] == 0 {
				qc.nonFree = append(qc.nonFree, v)
			}
			qc.masks[v] |= uint64(1) << i
		}
	}
	slices.Sort(qc.nonFree)
	g := s.m.Graph()
	for _, v := range qc.nonFree {
		qc.gen[v] = s.m.Generation(v, qc.terms)
		// Every edge has its reverse: v is an out-neighbour of each of its
		// own out-neighbours.
		for _, e := range g.OutEdges(v) {
			if qc.matchNbrs[e.To] == 0 {
				qc.nbrs = append(qc.nbrs, e.To)
			}
			qc.matchNbrs[e.To]++
		}
	}
	qc.byGen = qc.byGen[:0]
	for i := range qc.terms {
		nodes := append(nodeBuf(&sc.genBufs, i), qc.perTerm[i]...)
		slices.SortFunc(nodes, func(a, b graph.NodeID) int {
			if ga, gb := qc.gen[a], qc.gen[b]; ga != gb {
				return cmp.Compare(gb, ga) // generation descending
			}
			return cmp.Compare(a, b)
		})
		sc.genBufs[i] = nodes
		qc.byGen = append(qc.byGen, nodes)
	}
	return qc, true, nil
}

// isNonFree reports whether v matches any query term.
func (qc *queryContext) isNonFree(v graph.NodeID) bool { return qc.masks[v] != 0 }

// sourcesIn lists the non-free nodes of t, ascending.
func (qc *queryContext) sourcesIn(t *jtt.Tree) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range t.NodeView() {
		if qc.masks[v] != 0 {
			out = append(out, v)
		}
	}
	return out
}

// cover returns the union of term masks over t's nodes.
func (qc *queryContext) cover(t *jtt.Tree) uint64 {
	var c uint64
	for _, v := range t.NodeView() {
		c |= qc.masks[v]
	}
	return c
}

// validAnswer reports whether t is a valid complete answer: covers all
// terms, is reduced (Def. 3) and respects the diameter limit.
func (qc *queryContext) validAnswer(t *jtt.Tree, diameter int) bool {
	return qc.cover(t) == qc.full && t.IsReduced(qc.isNonFreeFn) && t.Diameter() <= diameter
}

// halfDiameter is the growth depth limit ⌈D/2⌉: every tree of diameter ≤ D
// has a center rooting of depth at most ⌈D/2⌉, so bounding candidate depth
// preserves completeness while halving the search frontier (§IV-A).
func halfDiameter(d int) int { return (d + 1) / 2 }

// topK maintains the best-k answers with canonical-key deduplication.
//
// Entries are held in a total order — score descending, canonical key
// ascending on ties — so the retained set and its order are exactly "the k
// least elements under that order among all answers ever offered",
// independent of the order they were offered in. That insertion-order
// independence is what makes the ranked list independent of the order the
// search pops and commits candidates in, even when exact score ties occur at
// the k boundary.
type topK struct {
	k     int
	items []Answer
	ikeys []string // canonical key per item, parallel to items
	keys  map[string]bool
}

func newTopK(k int) *topK { return &topK{k: k, keys: make(map[string]bool)} }

// beats reports whether answer (score, key) orders strictly before item i.
func (t *topK) beats(score float64, key string, i int) bool {
	if score != t.items[i].Score {
		return score > t.items[i].Score
	}
	return key < t.ikeys[i]
}

// add inserts the answer unless its tree is already present or orders after
// the current k-th answer while the list is full. It reports whether the
// list changed.
func (t *topK) add(tree *jtt.Tree, score float64) bool {
	return t.addKeyed(tree, tree.AppendCanonicalKey(nil), score)
}

// addKeyed is add for callers that already hold the tree's canonical key —
// the branch-and-bound loop builds it in a reused buffer, so the key becomes
// a string only once the tree is known not to be in the list already.
func (t *topK) addKeyed(tree *jtt.Tree, keyBytes []byte, score float64) bool {
	if t.keys[string(keyBytes)] {
		return false
	}
	key := string(keyBytes)
	if len(t.items) == t.k && !t.beats(score, key, len(t.items)-1) {
		// Orders at or after the last slot; remember nothing (key may
		// reappear — dedup by key only matters inside the list).
		return false
	}
	t.keys[key] = true
	pos := sort.Search(len(t.items), func(i int) bool { return t.beats(score, key, i) })
	t.items = append(t.items, Answer{})
	t.ikeys = append(t.ikeys, "")
	copy(t.items[pos+1:], t.items[pos:])
	copy(t.ikeys[pos+1:], t.ikeys[pos:])
	t.items[pos] = Answer{Tree: tree, Score: score}
	t.ikeys[pos] = key
	if len(t.items) > t.k {
		last := len(t.items) - 1
		delete(t.keys, t.ikeys[last])
		t.items = t.items[:last]
		t.ikeys = t.ikeys[:last]
	}
	return true
}

// full reports whether k answers are held.
func (t *topK) full() bool { return len(t.items) == t.k }

// min returns the k-th best score, or -1 when not yet full (all real scores
// are non-negative).
func (t *topK) min() float64 {
	if !t.full() {
		return -1
	}
	return t.items[len(t.items)-1].Score
}

// results returns the answers, best first.
func (t *topK) results() []Answer { return t.items }

// resultsDetached returns a fresh copy of the answers, best first, with every
// tree cloned off its arena and re-rooted at its canonical root. The pooled
// search path must hand out results that survive the scratch's return to the
// pool; canonical rooting makes the rendered tree a function of the answer
// alone: which lineage discovered it stops mattering.
func (t *topK) resultsDetached() []Answer {
	if len(t.items) == 0 {
		return nil
	}
	out := make([]Answer, len(t.items))
	for i, a := range t.items {
		tree := a.Tree
		if root := tree.CanonicalRoot(); root != tree.Root() {
			tree = tree.Reroot(root) // Reroot clones, detaching from the arena
		} else {
			tree = tree.Clone()
		}
		out[i] = Answer{Tree: tree, Score: a.Score}
	}
	return out
}
