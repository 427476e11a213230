package searchbench

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"cirank/internal/graph"
	"cirank/internal/rwmp"
	"cirank/internal/search"
)

// This file freezes the pre-rewrite branch-and-bound driver — Algorithm 1
// with the §IV-B bound machinery, exactly as internal/search ran it before
// the pooled-scratch rewrite: a heap-allocated candidate struct per generated
// tree, a fresh canonical-key string per dedup check, a freshly allocated
// source slice per evaluation, map-backed trees cloned on every grow and
// merge, and per-query maps built from nothing. It is sequential (the
// allocation profile, not the fan-out, is what the baseline measures) and its
// rankings are byte-identical to the live engine's, which
// TestNaiveAllocMatchesLiveEngine certifies.

// Result is one ranked answer of the frozen baseline: the tree's canonical
// key and its Eq. 4 score. Keys rather than trees keep the baseline's public
// surface independent of the live jtt representation.
type Result struct {
	// Key is the answer tree's canonical (rooting-independent) key, in the
	// same format as jtt.Tree.CanonicalKey.
	Key string
	// Score is the tree's collective importance under Eq. 4.
	Score float64
}

// NaiveAllocTopK runs the frozen pre-rewrite branch-and-bound search over the
// model and returns the ranked top-k answers. It honors the K, Diameter,
// Index, MaxExpansions, NoDynamicBounds and ExtendedMerge options; Workers
// is ignored (the frozen path is sequential).
func NaiveAllocTopK(m *rwmp.Model, terms []string, opts search.Options) ([]Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	qc, ok, err := prepareFrozen(m, terms)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	if !opts.NoDynamicBounds {
		qc.computeTermDistances(m.Graph(), opts.Diameter)
	}
	qc.maxDamp = m.MaxDamp()
	st := &frozenState{
		m:      m,
		qc:     qc,
		opts:   opts,
		seen:   make(map[string]bool),
		byRoot: make(map[graph.NodeID][]*frozenCandidate),
		top:    newFrozenTopK(opts.K),
	}
	seeds := make([]*mapTree, len(qc.nonFree))
	for i, v := range qc.nonFree {
		seeds[i] = newSingle(v)
	}
	st.process(seeds)
	halfD := (opts.Diameter + 1) / 2
	for st.pq.Len() > 0 {
		var batch []*frozenCandidate
		for len(batch) < frozenExpandBatch && st.pq.Len() > 0 {
			if st.top.full() && st.pq[0].ub < st.top.min() {
				break
			}
			if st.opts.MaxExpansions > 0 && st.expanded >= st.opts.MaxExpansions {
				break
			}
			batch = append(batch, heap.Pop(&st.pq).(*frozenCandidate))
			st.expanded++
		}
		if len(batch) == 0 {
			break
		}
		var grown []*mapTree
		for _, c := range batch {
			root := c.tree.root
			for _, e := range m.Graph().OutEdges(root) {
				nb := e.To
				if c.tree.contains(nb) {
					continue
				}
				g, err := c.tree.grow(m.Graph(), nb)
				if err != nil {
					continue
				}
				if g.depth() > halfD {
					continue
				}
				grown = append(grown, g)
			}
		}
		st.process(grown)
	}
	return st.top.results(), nil
}

// frozenExpandBatch mirrors the live expandBatch constant so both engines
// walk the same batch structure.
const frozenExpandBatch = 32

// frozenCandidate is the pre-rewrite candidate: individually heap-allocated,
// with a freshly built key string and source slice.
type frozenCandidate struct {
	tree     *mapTree
	key      string
	cover    uint64
	sources  []graph.NodeID
	ub       float64
	seq      int
	score    float64
	complete bool
}

// frozenQueue is the max-heap on upper bound, ties broken by commit order.
type frozenQueue []*frozenCandidate

func (q frozenQueue) Len() int { return len(q) }
func (q frozenQueue) Less(i, j int) bool {
	if q[i].ub != q[j].ub {
		return q[i].ub > q[j].ub
	}
	return q[i].seq < q[j].seq
}
func (q frozenQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *frozenQueue) Push(x interface{}) { *q = append(*q, x.(*frozenCandidate)) }
func (q *frozenQueue) Pop() interface{} {
	old := *q
	n := len(old)
	c := old[n-1]
	*q = old[:n-1]
	return c
}

// frozenState carries one frozen branch-and-bound run.
type frozenState struct {
	m        *rwmp.Model
	qc       *frozenQueryContext
	opts     search.Options
	pq       frozenQueue
	seen     map[string]bool
	byRoot   map[graph.NodeID][]*frozenCandidate
	top      *frozenTopK
	seq      int
	expanded int
	gen      int
}

// process drives new trees through the evaluate/commit pipeline level by
// level until the merge closure is exhausted, exactly as the live search
// does.
func (st *frozenState) process(trees []*mapTree) {
	for len(trees) > 0 {
		var level []*frozenCandidate
		for _, tree := range trees {
			if st.opts.MaxExpansions > 0 && st.gen >= 40*st.opts.MaxExpansions {
				break
			}
			key := tree.canonicalKey() + "@" + strconv.Itoa(int(tree.root))
			if st.seen[key] {
				continue
			}
			st.seen[key] = true
			st.gen++
			level = append(level, &frozenCandidate{tree: tree, key: key})
		}
		for _, c := range level {
			st.fill(c)
		}
		trees = trees[:0:0]
		for _, c := range level {
			trees = append(trees, st.commit(c)...)
		}
	}
}

// fill computes cover, sources, score (for complete answers) and the §IV-B
// upper bound, allocating a fresh source slice per candidate.
func (st *frozenState) fill(c *frozenCandidate) {
	c.cover = st.qc.cover(c.tree)
	c.sources = st.qc.sourcesIn(c.tree)
	if c.cover == st.qc.full && st.qc.validAnswer(c.tree, st.opts.Diameter) {
		c.complete = true
		c.score = scoreTree(st.m, c.tree, c.sources, st.qc.terms)
	}
	c.ub = st.upperBound(c)
}

// commit folds one evaluated candidate into the search state and returns the
// merged trees it produces.
func (st *frozenState) commit(c *frozenCandidate) []*mapTree {
	if c.complete {
		st.top.add(c.tree, c.score)
	}
	if c.ub <= 0 {
		return nil
	}
	if st.top.full() && c.ub < st.top.min() {
		return nil
	}
	c.seq = st.seq
	st.seq++
	heap.Push(&st.pq, c)
	root := c.tree.root
	others := st.byRoot[root]
	st.byRoot[root] = append(st.byRoot[root], c)
	var out []*mapTree
	for _, other := range others {
		if !st.mergeAllowed(c, other) {
			continue
		}
		merged, err := c.tree.merge(other.tree)
		if err != nil {
			continue
		}
		out = append(out, merged)
	}
	return out
}

// mergeAllowed applies the §IV-B merge admission rule.
func (st *frozenState) mergeAllowed(a, b *frozenCandidate) bool {
	if st.opts.ExtendedMerge {
		return true
	}
	union := a.cover | b.cover
	return union != a.cover && union != b.cover
}

// frozenSupplyScanCap mirrors the live supplyScanCap.
const frozenSupplyScanCap = 256

// upperBound computes ub(C) = max(ce, pe), the frozen copy of the live
// bound (see internal/search/bounds.go for the full derivation).
func (st *frozenState) upperBound(c *frozenCandidate) float64 {
	m := st.m
	qc := st.qc
	root := c.tree.root
	missing := qc.full &^ c.cover

	var supplies []float64
	for ti := range qc.terms {
		if missing&(uint64(1)<<ti) == 0 {
			continue
		}
		best := st.bestSupply(ti, c)
		if best <= 0 {
			return 0
		}
		supplies = append(supplies, best)
	}

	flowAtRoot := make([]float64, len(c.sources))
	for i, src := range c.sources {
		flowAtRoot[i] = delivered(m, c.tree, src, root, qc.terms)
	}
	dampRoot := m.Damp(root)

	ubNew := math.Inf(1)
	for i, src := range c.sources {
		f := flowAtRoot[i]
		if src != root {
			f *= dampRoot
		}
		if f < ubNew {
			ubNew = f
		}
	}

	flowSum := 0.0
	switch {
	case missing == 0 && len(c.sources) == 1:
		v := c.sources[0]
		bound := m.Generation(v, qc.terms)
		bestAdd := 0.0
		for ti := range qc.terms {
			if sup := st.bestSupply(ti, c); sup > bestAdd {
				bestAdd = sup
			}
		}
		if bestAdd > 0 {
			factor := pathFactor(m, c.tree, root, v)
			if v != root {
				factor *= dampRoot
			}
			if alt := bestAdd * factor; alt > bound {
				bound = alt
			}
		}
		flowSum = bound
	case missing == 0:
		for _, v := range c.sources {
			flowSum += nodeScore(m, c.tree, v, c.sources, qc.terms)
		}
	default:
		for _, v := range c.sources {
			ub := math.Inf(1)
			for _, src := range c.sources {
				if src == v {
					continue
				}
				if f := delivered(m, c.tree, src, v, qc.terms); f < ub {
					ub = f
				}
			}
			factor := pathFactor(m, c.tree, root, v)
			if v != root {
				factor *= dampRoot
			}
			for _, sup := range supplies {
				if f := sup * factor; f < ub {
					ub = f
				}
			}
			flowSum += ub
		}
	}
	aMin := 0.0
	if missing != 0 {
		aMin = 1
	}
	n := float64(len(c.sources))
	atMin := (flowSum + aMin*ubNew) / (n + aMin)
	if ubNew > atMin {
		return ubNew
	}
	return atMin
}

// bestSupply bounds the message count any node covering term ti could
// deliver to the candidate's root (frozen copy of the live bound).
func (st *frozenState) bestSupply(ti int, c *frozenCandidate) float64 {
	nodes := st.qc.byGen[ti]
	root := c.tree.root
	idx := st.opts.Index
	budget := st.opts.Diameter - c.tree.depth()
	dmin := st.qc.distToTerm(ti, root, st.opts.Diameter)
	if dmin > budget {
		return 0
	}
	refined := st.neighborRefinedSupply(ti, c, nodes, root, dmin)
	if idx == nil {
		return refined
	}
	best := 0.0
	scanned := 0
	for _, v := range nodes {
		if c.tree.contains(v) {
			continue
		}
		g := st.qc.gen[v]
		if g <= best {
			break
		}
		if idx.DistanceLB(v, root) > budget {
			continue
		}
		if r := g * idx.RetentionUB(v, root); r > best {
			best = r
		}
		scanned++
		if scanned >= frozenSupplyScanCap {
			if tail := frozenTailGen(nodes, st.qc.gen, v); tail > best {
				best = tail
			}
			break
		}
	}
	if refined < best {
		return refined
	}
	return best
}

// neighborRefinedSupply is the index-free supplement bound with the
// direct-neighbour refinement (frozen copy).
func (st *frozenState) neighborRefinedSupply(ti int, c *frozenCandidate, nodes []graph.NodeID, root graph.NodeID, dmin int) float64 {
	m := st.m
	nbrDamp := 0.0
	for _, e := range m.Graph().OutEdges(root) {
		if c.tree.contains(e.To) {
			continue
		}
		if d := m.Damp(e.To); d > nbrDamp {
			nbrDamp = d
		}
	}
	retention := func(d int) float64 {
		if d <= 1 {
			return 1
		}
		r := nbrDamp
		for i := 2; i < d; i++ {
			r *= st.qc.maxDamp
		}
		return r
	}
	budget := st.opts.Diameter - c.tree.depth()
	best := 0.0
	var topSup []frozenSupplier
	if st.qc.topSup != nil {
		topSup = st.qc.topSup[ti]
	}
	inTop := make(map[graph.NodeID]bool, len(topSup))
	for _, sup := range topSup {
		inTop[sup.node] = true
		if c.tree.contains(sup.node) {
			continue
		}
		d := int(sup.dist[root])
		if d < 0 || d > budget {
			continue
		}
		if cand := sup.gen * retention(d); cand > best {
			best = cand
		}
	}
	for _, v := range nodes {
		if c.tree.contains(v) || inTop[v] {
			continue
		}
		if cand := st.qc.gen[v] * retention(dmin); cand > best {
			best = cand
		}
		break
	}
	if dmin <= 1 {
		for _, e := range m.Graph().OutEdges(root) {
			v := e.To
			if c.tree.contains(v) {
				continue
			}
			if st.qc.masks[v]&(uint64(1)<<ti) == 0 {
				continue
			}
			if g := st.qc.gen[v]; g > best {
				best = g
			}
		}
	}
	return best
}

// frozenTailGen returns the highest generation strictly after node v in the
// descending-generation list.
func frozenTailGen(nodes []graph.NodeID, gen map[graph.NodeID]float64, v graph.NodeID) float64 {
	for i, n := range nodes {
		if n == v && i+1 < len(nodes) {
			return gen[nodes[i+1]]
		}
	}
	return 0
}

// frozenQueryContext is the pre-rewrite per-query matching state, with maps
// allocated from nothing every query.
type frozenQueryContext struct {
	terms    []string
	full     uint64
	masks    map[graph.NodeID]uint64
	perTerm  [][]graph.NodeID
	gen      map[graph.NodeID]float64
	byGen    [][]graph.NodeID
	nonFree  []graph.NodeID
	termDist [][]int32
	maxDamp  float64
	topSup   [][]frozenSupplier
}

// frozenSupplier is one high-generation keyword node with its BFS distances.
type frozenSupplier struct {
	node graph.NodeID
	gen  float64
	dist []int32
}

// frozenTopSuppliers mirrors the live topSuppliersPerTerm constant.
const frozenTopSuppliers = 4

// prepareFrozen normalizes the query and resolves its non-free node sets,
// exactly as search.Searcher.prepare did before the rewrite.
func prepareFrozen(m *rwmp.Model, rawTerms []string) (*frozenQueryContext, bool, error) {
	var terms []string
	seen := map[string]bool{}
	for _, t := range rawTerms {
		t = strings.ToLower(strings.TrimSpace(t))
		if t == "" || seen[t] {
			continue
		}
		seen[t] = true
		terms = append(terms, t)
	}
	if len(terms) == 0 {
		return nil, false, search.ErrEmptyQuery
	}
	if len(terms) > 64 {
		return nil, false, fmt.Errorf("%w: query has %d terms, limit 64", search.ErrBadOptions, len(terms))
	}
	qc := &frozenQueryContext{
		terms: terms,
		full:  (uint64(1) << len(terms)) - 1,
		masks: make(map[graph.NodeID]uint64),
		gen:   make(map[graph.NodeID]float64),
	}
	ix := m.Index()
	for i, term := range terms {
		nodes := ix.MatchingNodes(term)
		if len(nodes) == 0 {
			return qc, false, nil
		}
		qc.perTerm = append(qc.perTerm, nodes)
		for _, v := range nodes {
			qc.masks[v] |= uint64(1) << i
		}
	}
	for v := range qc.masks {
		qc.nonFree = append(qc.nonFree, v)
		qc.gen[v] = m.Generation(v, terms)
	}
	sort.Slice(qc.nonFree, func(i, j int) bool { return qc.nonFree[i] < qc.nonFree[j] })
	qc.byGen = make([][]graph.NodeID, len(terms))
	for i := range terms {
		nodes := append([]graph.NodeID(nil), qc.perTerm[i]...)
		sort.Slice(nodes, func(a, b int) bool {
			ga, gb := qc.gen[nodes[a]], qc.gen[nodes[b]]
			if ga != gb {
				return ga > gb
			}
			return nodes[a] < nodes[b]
		})
		qc.byGen[i] = nodes
	}
	return qc, true, nil
}

// computeTermDistances fills termDist and topSup sequentially.
func (qc *frozenQueryContext) computeTermDistances(g *graph.Graph, maxDepth int) {
	qc.termDist = make([][]int32, len(qc.terms))
	qc.topSup = make([][]frozenSupplier, len(qc.terms))
	for ti := range qc.terms {
		qc.termDist[ti] = frozenBFSDistances(g, qc.perTerm[ti], maxDepth)
		top := qc.byGen[ti]
		if len(top) > frozenTopSuppliers {
			top = top[:frozenTopSuppliers]
		}
		for _, v := range top {
			qc.topSup[ti] = append(qc.topSup[ti], frozenSupplier{
				node: v,
				gen:  qc.gen[v],
				dist: frozenBFSDistances(g, []graph.NodeID{v}, maxDepth),
			})
		}
	}
}

// frozenBFSDistances runs a depth-bounded multi-source BFS with per-layer
// frontier allocations, the pre-rewrite cost model.
func frozenBFSDistances(g *graph.Graph, sources []graph.NodeID, maxDepth int) []int32 {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	frontier := make([]graph.NodeID, 0, len(sources))
	for _, v := range sources {
		if dist[v] < 0 {
			dist[v] = 0
			frontier = append(frontier, v)
		}
	}
	for depth := int32(0); depth < int32(maxDepth) && len(frontier) > 0; depth++ {
		var next []graph.NodeID
		for _, u := range frontier {
			for _, e := range g.OutEdges(u) {
				if dist[e.To] < 0 {
					dist[e.To] = depth + 1
					next = append(next, e.To)
				}
			}
		}
		frontier = next
	}
	return dist
}

// distToTerm returns the exact distance from v to the nearest node matching
// term ti, or maxDepth+1 beyond the horizon.
func (qc *frozenQueryContext) distToTerm(ti int, v graph.NodeID, maxDepth int) int {
	if qc.termDist == nil {
		return 0
	}
	d := qc.termDist[ti][v]
	if d < 0 {
		return maxDepth + 1
	}
	return int(d)
}

// cover returns the union of term masks over t's nodes.
func (qc *frozenQueryContext) cover(t *mapTree) uint64 {
	var c uint64
	for _, v := range t.nodes() {
		c |= qc.masks[v]
	}
	return c
}

// sourcesIn lists the non-free nodes of t, ascending, freshly allocated.
func (qc *frozenQueryContext) sourcesIn(t *mapTree) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range t.nodes() {
		if qc.masks[v] != 0 {
			out = append(out, v)
		}
	}
	return out
}

// isNonFree reports whether v matches any query term.
func (qc *frozenQueryContext) isNonFree(v graph.NodeID) bool { return qc.masks[v] != 0 }

// validAnswer reports whether t is a complete, reduced, in-diameter answer.
func (qc *frozenQueryContext) validAnswer(t *mapTree, diameter int) bool {
	return qc.cover(t) == qc.full && t.isReduced(qc.isNonFree) && t.diameter() <= diameter
}

// frozenTopK is the pre-rewrite best-k list with canonical-key dedup.
type frozenTopK struct {
	k     int
	items []Result
	keys  map[string]bool
}

func newFrozenTopK(k int) *frozenTopK { return &frozenTopK{k: k, keys: make(map[string]bool)} }

// beats reports whether (score, key) orders strictly before item i.
func (t *frozenTopK) beats(score float64, key string, i int) bool {
	if score != t.items[i].Score {
		return score > t.items[i].Score
	}
	return key < t.items[i].Key
}

// add inserts the answer unless already present or ordered out of the list.
func (t *frozenTopK) add(tree *mapTree, score float64) {
	key := tree.canonicalKey()
	if t.keys[key] {
		return
	}
	if len(t.items) == t.k && !t.beats(score, key, len(t.items)-1) {
		return
	}
	t.keys[key] = true
	pos := sort.Search(len(t.items), func(i int) bool { return t.beats(score, key, i) })
	t.items = append(t.items, Result{})
	copy(t.items[pos+1:], t.items[pos:])
	t.items[pos] = Result{Key: key, Score: score}
	if len(t.items) > t.k {
		last := len(t.items) - 1
		delete(t.keys, t.items[last].Key)
		t.items = t.items[:last]
	}
}

func (t *frozenTopK) full() bool { return len(t.items) == t.k }

func (t *frozenTopK) min() float64 {
	if !t.full() {
		return -1
	}
	return t.items[len(t.items)-1].Score
}

func (t *frozenTopK) results() []Result { return t.items }
