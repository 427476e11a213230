package search

import (
	"context"
	"fmt"
	"math"

	"cirank/internal/graph"
	"cirank/internal/jtt"
)

// candidate is a tree in the branch-and-bound frontier, together with the
// evaluation products (cover, bound, score) the engine computes for it.
// Evaluation (fill) writes only the candidate's evaluation products; the seq
// field is assigned later, at commit time.
// Candidates are slab-allocated per query (see scratch.go) and invalid once
// the query's scratch returns to the pool.
//
// A priced candidate is a grown child whose cover and bound the expansion
// step priced (childBound) and fill never evaluates: one that misses a term,
// or a stub. A stub is a grown child at the ⌈D/2⌉ depth limit that cannot be
// an answer: it misses a term, or its root is free (a free root with one
// child is a free leaf, so the tree is not reduced). It is never queued, only
// merged, and it is not built: parent is the tree it grows, its root record's
// node the new root. tree stays nil until a merge walk admits the stub
// against a partner (treeOf).
type candidate struct {
	tree   *jtt.Tree
	parent *jtt.Tree // set for a stub only
	root   int32     // index of the tree root's record in queryScratch.roots
	cover  uint64
	ub     float64
	seq    int  // commit order, for deterministic queue tie-breaking
	priced bool // cover and ub are the expansion step's (price), not fill's
	// merge summarizes the bound view ub came from, for pricing the merges
	// the candidate takes part in (prebound.go); set only for a candidate
	// that can take part in one.
	merge mergeView

	// score and complete are set when the tree is a valid complete answer.
	score    float64
	complete bool
}

// candidateQueue is a binary max-heap on upper bound, ties broken by commit
// order. The order is total, so the pop sequence does not depend on the
// heap's shape.
type candidateQueue []*candidate

// before reports whether a pops before b.
func before(a, b *candidate) bool {
	if a.ub != b.ub {
		return a.ub > b.ub
	}
	return a.seq < b.seq
}

// push adds c to the queue.
func (q *candidateQueue) push(c *candidate) {
	h := append(*q, c)
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !before(c, h[up]) {
			break
		}
		h[i], i = h[up], up
	}
	h[i] = c
	*q = h
}

// pop removes and returns the first candidate of a non-empty queue.
func (q *candidateQueue) pop() *candidate {
	h := *q
	top, n := h[0], len(h)-1
	last := h[n]
	h[n] = nil // release the slab pointer for scratch reuse
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			kid := 2*i + 1
			if kid >= n {
				break
			}
			if r := kid + 1; r < n && before(h[r], h[kid]) {
				kid = r
			}
			if !before(h[kid], last) {
				break
			}
			h[i], i = h[kid], kid
		}
		h[i] = last
	}
	*q = h
	return top
}

// bbState carries the state of one branch-and-bound run, all of it touched
// only by the goroutine that called TopK. All reusable storage lives in the
// query scratch the state points into.
type bbState struct {
	s     *Searcher
	qc    *queryContext
	sc    *queryScratch
	opts  Options
	done  <-chan struct{} // the context's Done channel; nil = uncancellable
	pq    *candidateQueue
	top   *topK
	stats Stats
	seq   int
	// unique is set when no merge can repeat an earlier one, so merges skip
	// the seen set (see process).
	unique bool
	// lost latches when candidate trees were dropped before evaluation (the
	// Generated-cap backstop discards whole merge cascades), so the frontier
	// no longer bounds the unexplored answer space and FrontierBound must
	// report +Inf.
	lost bool
}

// newBBState wires a branch-and-bound state over a prepared scratch and,
// unless the options disable dynamic bounds, computes the query's supply
// fields. The queue, dedup set, root records and top-k all live in the
// scratch; the state only points at them.
func newBBState(s *Searcher, sc *queryScratch, opts Options) *bbState {
	st := &bbState{
		s:    s,
		qc:   &sc.qc,
		sc:   sc,
		opts: opts,
		pq:   &sc.pq,
		top:  &sc.top,
		// Merges cannot repeat under the strict rule with at most two terms
		// (see process).
		unique: !opts.ExtendedMerge && len(sc.qc.terms) <= 2,
	}
	if !opts.NoDynamicBounds {
		st.stats.Relaxed = sc.qc.supplyFields(s.m.Graph(), s.m.DampVector(), opts.Diameter, sc)
	}
	sc.top.k = opts.K
	return st
}

// interrupted polls the context. The first positive poll latches
// Stats.Interrupted; every cancellation point in the search is a call to
// this method (see ARCHITECTURE.md, "Cancellation points"). Polling a nil
// channel never fires, so uncancellable searches pay only a failed select.
func (st *bbState) interrupted() bool {
	select {
	case <-st.done:
		st.stats.Interrupted = true
		return true
	default:
		return false
	}
}

// TopK runs the branch-and-bound search of Algorithm 1 (§IV-B) and returns
// the top-k answers in descending score order (ties broken by canonical tree
// key, so the order is a total one). The result is optimal (Theorem 1): no
// valid answer tree within the diameter limit scores higher than the k-th
// returned answer, unless Stats.Truncated reports an early stop via
// MaxExpansions.
//
// The whole search, supply fields included, runs on the calling goroutine
// (Options.Workers has no effect). When Stats.Truncated is set the guarantee
// weakens to "the best answers found before the cap", but a truncated run is
// as deterministic as a complete one: the cap counts pops and generated
// trees, never time. TopK is safe for concurrent use: searches share only
// immutable state plus the scratch pool, which hands each query its own
// scratch.
//
// TopK is uncancellable; use TopKContext to bound a query by a deadline.
func (s *Searcher) TopK(terms []string, opts Options) ([]Answer, Stats, error) {
	return s.TopKContext(context.Background(), terms, opts)
}

// TopKContext is TopK bounded by a context. If ctx is already done on entry
// no work happens and the error wraps both ErrDeadline and ctx's error. If
// ctx expires mid-search the loop stops at its next cancellation point and
// returns the best answers found so far with Stats.Interrupted set and a nil
// error. Unlike a MaxExpansions stop, an interruption lands where the timing
// puts it, so interrupted rankings may differ from run to run. A context that
// never fires leaves the search byte-identical to TopK: the cancellation
// points only poll ctx.Done().
func (s *Searcher) TopKContext(ctx context.Context, terms []string, opts Options) ([]Answer, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, fmt.Errorf("%w: %w", ErrDeadline, err)
	}
	if err := opts.Validate(); err != nil {
		return nil, Stats{}, err
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	st, err := s.run(ctx, sc, terms, opts)
	if err != nil || st == nil {
		return nil, Stats{}, err
	}
	// Detach before the deferred putScratch invalidates the arena the
	// answer trees live in.
	return st.top.resultsDetached(), st.stats, nil
}

// run is the branch-and-bound loop of TopKContext over a caller-provided
// scratch, which it leaves unreleased: the answers in the returned state's
// top-k still live in the scratch's arena. A nil state with a nil error
// means some keyword has no match (AND semantics: no answers).
func (s *Searcher) run(ctx context.Context, sc *queryScratch, terms []string, opts Options) (*bbState, error) {
	qc, ok, err := s.prepareInto(sc, terms)
	if err != nil || !ok {
		return nil, err
	}
	g := s.m.Graph()
	st := newBBState(s, sc, opts)
	st.done = ctx.Done()
	work := sc.work[:0]
	for _, v := range qc.nonFree {
		if st.capped() {
			break
		}
		st.stats.Built++
		work = append(work, st.enter(sc.arena.NewSingle(v)))
	}
	work = st.process(work)
	for len(*st.pq) > 0 && !st.interrupted() {
		// Lemma 1: once the best remaining upper bound cannot beat the
		// current k-th answer, nothing better can emerge and the search is
		// done.
		if st.top.full() && (*st.pq)[0].ub < st.top.min() {
			break
		}
		if st.opts.MaxExpansions > 0 && st.stats.Expanded >= st.opts.MaxExpansions {
			st.stats.Truncated = true
			break
		}
		c := st.pq.pop()
		st.stats.Expanded++
		// Grow the candidate through its root, in edge order. Only growable
		// candidates are ever queued (commit), so it has room for a level.
		// Every check that can reject a grow runs before the arena hands out
		// storage, cheapest first, so no tree is built only to be thrown
		// away: overlap, then — when the query has supply fields — the bound
		// itself, priced from the parent's flows (prebound.go). A surviving
		// child that misses a term keeps that price as its bound and is never
		// filled; at the depth limit it is not even built: it enters the
		// worklist as a stub (candidate), built only if a merge needs it.
		// Only a child that covers every term — an answer whose exact score
		// needs its flows — is filled, which process does.
		work = work[:0]
		var parent *flowView // c's view, taken at the first neighbour that needs it
		terminal := c.tree.Depth()+1 >= halfDiameter(st.opts.Diameter)
		for i, e := range g.OutEdges(c.tree.Root()) {
			nb := e.To
			// nb came from the root's out-edges, so the data-graph edge
			// needs no second proof; only the overlap check remains.
			if c.tree.Contains(nb) {
				continue
			}
			// A terminal child that covers every term under a free new root
			// is dead: the free root is a leaf, so it is no answer, and the
			// strict rule admits no merge that adds no term.
			if terminal && !st.opts.ExtendedMerge && !keepDeadChildren && c.cover == qc.full && qc.masks[nb] == 0 {
				continue
			}
			var ub float64
			var cover uint64
			if qc.levels > 0 {
				if parent == nil {
					parent = st.viewParent(c)
				}
				if ub, cover = st.childBound(parent, e); st.condemned(ub, cover) {
					st.stats.Spared++
					continue
				}
			}
			if st.capped() {
				break
			}
			if qc.levels > 0 && terminal && (cover != qc.full || qc.masks[nb] == 0) {
				work = append(work, st.stub(c.tree, i, cover, ub))
				continue
			}
			st.stats.Built++
			child := st.enter(sc.arena.GrowEdge(c.tree, nb))
			if qc.levels > 0 && cover != qc.full {
				st.price(child, c.tree.Root(), i, cover, ub)
			}
			work = append(work, child)
		}
		work = st.process(work)
	}
	sc.work = work
	// The frontier bound certifies what the returned list misses: with
	// trees lost (Generated cap) or the run interrupted, the frontier no
	// longer covers the unexplored answer space, so nothing finite bounds
	// it; otherwise every undiscovered answer grows out of some queued
	// candidate, whose Eq. 3 bound dominates it (Lemma 1).
	switch {
	case st.lost || st.stats.Interrupted:
		st.stats.FrontierBound = math.Inf(1)
	case len(*st.pq) > 0:
		st.stats.FrontierBound = (*st.pq)[0].ub
	}
	return st, nil
}

// keepDeadChildren turns the expansion step's dead-child skip off, so that
// the tests can hold the skipping search to the one that prices every child
// (export_test.go sets it).
var keepDeadChildren bool

// checkPriced, when set, sees every priced candidate as price leaves it, so
// that the tests can hold its stored bound to fill's (export_test.go sets it).
var checkPriced func(st *bbState, c *candidate)

// process evaluates and commits the worklist in arrival order until it is
// exhausted: fill each candidate (a priced one is not filled), then commit
// it, which records its answer, enqueues it and appends the trees its merges
// produce to the same worklist. Fill reads nothing commit writes, so the
// order of the commits alone decides what the search explores. Being first
// in, first out, the worklist commits the same closure a depth-first
// recursion would — every candidate still merges against every earlier
// same-root candidate — in breadth-first order, and that order is what Stats
// is counted in. It returns the worklist, whose storage the caller reuses.
//
// Cancellation points: each pop (run) and each worklist candidate — a single
// expansion can cascade through many thousands of fills and merge attempts.
//
// Only merged trees go through the seen set; the rest cannot repeat. A grown
// tree is its parent under a new root, the parent its one root child, so the
// pair (parent, new root) can be read back from it: two grown trees are equal
// only if they grow the same parent to the same neighbour. Every parent is
// popped once and grows once per neighbour (adjacency lists hold no parallel
// edges), so that needs the parents themselves to be distinct trees. A seed
// has no root child. A merge has two or more: its operands' root children
// are disjoint (Merge rejects overlap off the root) and neither operand is a
// seed (seeds are never registered for merges, see commit). So no grown tree
// equals a seed or a merge, seeds are distinct nodes, and merges are deduped
// among themselves: by induction over the generation order every candidate,
// parents included, is a distinct tree.
//
// Under the strict rule a query of at most two terms needs no seen set for
// merges either (bbState.unique). One term admits no merge at all. With two,
// the rule pairs covers {t1} and {t2} only: the root matches neither term,
// or one operand would cover both. Neither operand is a merge, which would
// cover both, nor a seed, which is never registered; so each is a grown tree
// with one root child, and the merge has exactly two root children. It
// splits into its operands one way only, the operands are distinct trees,
// and commit attempts each pair once, so no merge repeats another.
func (st *bbState) process(work []*candidate) []*candidate {
	for i := 0; i < len(work) && !st.interrupted(); i++ {
		c := work[i]
		if !c.priced {
			st.fill(c)
		}
		work = st.commit(c, work)
	}
	return work
}

// capped reports whether the Generated cap drops the next new tree. The cap
// backstops the merge closure: MaxExpansions alone bounds queue pops, but a
// single expansion can cascade through many merges.
func (st *bbState) capped() bool {
	if st.opts.MaxExpansions > 0 && st.stats.Generated >= 40*st.opts.MaxExpansions {
		st.stats.Truncated = true
		st.lost = true
		return true
	}
	return false
}

// enter makes the candidate of a newly built tree, with its root record.
func (st *bbState) enter(tree *jtt.Tree) *candidate {
	st.stats.Generated++
	c := st.sc.cands.get()
	c.tree = tree
	c.root = st.rootOf(tree.Root())
	return c
}

// stub makes the candidate of parent's child over its root's i-th out-edge
// without building it, priced by childBound at ub with the cover given.
func (st *bbState) stub(parent *jtt.Tree, i int, cover uint64, ub float64) *candidate {
	st.stats.Generated++
	c := st.sc.cands.get()
	c.parent = parent
	c.root = st.rootOf(st.s.m.Graph().OutEdges(parent.Root())[i].To)
	st.price(c, parent.Root(), i, cover, ub)
	return c
}

// price gives c, the child of a tree rooted at root over its i-th out-edge,
// the cover and bound childBound just priced it at, and the merge summary of
// the view that price came from. The stored bound carries the skip rule's
// slack, so it never lies below the bound fill would give the built child:
// the queue order, Lemma 1's stop and FrontierBound stay sound on it.
func (st *bbState) price(c *candidate, root graph.NodeID, i int, cover uint64, ub float64) {
	c.cover, c.ub, c.priced = cover, ub*(1+preBoundSlack), true
	if st.mergeable(c) {
		st.keepView(c, &st.sc.child, st.s.m.Graph().ReverseWeight(root, i)) // w(child root → parent root)
	}
	if checkPriced != nil {
		checkPriced(st, c)
	}
}

// treeOf returns c's tree, building a stub's the first time a merge needs it.
func (st *bbState) treeOf(c *candidate) *jtt.Tree {
	if c.tree == nil {
		c.tree = st.sc.arena.GrowEdge(c.parent, st.sc.roots[c.root].node)
		st.stats.Built++
	}
	return c.tree
}

// rootOf returns the index of root's record in the scratch, creating it at
// the root's first candidate.
func (st *bbState) rootOf(root graph.NodeID) int32 {
	sc := st.sc
	if i := sc.rootAt[root]; i != 0 {
		return i - 1
	}
	n := len(sc.roots)
	if n < cap(sc.roots) {
		sc.roots = sc.roots[:n+1] // re-use a released record's registry storage
	} else {
		sc.roots = append(sc.roots, rootState{})
	}
	rs := &sc.roots[n]
	rs.node, rs.buckets = root, rs.buckets[:0]
	sc.rootAt[root] = int32(n + 1)
	return int32(n)
}

// fill computes the evaluation products of a candidate: keyword cover, the
// RWMP score when the tree is a valid complete answer, and the §IV-B upper
// bound. The tree's flow table is filled once, read into the scratch's bound
// view, and both the score and the bound come from the view; a candidate
// missing a term nothing can supply needs neither. fill writes only the
// candidate and the bound scratch.
func (st *bbState) fill(c *candidate) {
	qc, bs := st.qc, &st.sc.bound
	c.cover = st.sources(c.tree)
	v := &bs.view
	v.at(c.tree)
	v.cover = c.cover
	if !st.supplied(v, len(bs.slots)) {
		return // ub stays 0: commit drops the candidate
	}
	bs.flow.SetTree(st.s.m, c.tree)
	v.readFlow(&bs.flow, bs.slots, bs.gens, nil, st.s.m.Damp(v.node))
	nodes, par := c.tree.NodeView(), c.tree.ParentView()
	matching := int32(0) // the root's tree children that are sources
	for _, i := range bs.slots {
		if par[i] == v.node && nodes[i] != v.node {
			matching++
		}
	}
	v.hop = st.firstHop(v.node, matching)
	if c.cover == qc.full && c.tree.IsReduced(qc.isNonFreeFn) && c.tree.Diameter() <= st.opts.Diameter {
		c.complete = true
		c.score = v.scoreSum() / float64(len(bs.slots))
	}
	c.ub = st.upperBound(v)
	if st.mergeable(c) {
		st.keepView(c, v, bs.flow.RootDenom())
	}
}

// sources lists t's sources into the bound scratch — their slots and
// generation counts, ascending — and returns the terms they cover.
func (st *bbState) sources(t *jtt.Tree) (cover uint64) {
	qc, bs := st.qc, &st.sc.bound
	slots, gens := bs.slots[:0], bs.gens[:0]
	for i, v := range t.NodeView() {
		if mask := qc.masks[v]; mask != 0 {
			cover |= mask
			slots = append(slots, i)
			gens = append(gens, qc.gen[v])
		}
	}
	bs.slots, bs.gens = slots, gens
	return cover
}

// commit folds one evaluated candidate into the search state: records its
// answer (if complete), enqueues it for expansion unless pruned or already at
// the depth limit, and attempts tree merges (Algorithm 1 lines 16–20) against
// every same-root candidate committed before it that the admission rule
// admits, appending each merged tree that is new to work, the worklist
// process is walking.
// Because every candidate merges against all its predecessors, each unordered
// pair is attempted exactly once and the merge set is transitively closed — a
// root with any number of child subtrees is reachable, which Theorem 1's
// optimality needs. The admission rule reads covers only, so the registry
// asks it once per cover (bucketWalk.start).
func (st *bbState) commit(c *candidate, work []*candidate) []*candidate {
	// The canonical key — the top-k's identity and tie-break — is built only
	// for an answer that can enter or tie the list; one scoring below a full
	// list's k-th changes nothing whatever its key.
	if c.complete && !(st.top.full() && c.score < st.top.min()) {
		st.sc.keyBuf = c.tree.AppendCanonicalKey(st.sc.keyBuf[:0])
		if st.top.addKeyed(c.tree, st.sc.keyBuf, c.score) {
			st.stats.Answers++
		}
	}
	// A zero bound means the candidate can never become a valid answer
	// (some keyword has no feasible supplement). Commit-time pruning: if the
	// candidate's bound cannot beat the current k-th answer it can never
	// contribute (the k-th score only rises), so don't enqueue it, don't
	// register it for merges, and don't close merges over it. This is what
	// keeps the merge closure from exploding quadratically around hub roots.
	if c.ub <= 0 || st.top.full() && c.ub < st.top.min() {
		return work
	}
	c.seq = st.seq
	st.seq++
	// Half-diameter depth limit (§IV-A): a grown tree is one level deeper
	// than c, so a candidate already at ⌈D/2⌉ — a stub among them — can grow
	// nothing and stays off the frontier. It still merges, and a merge is as
	// deep as its deeper operand, so what merges from it is terminal too:
	// every undiscovered answer still grows out of a queued candidate
	// (Lemma 1).
	if c.parent == nil && c.tree.Depth() < halfDiameter(st.opts.Diameter) {
		st.pq.push(c)
	}
	// A seed is never merged. Merging it into a partner, which holds the
	// seed's node as its root, returns the partner unchanged; and the seeds
	// commit first, on distinct roots, so a seed's own walk finds nothing.
	if c.tree != nil && c.tree.Size() == 1 {
		return work
	}
	// Snapshot: trees merged from c will themselves merge against everything
	// committed at their own commit time, including c, so walking the
	// pre-existing registry suffices for closure.
	rs, walk := &st.sc.roots[c.root], &st.sc.walk
	walk.start(rs, c.cover, st.opts.ExtendedMerge)
	for other := walk.next(); other != nil; other = walk.next() {
		// A merge that would cover every term is priced from the operands'
		// views first, and one the k-th answer already beats is not built:
		// commit would drop it (the k-th score only rises).
		if st.top.full() && c.cover|other.cover == st.qc.full {
			st.stats.MergesPriced++
			if st.mergePrice(c, other)*(1+preBoundSlack) < st.top.min() {
				st.stats.MergesSkipped++
				continue
			}
		}
		if st.capped() {
			break
		}
		merged, err := st.sc.arena.Merge(st.treeOf(c), st.treeOf(other))
		if err != nil {
			continue // overlap: the sanity check of §IV-B
		}
		st.stats.Built++
		if st.unique || st.sc.seen.add(merged, merged.Hash()) {
			work = append(work, st.enter(merged))
		}
	}
	rs.register(c)
	return work
}
