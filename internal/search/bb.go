package search

import (
	"container/heap"
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
// A stub is a grown child at the ⌈D/2⌉ depth limit that cannot be an answer:
// it misses a term, or its root is free (a free root with one child is a
// free leaf, so the tree is not reduced). It is never queued, only merged.
// The expansion step prices it (childBound) and does not build it: parent is
// the tree it grows, its root record's node the new root, and cover and ub
// are the priced ones. tree stays nil until a merge walk admits the stub
// against a partner (treeOf); fill never runs on it.
type candidate struct {
	tree   *jtt.Tree
	parent *jtt.Tree // set for a stub only
	root   int32     // index of the tree root's record in queryScratch.roots
	cover  uint64
	ub     float64
	seq    int // commit order, for deterministic queue tie-breaking
	// merge summarizes the bound view ub came from, for pricing the merges
	// the candidate takes part in (prebound.go); set only for a candidate
	// that can take part in one.
	merge mergeView

	// score and complete are set when the tree is a valid complete answer.
	score    float64
	complete bool
}

// candidateQueue is a max-heap on upper bound.
type candidateQueue []*candidate

func (q candidateQueue) Len() int { return len(q) }
func (q candidateQueue) Less(i, j int) bool {
	if q[i].ub != q[j].ub {
		return q[i].ub > q[j].ub
	}
	return q[i].seq < q[j].seq
}
func (q candidateQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *candidateQueue) Push(x interface{}) { *q = append(*q, x.(*candidate)) }
func (q *candidateQueue) Pop() interface{} {
	old := *q
	n := len(old)
	c := old[n-1]
	old[n-1] = nil // release the slab pointer for scratch reuse
	*q = old[:n-1]
	return c
}

// expandBatch is the number of frontier candidates popped per round. The
// batch structure decides which trees are built and evaluated before the
// next pop, and Stats — with the recorded stats pins — is counted against
// it: changing the constant changes Stats, not just timing.
const expandBatch = 32

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
		st.stats.Relaxed = sc.qc.supplyFields(s.m.Graph(), s.m.DampVector(), opts.Diameter, opts.workers(), sc)
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
// Candidates are evaluated on the calling goroutine; Options.Workers fans
// out only the per-term supply fields, which are pure, so the answers and
// the Stats are identical for every worker count. When Stats.Truncated is
// set the guarantee weakens to "the best answers found before the cap", but
// a truncated run is as deterministic as a complete one: the cap counts
// pops and generated trees, never time. TopK is safe for concurrent use:
// searches share only immutable state plus the scratch pool, which hands
// each query its own scratch.
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
	level := sc.level[:0]
	for _, v := range qc.nonFree {
		if st.capped() {
			break
		}
		st.stats.Built++
		level = append(level, st.enter(sc.arena.NewSingle(v)))
	}
	st.process(level)
	for st.pq.Len() > 0 && !st.interrupted() {
		// Pop a batch of frontier candidates. Lemma 1: once the best
		// remaining upper bound cannot beat the current k-th answer,
		// nothing better can emerge and the search is done.
		batch := sc.batch[:0]
		for len(batch) < expandBatch && st.pq.Len() > 0 {
			if st.top.full() && (*st.pq)[0].ub < st.top.min() {
				break
			}
			if st.opts.MaxExpansions > 0 && st.stats.Expanded >= st.opts.MaxExpansions {
				st.stats.Truncated = true
				break
			}
			batch = append(batch, heap.Pop(st.pq).(*candidate))
			st.stats.Expanded++
		}
		sc.batch = batch
		if len(batch) == 0 {
			break
		}
		// Grow every batch candidate through its root, in deterministic
		// (batch, edge) order. Only growable candidates are ever queued
		// (commit), so every one has room for a level. Every check that can
		// reject a grow runs before the arena hands out storage, cheapest
		// first, so no tree is built only to be thrown away: overlap, then —
		// when the query has supply fields — the bound itself, priced from
		// the parent's flows (prebound.go). A priced child at the depth limit
		// that cannot be an answer is not built at all: it enters the level
		// as a stub (candidate), built only if a merge needs it. Evaluating
		// the built survivors is the expensive part, which process does.
		level := sc.level[:0]
	grow:
		for _, c := range batch {
			var parent *flowView // c's view, taken at the first neighbour that needs it
			terminal := c.tree.Depth()+1 >= halfDiameter(st.opts.Diameter)
			for _, e := range g.OutEdges(c.tree.Root()) {
				nb := e.To
				// nb came from the root's out-edges, so the data-graph edge
				// needs no second proof; only the overlap check remains.
				if c.tree.Contains(nb) {
					continue
				}
				// A terminal child that covers every term under a free new
				// root is dead: the free root is a leaf, so it is no answer,
				// and the strict rule admits no merge that adds no term.
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
					break grow
				}
				if qc.levels > 0 && terminal && (cover != qc.full || qc.masks[nb] == 0) {
					level = append(level, st.stub(c.tree, nb, cover, ub))
					continue
				}
				st.stats.Built++
				level = append(level, st.enter(sc.arena.GrowEdge(c.tree, nb)))
			}
		}
		st.process(level)
	}
	// The frontier bound certifies what the returned list misses: with
	// trees lost (Generated cap) or the run interrupted, the frontier no
	// longer covers the unexplored answer space, so nothing finite bounds
	// it; otherwise every undiscovered answer grows out of some queued
	// candidate, whose Eq. 3 bound dominates it (Lemma 1).
	switch {
	case st.lost || st.stats.Interrupted:
		st.stats.FrontierBound = math.Inf(1)
	case st.pq.Len() > 0:
		st.stats.FrontierBound = (*st.pq)[0].ub
	}
	return st, nil
}

// keepDeadChildren turns the expansion step's dead-child skip off, so that
// the tests can hold the skipping search to the one that prices every child
// (export_test.go sets it).
var keepDeadChildren bool

// process drives a level of new candidates through the evaluate/commit
// pipeline until the merge closure is exhausted: evaluate the level, commit
// each candidate in order (recording answers, enqueuing survivors, and
// collecting the trees its merges produce), then dedupe the merged trees
// against those generated before and recurse on them as the next level.
// Committing level by level visits the same closure a depth-first recursion
// would — every candidate still merges against every earlier same-root
// candidate — in a breadth-first order, and that order is what Stats is
// counted in. The level is the caller's scratch buffer (queryScratch.level),
// reused for every level after it.
//
// fillChunk bounds how many candidates are evaluated between context polls.
// A merge level around a hub root can hold tens of thousands of candidates
// whose fills (RWMP scoring, bound computation) dominate the query's cost,
// so polling only at level boundaries would let a cancelled query run for
// seconds; chunking caps the post-cancellation latency at one chunk of
// fills plus one commit. Fill is pure, so the chunking leaves uncancelled
// results unaffected.
const fillChunk = 256

// Cancellation points: each merge level, each fillChunk of evaluations
// within a level, and each commit within a level — a single expansion can
// cascade through many merge levels, and a single level through many
// thousands of fills and merge attempts.
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
func (st *bbState) process(level []*candidate) {
	sc := st.sc
	defer func() { sc.level = level }()
	for len(level) > 0 && !st.interrupted() {
		for start := 0; start < len(level); start += fillChunk {
			if st.interrupted() {
				return
			}
			for _, c := range level[start:min(start+fillChunk, len(level))] {
				if c.parent == nil { // a stub is priced, not filled
					st.fill(c)
				}
			}
		}
		out := sc.merged[:0]
		for _, c := range level {
			if st.interrupted() {
				sc.merged = out
				return
			}
			out = st.commit(c, out)
		}
		sc.merged = out
		level = level[:0]
		for _, tree := range out {
			if st.capped() {
				break
			}
			if st.unique || sc.seen.add(tree, tree.Hash()) {
				level = append(level, st.enter(tree))
			}
		}
	}
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

// enter makes the candidate of a newly built tree, with the root record and
// supply lists its evaluation reads.
func (st *bbState) enter(tree *jtt.Tree) *candidate {
	st.stats.Generated++
	c := st.sc.cands.get()
	c.tree = tree
	c.root = st.rootOf(tree.Root())
	st.supplyLists(c.root, tree.Root(), tree.Depth())
	return c
}

// stub makes the candidate of parent's child over nb without building it:
// childBound priced it at ub, with the cover given, and left its root record
// and supply lists in place.
func (st *bbState) stub(parent *jtt.Tree, nb graph.NodeID, cover uint64, ub float64) *candidate {
	st.stats.Generated++
	c := st.sc.cands.get()
	c.parent, c.cover, c.ub = parent, cover, ub
	c.root = st.rootOf(nb)
	if st.mergeable(c) {
		w, _ := st.s.m.Graph().Weight(nb, parent.Root())
		st.keepView(c, &st.sc.child, w)
	}
	return c
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
	var unbuilt [maxSupplyLevels]int32
	sc.listAt = append(sc.listAt, unbuilt[:st.qc.levels]...)
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
	v.at(c.tree, c.root)
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
// admits, appending the merged trees to out for the caller to process.
// Because every candidate merges against all its predecessors, each unordered
// pair is attempted exactly once and the merge set is transitively closed — a
// root with any number of child subtrees is reachable, which Theorem 1's
// optimality needs. The admission rule reads covers only, so the registry
// asks it once per cover (bucketWalk.start).
func (st *bbState) commit(c *candidate, out []*jtt.Tree) []*jtt.Tree {
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
	// A stub's bound is priced, not filled, so it gets the skip rule's slack
	// (condemned): it is kept wherever fill's bound would have kept it.
	ub := c.ub
	if c.parent != nil {
		ub *= 1 + preBoundSlack
	}
	if ub <= 0 || st.top.full() && ub < st.top.min() {
		return out
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
		heap.Push(st.pq, c)
	}
	// A seed is never merged. Merging it into a partner, which holds the
	// seed's node as its root, returns the partner unchanged; and the seeds
	// commit first, on distinct roots, so a seed's own walk finds nothing.
	if c.tree != nil && c.tree.Size() == 1 {
		return out
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
		merged, err := st.sc.arena.Merge(st.treeOf(c), st.treeOf(other))
		if err != nil {
			continue // overlap: the sanity check of §IV-B
		}
		st.stats.Built++
		out = append(out, merged)
	}
	rs.register(c)
	return out
}
