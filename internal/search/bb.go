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
type candidate struct {
	tree  *jtt.Tree
	root  int32 // index of the tree root's record in queryScratch.roots
	cover uint64
	ub    float64
	seq   int // commit order, for deterministic queue tie-breaking

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
	// built counts the trees handed to process: seeds, kept grows and
	// successful merges. The arena hands out exactly these — the accounting
	// test holds it to that, so a tree built only to be discarded shows.
	built int
	// spared counts the children the bound check kept the arena from
	// building; built + spared is what the cheaper checks let through.
	spared int
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
	if !opts.NoDynamicBounds {
		sc.qc.supplyFields(s.m.Graph(), s.m.DampVector(), opts.Diameter, opts.workers(), sc)
	}
	sc.top.k = opts.K
	return &bbState{
		s:    s,
		qc:   &sc.qc,
		sc:   sc,
		opts: opts,
		pq:   &sc.pq,
		top:  &sc.top,
	}
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
	seeds := sc.grown[:0]
	for _, v := range qc.nonFree {
		seeds = append(seeds, sc.arena.NewSingle(v))
	}
	sc.grown = seeds
	st.process(seeds)
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
		// the parent's flows (prebound.go). Evaluating the survivors is the
		// expensive part, which process does.
		grown := sc.grown[:0]
		for _, c := range batch {
			var parent *flowView // c's view, taken at the first neighbour that needs it
			for _, e := range g.OutEdges(c.tree.Root()) {
				nb := e.To
				// nb came from the root's out-edges, so the data-graph edge
				// needs no second proof; only the overlap check remains.
				if c.tree.Contains(nb) {
					continue
				}
				if qc.levels > 0 {
					if parent == nil {
						parent = st.viewParent(c)
					}
					if st.condemned(st.childBound(parent, e)) {
						st.spared++
						continue
					}
				}
				grown = append(grown, sc.arena.GrowEdge(c.tree, nb))
			}
		}
		sc.grown = grown
		st.process(grown)
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

// process drives newly built trees through the evaluate/commit pipeline
// until the merge closure is exhausted: dedupe the level against the set of
// rooted trees already generated, evaluate it, commit each candidate in
// order (recording answers, enqueuing survivors, and collecting the trees
// its merges produce), then recurse on the collected level. Committing
// level by level visits the same closure a depth-first recursion would —
// every candidate still merges against every earlier same-root candidate —
// in a breadth-first order, and that order is what Stats is counted in.
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
// The merged trees of each level collect into the scratch's two ping-pong
// buffers: one is read as the current level while the other fills with the
// next, so the whole cascade reuses two allocations. The caller's input
// buffer is only read, never written.
func (st *bbState) process(trees []*jtt.Tree) {
	sc := st.sc
	outA, outB := sc.procA, sc.procB
	useA := true
	defer func() { sc.procA, sc.procB = outA, outB }()
	for len(trees) > 0 && !st.interrupted() {
		st.built += len(trees)
		level := sc.level[:0]
		for _, tree := range trees {
			// The Generated cap backstops the merge closure: MaxExpansions
			// alone bounds queue pops, but a single expansion can cascade
			// through many merges.
			if st.opts.MaxExpansions > 0 && st.stats.Generated >= 40*st.opts.MaxExpansions {
				st.stats.Truncated = true
				st.lost = true
				break
			}
			if !sc.seen.add(tree, tree.Hash()) {
				continue
			}
			st.stats.Generated++
			c := sc.cands.get()
			c.tree = tree
			c.root = st.rootOf(tree.Root())
			st.supplyLists(c.root, tree.Root(), tree.Depth())
			level = append(level, c)
		}
		sc.level = level
		for start := 0; start < len(level); start += fillChunk {
			if st.interrupted() {
				return
			}
			for _, c := range level[start:min(start+fillChunk, len(level))] {
				st.fill(c)
			}
		}
		var out []*jtt.Tree
		if useA {
			out = outA[:0]
		} else {
			out = outB[:0]
		}
		stop := false
		for _, c := range level {
			if st.interrupted() {
				stop = true
				break
			}
			out = st.commit(c, out)
		}
		if useA {
			outA = out
		} else {
			outB = out
		}
		if stop {
			return
		}
		useA = !useA
		trees = out
	}
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
	if c.cover == qc.full && c.tree.IsReduced(qc.isNonFreeFn) && c.tree.Diameter() <= st.opts.Diameter {
		c.complete = true
		c.score = v.scoreSum() / float64(len(bs.slots))
	}
	c.ub = st.upperBound(v)
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
	// (some keyword has no feasible supplement).
	if c.ub <= 0 {
		return out
	}
	// Commit-time pruning: if the candidate's bound cannot beat the current
	// k-th answer it can never contribute (the k-th score only rises), so
	// don't enqueue it, don't register it for merges, and don't close merges
	// over it. This is what keeps the merge closure from exploding
	// quadratically around hub roots.
	if st.top.full() && c.ub < st.top.min() {
		return out
	}
	c.seq = st.seq
	st.seq++
	// Half-diameter depth limit (§IV-A): a grown tree is one level deeper
	// than c, so a candidate already at ⌈D/2⌉ can grow nothing and stays off
	// the frontier. It still merges, and a merge is as deep as its deeper
	// operand, so what merges from it is terminal too: every undiscovered
	// answer still grows out of a queued candidate (Lemma 1).
	if c.tree.Depth() < halfDiameter(st.opts.Diameter) {
		heap.Push(st.pq, c)
	}
	// Snapshot: trees merged from c will themselves merge against everything
	// committed at their own commit time, including c, so walking the
	// pre-existing registry suffices for closure.
	rs, walk := &st.sc.roots[c.root], &st.sc.walk
	walk.start(rs, c.cover, st.opts.ExtendedMerge)
	for other := walk.next(); other != nil; other = walk.next() {
		merged, err := st.sc.arena.Merge(c.tree, other.tree)
		if err != nil {
			continue // overlap: the sanity check of §IV-B
		}
		out = append(out, merged)
	}
	rs.register(c)
	return out
}
