package search

import (
	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/rwmp"
)

// This file holds the query-scoped scratch machinery of the allocation-lean
// hot path. One queryScratch carries every reusable structure a
// branch-and-bound run touches — candidate slabs, the tree arena, the dedup
// set and per-root records, the dense per-node tables, the priority queue
// and top-k backings, and the per-term supply fields — so a steady-state query
// allocates only what it must retain past its own lifetime (the canonical
// keys of top-k entrants and the cloned answer trees). The scratch is
// recycled through a sync.Pool on the Searcher, following the epoch/slab
// idiom of internal/pathindex/scratch.go; the poisoning test in
// alloc_test.go certifies that no state leaks from one query into the next.

// candSlab hands out candidate structs from reusable slabs, replacing the
// per-expansion heap allocation of the pre-rewrite engine.
type candSlab struct {
	slabs    [][]candidate
	si, used int
}

// candSlabSize is how many candidates one slab holds.
const candSlabSize = 512

// get returns a zeroed candidate.
func (cs *candSlab) get() *candidate {
	if cs.si == len(cs.slabs) {
		cs.slabs = append(cs.slabs, make([]candidate, candSlabSize))
	}
	slab := cs.slabs[cs.si]
	if cs.used == len(slab) {
		cs.si++
		cs.used = 0
		return cs.get()
	}
	c := &slab[cs.used]
	cs.used++
	*c = candidate{}
	return c
}

// reset rewinds the slab; every candidate handed out becomes reusable. At
// most candSlabKeep slabs are retained.
func (cs *candSlab) reset() {
	cs.si, cs.used = 0, 0
	if len(cs.slabs) > candSlabKeep {
		cs.slabs = append([][]candidate(nil), cs.slabs[:candSlabKeep]...)
	}
}

// boundScratch is the scratch of candidate evaluation. Everything in it
// describes the candidate being filled, or the popped candidate the
// expansion step is viewing.
type boundScratch struct {
	// flow is the candidate tree's message-flow table; slots and gens are
	// its sources' table slots and generation counts, ascending; view is
	// what the exact score and the bound read of them (bounds.go).
	flow  rwmp.Flow
	slots []int
	gens  []float64
	view  boundView
}

// treeSet is the dedup set of generated candidates: an open-addressing table
// of rooted trees, probed by a 64-bit hash and decided by structural
// equality, so it is exact — a hash collision costs a comparison, never a
// lost candidate. The trees live in the query's arena; reset forgets them
// before the arena rewinds.
type treeSet struct {
	slots []treeSlot // length a power of two, at most half full
	n     int
}

type treeSlot struct {
	tree *jtt.Tree // nil marks an empty slot
	hash uint64
}

// treeSetMin is the table's initial size.
const treeSetMin = 1 << 10

// add inserts t under hash h — jtt.Tree.Hash in the search; a parameter so
// the tests can force collisions — and reports whether t was absent.
func (s *treeSet) add(t *jtt.Tree, h uint64) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.tree == nil {
			*sl = treeSlot{t, h}
			s.n++
			return true
		}
		if sl.hash == h && sl.tree.Equal(t) {
			return false
		}
	}
}

// grow doubles the table and reinserts every tree by its stored hash.
func (s *treeSet) grow() {
	old := s.slots
	s.slots = make([]treeSlot, max(treeSetMin, 2*len(old)))
	mask := uint64(len(s.slots) - 1)
	for _, sl := range old {
		if sl.tree == nil {
			continue
		}
		i := sl.hash & mask
		for s.slots[i].tree != nil {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// reset empties the set, dropping a table grown past 2·seenMapCap slots
// (what seenMapCap trees need at half load).
func (s *treeSet) reset() {
	if len(s.slots) > 2*seenMapCap {
		s.slots = nil
	}
	clear(s.slots)
	s.n = 0
}

// rootState is what the search keeps per candidate root besides its supply
// lists: the merge registry, the committed candidates rooted here bucketed by
// cover. Records are created by bbState.rootOf when a root's first candidate
// appears, and found again through the dense queryScratch.rootAt table.
type rootState struct {
	node    graph.NodeID
	buckets []coverBucket // one per cover seen here, in order of first commit
}

// coverBucket is the committed candidates of one root that share a cover, in
// commit order — ascending seq.
type coverBucket struct {
	cover uint64
	cands []*candidate
}

// register files a committed candidate, the last so far, under its cover.
func (rs *rootState) register(c *candidate) {
	i := 0
	for i < len(rs.buckets) && rs.buckets[i].cover != c.cover {
		i++
	}
	if i == len(rs.buckets) {
		if i < cap(rs.buckets) {
			rs.buckets = rs.buckets[:i+1] // re-use a released bucket's storage
		} else {
			rs.buckets = append(rs.buckets, coverBucket{})
		}
		rs.buckets[i].cover, rs.buckets[i].cands = c.cover, rs.buckets[i].cands[:0]
	}
	rs.buckets[i].cands = append(rs.buckets[i].cands, c)
}

// bucketWalk visits the registered candidates of one root that the merge
// admission rule pairs with a candidate of a given cover, in commit order.
// The rule reads covers only. The default (the paper's §IV-B wording)
// requires the union to cover strictly more keywords than either operand,
// so the two covers must be incomparable; extended mode admits every pair
// (see Options.ExtendedMerge): every candidate contains a non-free node, its
// seed, and Merge rejects overlap, so any merge adds one. So the walk asks
// the rule once per bucket and merges the admitted buckets by seq: the same
// candidates, in the same order, as a scan over every registered one.
type bucketWalk struct {
	rest [][]*candidate // the unvisited tail of each admitted bucket, none empty
}

// start aims the walk at the candidates of rs the rule admits for cover.
func (w *bucketWalk) start(rs *rootState, cover uint64, extended bool) {
	w.rest = w.rest[:0]
	for _, b := range rs.buckets {
		if union := b.cover | cover; extended || union != b.cover && union != cover {
			w.rest = append(w.rest, b.cands)
		}
	}
}

// next returns the next admitted candidate, nil when the walk is done.
func (w *bucketWalk) next() *candidate {
	if len(w.rest) == 0 {
		return nil
	}
	first := 0 // the bucket whose next candidate committed first
	for i := 1; i < len(w.rest); i++ {
		if w.rest[i][0].seq < w.rest[first][0].seq {
			first = i
		}
	}
	c := w.rest[first][0]
	if w.rest[first] = w.rest[first][1:]; len(w.rest[first]) == 0 {
		last := len(w.rest) - 1
		w.rest[first], w.rest[last] = w.rest[last], nil
		w.rest = w.rest[:last]
	}
	return c
}

// These constants bound what a released scratch retains: a pathological
// query must not pin its peak working set in the pool forever. Tables and
// buffers past their cap are dropped and slabs keep their first few chunks —
// each sized for a query of about seenMapCap candidates, a few megabytes in
// all (jtt.Arena caps itself the same way on Reset). The dense per-node
// tables are sized by the graph, not the query, and always kept.
const (
	seenMapCap   = 1 << 15
	rootsCap     = 1 << 13
	candSlabKeep = seenMapCap / candSlabSize
	ptrBufCap    = seenMapCap
	rootListCap  = 256 // per retained registry bucket, and buckets per registry; a hub root's are dropped
	viewBufCap   = 256 // floats per bound-view buffer; the parent's source-by-source square reaches it at 16 sources
)

// trimmed empties a reusable buffer, dropping it when it grew past max.
func trimmed[T any](buf []T, max int) []T {
	if cap(buf) > max {
		return nil
	}
	return buf[:0]
}

// queryScratch is the pooled per-query state. Fields are grouped by phase:
// prepare (the query context and its buffers), the branch-and-bound state
// (dedup set, per-root records, queue, top-k), and the evaluation scratch
// (slabs, arena, the bound views, the supply fields).
type queryScratch struct {
	qc queryContext

	seen treeSet
	// roots holds one record per candidate root of this query; rootAt is
	// the dense node → 1+index table into it (0 = no record yet), cleared
	// on release by walking roots.
	roots  []rootState
	rootAt []int32
	pq     candidateQueue
	top    topK

	arena  jtt.Arena
	cands  candSlab
	keyBuf []byte     // canonical key of the top-k entrant being committed
	priced []float64  // the candidates' merge summaries' per-source pairs (mergeView)
	walk   bucketWalk // the registry walk of the candidate being committed

	// bound is the evaluation scratch fill and viewParent share. parent is
	// the bound view of the candidate being expanded, child the view the
	// expansion step derives from it for one neighbour at a time
	// (prebound.go).
	bound  boundScratch
	parent flowView
	child  boundView

	// work is the worklist process evaluates and commits: the seeds, or one
	// popped candidate's children, then the merges their commits produce.
	work      []*candidate
	field     []float64        // the supply-field table (field.go), all zero between queries
	fields    []fieldScratch   // its per-term views and relaxation buffers
	region    region           // the nodes the fields' restricted rounds compute
	matchBufs [][]graph.NodeID // per-term matching-node buffers (perTerm)
	genBufs   [][]graph.NodeID // per-term generation-sorted buffers (byGen)
}

// newQueryScratch builds an unpooled scratch — the long-lived paths (prepare
// for the naive and exhaustive algorithms, the bound oracle) use one directly
// and let the garbage collector take it.
func newQueryScratch() *queryScratch {
	sc := &queryScratch{}
	sc.top.keys = make(map[string]bool)
	return sc
}

// sizeTables makes the dense per-node tables cover an n-node graph. A pooled
// scratch serves one searcher, hence one graph, so this allocates once.
func (sc *queryScratch) sizeTables(n int) {
	if len(sc.rootAt) != n {
		sc.qc.masks = make([]uint64, n)
		sc.qc.gen = make([]float64, n)
		sc.qc.matchNbrs = make([]int32, n)
		sc.rootAt = make([]int32, n)
	}
}

// getScratch fetches (or creates) a queryScratch.
func (s *Searcher) getScratch() *queryScratch {
	if sc, ok := s.scratch.Get().(*queryScratch); ok {
		return sc
	}
	return newQueryScratch()
}

// putScratch rewinds the scratch and returns it to the pool.
func (s *Searcher) putScratch(sc *queryScratch) {
	sc.release()
	s.scratch.Put(sc)
}

// release rewinds the scratch for the next query. Oversized tables, slabs
// and buffers are dropped rather than retained, bounding the pool's memory.
func (sc *queryScratch) release() {
	sc.seen.reset()
	// The root records keep their merge registries' storage for the next
	// query's roots (found again by position, not by node).
	for i := range sc.roots {
		rs := &sc.roots[i]
		sc.rootAt[rs.node] = 0
		for j := range rs.buckets {
			rs.buckets[j].cands = trimmed(rs.buckets[j].cands, rootListCap)
		}
		rs.buckets = trimmed(rs.buckets, rootListCap)
	}
	sc.walk.rest = trimmed(sc.walk.rest, rootListCap)
	sc.roots = trimmed(sc.roots, rootsCap)
	// The field table goes back all zero, or not at all when a many-term
	// query grew it past what fieldKeepTerms terms can need.
	for i := range sc.fields {
		fs := &sc.fields[i]
		for _, u := range fs.touched {
			clear(fs.row(u))
		}
		fs.out, fs.touched = nil, fs.touched[:0]
	}
	if len(sc.fields) > fieldKeepTerms {
		clear(sc.fields[fieldKeepTerms:])
		sc.fields = sc.fields[:fieldKeepTerms]
	}
	if cap(sc.field) > fieldKeepTerms*maxSupplyLevels*len(sc.rootAt) {
		sc.field = nil
	}
	sc.region.release()
	// Every candidate pointer below dies with the slab rewind; the buffers
	// are emptied so none outlives it.
	sc.pq = trimmed(sc.pq, ptrBufCap)
	sc.work = trimmed(sc.work, ptrBufCap)
	sc.priced = trimmed(sc.priced, ptrBufCap)
	// A view holds a few floats per source of one tree, the parent's a
	// square of them; a many-source tree's are dropped.
	sc.bound.view.release()
	sc.parent.release()
	sc.child.release()
	sc.top.release()
	sc.arena.Reset()
	sc.cands.reset()
	sc.qc.release()
}

// nodeBuf returns the i-th reusable NodeID buffer of the given family,
// emptied.
func nodeBuf(bufs *[][]graph.NodeID, i int) []graph.NodeID {
	for len(*bufs) <= i {
		*bufs = append(*bufs, nil)
	}
	return (*bufs)[i][:0]
}

// release rewinds the query context's reusable state.
func (qc *queryContext) release() {
	qc.terms = qc.terms[:0]
	for _, v := range qc.nonFree {
		qc.masks[v], qc.gen[v] = 0, 0
	}
	for _, v := range qc.nbrs {
		qc.matchNbrs[v] = 0
	}
	qc.nbrs = trimmed(qc.nbrs, ptrBufCap)
	qc.perTerm = qc.perTerm[:0]
	qc.byGen = qc.byGen[:0]
	qc.nonFree = qc.nonFree[:0]
	qc.levels = 0
	qc.isNonFreeFn = nil
}

// release rewinds a pooled top-k list.
func (t *topK) release() {
	t.items = t.items[:0]
	t.ikeys = t.ikeys[:0]
	if len(t.keys) > seenMapCap {
		t.keys = make(map[string]bool)
	} else {
		clear(t.keys)
	}
}
