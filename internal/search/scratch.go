package search

import (
	"cirank/internal/graph"
	"cirank/internal/jtt"
)

// This file holds the query-scoped scratch machinery of the allocation-lean
// hot path. One queryScratch carries every reusable structure a
// branch-and-bound run touches — candidate slabs, source-ID slabs, the tree
// arena, the dedup and merge maps, the priority queue and top-k backings,
// and the per-term BFS buffers — so a steady-state query allocates only what
// it must retain past its own lifetime (the canonical-key strings interned
// in the dedup map and the cloned answer trees). The scratch is recycled
// through a sync.Pool on the Searcher, following the epoch/slab idiom of
// internal/pathindex/scratch.go; the poisoning test in alloc_test.go
// certifies that no state leaks from one query into the next.

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

// idSlab bump-allocates NodeID buffers (candidate source sets) in reusable
// chunks.
type idSlab struct {
	chunks  [][]graph.NodeID
	ci, off int
}

// idSlabChunk is the chunk size; oversized requests get a dedicated chunk.
const idSlabChunk = 4096

// alloc returns an empty slice with capacity n whose storage comes from the
// slab.
func (s *idSlab) alloc(n int) []graph.NodeID {
	for {
		if s.ci == len(s.chunks) {
			size := idSlabChunk
			if n > size {
				size = n
			}
			s.chunks = append(s.chunks, make([]graph.NodeID, size))
		}
		c := s.chunks[s.ci]
		if s.off+n <= len(c) {
			out := c[s.off : s.off : s.off+n]
			s.off += n
			return out
		}
		s.ci++
		s.off = 0
	}
}

// reset rewinds the slab for the next query, retaining at most idSlabKeep
// chunks.
func (s *idSlab) reset() {
	s.ci, s.off = 0, 0
	if len(s.chunks) > idSlabKeep {
		s.chunks = append([][]graph.NodeID(nil), s.chunks[:idSlabKeep]...)
	}
}

// boundScratch is the per-worker scratch of the upper-bound evaluation:
// fill runs on worker goroutines, so each worker gets its own copy.
type boundScratch struct {
	supplies   []float64
	flowAtRoot []float64
	// The candidate's scanRootNeighbors products (see bounds.go).
	nbrDamp float64
	adjGen  []float64
}

// termScratch holds the per-term BFS buffers of computeTermDistances. The
// per-term work is distributed by term index, so each term owns its entry
// and the parallel fan-out needs no further coordination.
type termScratch struct {
	dist           []int32   // multi-source BFS distances
	supDist        [][]int32 // exact distances per top supplier
	frontier, next []graph.NodeID
}

// distInto resizes (reusing capacity) and returns the -1-filled distance
// buffer at slot j: slot 0 is the term's multi-source BFS, slots 1…
// topSuppliersPerTerm are the per-supplier BFS runs.
func (ts *termScratch) distInto(j, n int) []int32 {
	var buf []int32
	if j == 0 {
		buf = ts.dist
	} else {
		for len(ts.supDist) < j {
			ts.supDist = append(ts.supDist, nil)
		}
		buf = ts.supDist[j-1]
	}
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = -1
	}
	if j == 0 {
		ts.dist = buf
	} else {
		ts.supDist[j-1] = buf
	}
	return buf
}

// These constants bound what a released scratch retains: a pathological
// query must not pin its peak working set in the pool forever. Maps past
// their cap are dropped, slabs keep their first few chunks, and pointer
// buffers past theirs are dropped — each sized for a query of about
// seenMapCap candidates, a few megabytes in all (jtt.Arena caps itself the
// same way on Reset).
const (
	seenMapCap   = 1 << 15
	byRootMapCap = 1 << 13
	candSlabKeep = seenMapCap / candSlabSize
	idSlabKeep   = 4 * seenMapCap / idSlabChunk
	ptrBufCap    = seenMapCap
	rootListCap  = 256 // per freelisted byRoot list; a hub root's is dropped
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
// (maps, queue, top-k), and the evaluation scratch (slabs, arena, per-worker
// bound buffers).
type queryScratch struct {
	qc queryContext

	seen   map[string]bool
	byRoot map[graph.NodeID][]*candidate
	pq     candidateQueue
	top    topK

	arena  jtt.Arena
	cands  candSlab
	ids    idSlab
	keyBuf []byte

	batch     []*candidate
	level     []*candidate
	grown     []*jtt.Tree
	procA     []*jtt.Tree
	procB     []*jtt.Tree
	rootLists [][]*candidate // freelist for byRoot value slices
	ws        []boundScratch
	termBufs  []termScratch
	matchBufs [][]graph.NodeID // per-term matching-node buffers (perTerm)
	genBufs   [][]graph.NodeID // per-term generation-sorted buffers (byGen)
}

// newQueryScratch builds an unpooled scratch — the long-lived paths (prepare
// for the naive and exhaustive algorithms, the bound oracle) use one directly
// and let the garbage collector take it.
func newQueryScratch() *queryScratch {
	sc := &queryScratch{
		seen:   make(map[string]bool),
		byRoot: make(map[graph.NodeID][]*candidate),
	}
	sc.top.keys = make(map[string]bool)
	sc.qc.masks = make(map[graph.NodeID]uint64)
	sc.qc.gen = make(map[graph.NodeID]float64)
	return sc
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

// release rewinds the scratch for the next query. Oversized maps, slabs and
// buffers are dropped rather than retained, bounding the pool's memory.
func (sc *queryScratch) release() {
	if len(sc.seen) > seenMapCap {
		sc.seen = make(map[string]bool)
	} else {
		clear(sc.seen)
	}
	if len(sc.byRoot) > byRootMapCap {
		sc.byRoot = make(map[graph.NodeID][]*candidate)
		sc.rootLists = nil
	} else {
		for root, lst := range sc.byRoot {
			if cap(lst) <= rootListCap {
				sc.rootLists = append(sc.rootLists, lst[:0])
			}
			delete(sc.byRoot, root)
		}
	}
	// Every candidate pointer below dies with the slab rewind; the buffers
	// are emptied so none outlives it.
	sc.pq = trimmed(sc.pq, ptrBufCap)
	sc.batch = sc.batch[:0]
	sc.level = trimmed(sc.level, ptrBufCap)
	sc.grown = trimmed(sc.grown, ptrBufCap)
	sc.procA = trimmed(sc.procA, ptrBufCap)
	sc.procB = trimmed(sc.procB, ptrBufCap)
	sc.top.release()
	sc.arena.Reset()
	sc.cands.reset()
	sc.ids.reset()
	sc.qc.release()
}

// grabRootList returns an empty candidate list, reusing a freed one when
// available.
func (sc *queryScratch) grabRootList() []*candidate {
	if n := len(sc.rootLists); n > 0 {
		lst := sc.rootLists[n-1]
		sc.rootLists = sc.rootLists[:n-1]
		return lst
	}
	return nil
}

// boundScratches sizes the per-worker bound scratch for nw workers.
func (sc *queryScratch) boundScratches(nw int) []boundScratch {
	for len(sc.ws) < nw {
		sc.ws = append(sc.ws, boundScratch{})
	}
	return sc.ws[:nw]
}

// termScratches sizes the per-term BFS scratch for n terms.
func (sc *queryScratch) termScratches(n int) []termScratch {
	for len(sc.termBufs) < n {
		sc.termBufs = append(sc.termBufs, termScratch{})
	}
	return sc.termBufs[:n]
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
	clear(qc.masks)
	clear(qc.gen)
	qc.perTerm = qc.perTerm[:0]
	qc.byGen = qc.byGen[:0]
	qc.nonFree = qc.nonFree[:0]
	qc.maxGen = 0
	qc.termDist = nil
	qc.maxDamp = 0
	qc.topSup = qc.topSup[:0]
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
