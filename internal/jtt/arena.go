package jtt

import "cirank/internal/graph"

// Arena bump-allocates tree storage in reusable chunks, so a search that
// materializes millions of candidate trees per query costs a handful of
// chunk allocations instead of one per tree. NewSingle, Grow and Merge on an
// Arena behave exactly like the package-level operations but draw both the
// Tree headers and their node/parent storage from the arena.
//
// Reset rewinds the arena for reuse: every tree previously allocated from it
// becomes invalid at once (its storage will be handed to new trees). Callers
// that outlive the arena — answer trees returned from a search — must
// detach first with Tree.Clone. An Arena is not safe for concurrent use;
// the search gives each worker its own.
//
// The zero value is ready to use.
type Arena struct {
	chunks   [][]graph.NodeID
	ci, off  int
	slabs    [][]Tree
	si, used int
}

// arenaChunkIDs is the node-storage chunk size; oversized requests get a
// dedicated chunk so huge trees still work.
const arenaChunkIDs = 4096

// arenaChunkTrees is how many Tree headers are allocated per slab.
const arenaChunkTrees = 512

// arenaKeepChunks and arenaKeepSlabs bound what Reset retains (4 MiB of node
// storage, 64 Ki headers): arenas live in pooled query scratch, and one hub
// query's working set must not stay pinned there forever.
const (
	arenaKeepChunks = 256
	arenaKeepSlabs  = 128
)

// slots hands out n NodeIDs of zeroed-by-owner storage.
func (a *Arena) slots(n int) []graph.NodeID {
	for {
		if a.ci == len(a.chunks) {
			size := arenaChunkIDs
			if n > size {
				size = n
			}
			a.chunks = append(a.chunks, make([]graph.NodeID, size))
		}
		c := a.chunks[a.ci]
		if a.off+n <= len(c) {
			s := c[a.off : a.off+n : a.off+n]
			a.off += n
			return s
		}
		a.ci++
		a.off = 0
	}
}

// tree hands out one Tree header with storage for n nodes.
func (a *Arena) tree(n int) *Tree {
	for {
		if a.si == len(a.slabs) {
			a.slabs = append(a.slabs, make([]Tree, arenaChunkTrees))
		}
		slab := a.slabs[a.si]
		if a.used < len(slab) {
			t := &slab[a.used]
			a.used++
			buf := a.slots(2 * n)
			t.nodes = buf[:n:n]
			t.par = buf[n:]
			return t
		}
		a.si++
		a.used = 0
	}
}

// Reset rewinds the arena, invalidating every tree allocated from it. The
// node-storage chunks and the tree-header slabs are retained, up to
// arenaKeepChunks and arenaKeepSlabs, and reused by subsequent allocations.
func (a *Arena) Reset() {
	a.ci, a.off = 0, 0
	a.si, a.used = 0, 0
	if len(a.chunks) > arenaKeepChunks {
		a.chunks = append([][]graph.NodeID(nil), a.chunks[:arenaKeepChunks]...)
	}
	if len(a.slabs) > arenaKeepSlabs {
		a.slabs = append([][]Tree(nil), a.slabs[:arenaKeepSlabs]...)
	}
}

// Trees reports how many trees the arena has handed out since the last
// Reset.
func (a *Arena) Trees() int { return a.si*arenaChunkTrees + a.used }

// NewSingle returns the single-node tree {v}, allocated from the arena.
func (a *Arena) NewSingle(v graph.NodeID) *Tree {
	t := a.tree(1)
	t.initSingle(v)
	return t
}

// GrowEdge is Tree.Grow drawing the new tree from the arena, for a caller
// that enumerated newRoot from the out-edges of t's root: the edge exists by
// construction, so only the overlap check remains, and the binary search
// that makes it also yields the insertion position. It returns nil, taking
// no storage, when newRoot is already in t.
func (a *Arena) GrowEdge(t *Tree, newRoot graph.NodeID) *Tree {
	pos, present := t.search(newRoot)
	if present {
		return nil
	}
	nt := a.tree(len(t.nodes) + 1)
	t.growInto(nt, newRoot, pos)
	return nt
}

// Merge is Tree.Merge drawing the new tree from the arena. Validation
// happens before any storage is taken, so rejected merges (the common case
// around hubs) cost nothing.
func (a *Arena) Merge(t, other *Tree) (*Tree, error) {
	n, err := t.checkMerge(other)
	if err != nil {
		return nil, err
	}
	nt := a.tree(n)
	t.mergeInto(nt, other)
	return nt, nil
}
