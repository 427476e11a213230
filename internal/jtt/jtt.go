// Package jtt implements joined tuple trees — the query answers of
// Definition 3 in the paper. A JTT is a subtree of the data graph that is
// reduced with respect to the query: its leaves must be keyword-matching
// (non-free) nodes, and its root must also match a keyword if it has only
// one child.
//
// Trees are small (bounded by the diameter limit D, so typically well under
// a dozen nodes) but the branch-and-bound search materializes millions of
// them per heavy query, so the representation favors allocation economy: two
// parallel slices (sorted nodes, parent per node) over one backing array,
// with an optional Arena that hands out tree storage in bump-allocated
// chunks and reclaims it wholesale between queries. Trees are immutable:
// mutating operations return new trees.
package jtt

import (
	"fmt"
	"strconv"

	"cirank/internal/graph"
)

// Tree is a rooted tree over data-graph nodes. The zero value is not usable;
// construct with NewSingle (or an Arena) and extend with Grow and Merge.
//
// Representation: nodes holds the node set in ascending order; par is
// parallel to nodes and holds each node's parent, with the root's entry
// pointing to itself (the sentinel that marks it). Both slices share one
// backing array, so a tree costs one storage allocation — or none, from an
// Arena.
//
// depth caches the maximum root-to-node distance. Every constructor sets it
// before the tree is handed out — arena headers are reused, so none may
// inherit a predecessor's value — and trees are immutable afterwards, which
// makes Depth a field read that is safe from any goroutine. It shares the
// word that root leaves half empty, so the header stays 56 bytes.
type Tree struct {
	root  graph.NodeID
	depth int32
	nodes []graph.NodeID // sorted ascending, includes root
	par   []graph.NodeID // par[i] is nodes[i]'s parent; root points to itself
}

// newTreeHeap allocates storage for an n-node tree on the heap.
func newTreeHeap(n int) *Tree {
	buf := make([]graph.NodeID, 2*n)
	return &Tree{nodes: buf[:n:n], par: buf[n:]}
}

// NewSingle returns the single-node tree {v}.
func NewSingle(v graph.NodeID) *Tree {
	t := newTreeHeap(1)
	t.initSingle(v)
	return t
}

// initSingle fills one-node storage with the tree {v}.
func (t *Tree) initSingle(v graph.NodeID) {
	t.root = v
	t.depth = 0
	t.nodes[0] = v
	t.par[0] = v
}

// Root returns the tree's root node.
func (t *Tree) Root() graph.NodeID { return t.root }

// Size reports the number of nodes in the tree.
func (t *Tree) Size() int { return len(t.nodes) }

// search returns the position at which v sits in the sorted node list, or
// would be inserted, and whether it is present.
func (t *Tree) search(v graph.NodeID) (int, bool) {
	lo, hi := 0, len(t.nodes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.nodes[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t.nodes) && t.nodes[lo] == v
}

// Slot returns v's position in the sorted node list (its index in NodeView
// and ParentView), or -1 when absent.
func (t *Tree) Slot(v graph.NodeID) int {
	if i, ok := t.search(v); ok {
		return i
	}
	return -1
}

// Contains reports whether v is a node of the tree.
func (t *Tree) Contains(v graph.NodeID) bool { return t.Slot(v) >= 0 }

// Nodes returns the tree's nodes in ascending order. The slice is freshly
// allocated; use NodeView on hot paths that only read.
func (t *Tree) Nodes() []graph.NodeID {
	out := make([]graph.NodeID, len(t.nodes))
	copy(out, t.nodes)
	return out
}

// NodeView returns the tree's nodes in ascending order, aliasing internal
// storage: the caller must not modify it, and for arena-allocated trees it
// is valid only until the arena resets.
func (t *Tree) NodeView() []graph.NodeID { return t.nodes }

// ParentView returns the parent of each NodeView entry, parallel to it and
// aliasing internal storage (same caveats as NodeView). The root's entry is
// the root itself — check against Root before treating it as an edge. One
// pass over the two views visits every tree edge without allocating, which
// is how the RWMP split denominators avoid materializing neighbour sets.
func (t *Tree) ParentView() []graph.NodeID { return t.par }

// Edge is an undirected tree edge, stored with Child pointing away from the
// root (Parent is nearer the root).
type Edge struct {
	// Child and Parent are the edge's endpoints; Parent is the one nearer
	// the tree root.
	Child, Parent graph.NodeID
}

// Edges returns the tree's edges in deterministic (child-ascending) order.
func (t *Tree) Edges() []Edge {
	out := make([]Edge, 0, len(t.nodes)-1)
	for i, v := range t.nodes {
		if v == t.root {
			continue
		}
		out = append(out, Edge{Child: v, Parent: t.par[i]})
	}
	return out
}

// Parent returns v's parent and false for the root (or for absent nodes).
func (t *Tree) Parent(v graph.NodeID) (graph.NodeID, bool) {
	i := t.Slot(v)
	if i < 0 || v == t.root {
		return 0, false
	}
	return t.par[i], true
}

// parentOf returns v's parent; the caller guarantees v is present and not
// the root.
func (t *Tree) parentOf(v graph.NodeID) graph.NodeID { return t.par[t.Slot(v)] }

// Children returns the children of v in ascending order.
func (t *Tree) Children(v graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for i, c := range t.nodes {
		if c != t.root && t.par[i] == v {
			out = append(out, c)
		}
	}
	return out
}

// hasChild reports whether the node at index i has any children.
func (t *Tree) hasChild(i int) bool {
	v := t.nodes[i]
	for j, c := range t.nodes {
		if c != t.root && t.par[j] == v {
			return true
		}
	}
	return false
}

// Leaves returns the tree's leaves (nodes without children; the root counts
// only if it is the sole node) in ascending order.
func (t *Tree) Leaves() []graph.NodeID {
	var out []graph.NodeID
	for i, v := range t.nodes {
		if !t.hasChild(i) && (v != t.root || len(t.nodes) == 1) {
			out = append(out, v)
		}
	}
	return out
}

// Hash returns a 64-bit hash of the rooted tree: its node list and parent
// list, which together fix the root (the one node that is its own parent).
// Trees for which Equal holds hash alike; the converse is what Equal decides.
func (t *Tree) Hash() uint64 {
	// FNV-1a over the 32-bit IDs, one multiply per ID, with a final avalanche
	// so the low bits an open-addressing table masks by depend on every ID.
	h := uint64(14695981039346656037)
	for _, v := range t.nodes {
		h = (h ^ uint64(uint32(v))) * 1099511628211
	}
	for _, p := range t.par {
		h = (h ^ uint64(uint32(p))) * 1099511628211
	}
	h ^= h >> 32
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// Equal reports whether t and other are the same rooted tree: the same
// nodes, each with the same parent, and therefore the same root.
func (t *Tree) Equal(other *Tree) bool {
	if len(t.nodes) != len(other.nodes) {
		return false
	}
	for i, v := range t.nodes {
		if v != other.nodes[i] || t.par[i] != other.par[i] {
			return false
		}
	}
	return true
}

// Clone returns a heap-allocated deep copy of the tree. Use it to detach a
// tree from an Arena before the arena resets.
func (t *Tree) Clone() *Tree {
	nt := newTreeHeap(len(t.nodes))
	nt.root = t.root
	nt.depth = t.depth
	copy(nt.nodes, t.nodes)
	copy(nt.par, t.par)
	return nt
}

// growInto fills dst with t extended by newRoot, which belongs at position
// pos of t's sorted node list; storage must already be sized for Size+1
// nodes. The caller has validated the grow.
func (t *Tree) growInto(dst *Tree, newRoot graph.NodeID, pos int) {
	copy(dst.nodes, t.nodes[:pos])
	copy(dst.par, t.par[:pos])
	dst.nodes[pos] = newRoot
	copy(dst.nodes[pos+1:], t.nodes[pos:])
	copy(dst.par[pos+1:], t.par[pos:])
	dst.par[pos] = newRoot // self-sentinel: newRoot is the root
	dst.root = newRoot
	// The old root now hangs off newRoot, one level below it like the rest
	// of t.
	dst.par[dst.Slot(t.root)] = newRoot
	dst.depth = t.depth + 1
}

// Grow returns a new tree whose root is newRoot and whose single child
// subtree is t — the tree-growing step of §IV-B. It fails if newRoot is
// already in t or the data graph lacks an edge between newRoot and t's root.
func (t *Tree) Grow(g *graph.Graph, newRoot graph.NodeID) (*Tree, error) {
	pos, err := t.checkGrow(g, newRoot)
	if err != nil {
		return nil, err
	}
	nt := newTreeHeap(len(t.nodes) + 1)
	t.growInto(nt, newRoot, pos)
	return nt, nil
}

// checkGrow validates a grow without allocating and returns newRoot's
// position in the grown node list.
func (t *Tree) checkGrow(g *graph.Graph, newRoot graph.NodeID) (int, error) {
	pos, present := t.search(newRoot)
	if present {
		return 0, fmt.Errorf("jtt: grow: node %d already in tree", newRoot)
	}
	if !g.HasEdge(newRoot, t.root) {
		return 0, fmt.Errorf("jtt: grow: no edge between %d and root %d", newRoot, t.root)
	}
	return pos, nil
}

// Attach returns a new tree with child added as a leaf under parent. The
// caller is responsible for the graph edge's existence (the naive search
// assembles trees from BFS paths, whose edges are valid by construction).
func (t *Tree) Attach(child, parent graph.NodeID) (*Tree, error) {
	if !t.Contains(parent) {
		return nil, fmt.Errorf("jtt: attach: parent %d not in tree", parent)
	}
	pos, present := t.search(child)
	if present {
		return nil, fmt.Errorf("jtt: attach: child %d already in tree", child)
	}
	nt := newTreeHeap(len(t.nodes) + 1)
	copy(nt.nodes, t.nodes[:pos])
	copy(nt.par, t.par[:pos])
	nt.nodes[pos] = child
	nt.par[pos] = parent
	copy(nt.nodes[pos+1:], t.nodes[pos:])
	copy(nt.par[pos+1:], t.par[pos:])
	nt.root = t.root
	nt.depth = max(t.depth, int32(t.depthOf(parent))+1)
	return nt, nil
}

// MustAttach is Attach that panics on error.
func (t *Tree) MustAttach(child, parent graph.NodeID) *Tree {
	nt, err := t.Attach(child, parent)
	if err != nil {
		panic(err)
	}
	return nt
}

// checkMerge validates a merge without allocating and returns the merged
// node count.
func (t *Tree) checkMerge(other *Tree) (int, error) {
	if t.root != other.root {
		return 0, fmt.Errorf("jtt: merge: roots differ (%d vs %d)", t.root, other.root)
	}
	// Both node lists are sorted; walk them together. The root is the only
	// node allowed in both.
	n := 0
	i, j := 0, 0
	for i < len(t.nodes) && j < len(other.nodes) {
		switch {
		case t.nodes[i] < other.nodes[j]:
			i++
		case t.nodes[i] > other.nodes[j]:
			j++
		default:
			if t.nodes[i] != t.root {
				return 0, fmt.Errorf("jtt: merge: node %d present in both trees", t.nodes[i])
			}
			i++
			j++
		}
		n++
	}
	return n + (len(t.nodes) - i) + (len(other.nodes) - j), nil
}

// mergeInto fills dst with the union of t and other; storage must already be
// sized and the merge validated.
func (t *Tree) mergeInto(dst *Tree, other *Tree) {
	i, j, k := 0, 0, 0
	for i < len(t.nodes) && j < len(other.nodes) {
		switch {
		case t.nodes[i] < other.nodes[j]:
			dst.nodes[k], dst.par[k] = t.nodes[i], t.par[i]
			i++
		case t.nodes[i] > other.nodes[j]:
			dst.nodes[k], dst.par[k] = other.nodes[j], other.par[j]
			j++
		default: // the shared root
			dst.nodes[k], dst.par[k] = t.nodes[i], t.par[i]
			i++
			j++
		}
		k++
	}
	for ; i < len(t.nodes); i, k = i+1, k+1 {
		dst.nodes[k], dst.par[k] = t.nodes[i], t.par[i]
	}
	for ; j < len(other.nodes); j, k = j+1, k+1 {
		dst.nodes[k], dst.par[k] = other.nodes[j], other.par[j]
	}
	dst.root = t.root
	dst.depth = max(t.depth, other.depth)
}

// Merge returns the union of t and other — the tree-merging step of §IV-B.
// Both trees must share the same root and must not overlap anywhere else
// (the paper's "sanity check" against cycles).
func (t *Tree) Merge(other *Tree) (*Tree, error) {
	n, err := t.checkMerge(other)
	if err != nil {
		return nil, err
	}
	nt := newTreeHeap(n)
	t.mergeInto(nt, other)
	return nt, nil
}

// Path returns the unique tree path from a to b, inclusive of both
// endpoints. It panics if either node is absent.
func (t *Tree) Path(a, b graph.NodeID) []graph.NodeID {
	if !t.Contains(a) || !t.Contains(b) {
		panic(fmt.Sprintf("jtt: Path(%d, %d) with absent node", a, b))
	}
	var dst []graph.NodeID
	// Depth-aligned walk to the lowest common ancestor.
	da, db := t.depthOf(a), t.depthOf(b)
	x, y := a, b
	for d := da; d > db; d-- {
		x = t.parentOf(x)
	}
	for d := db; d > da; d-- {
		y = t.parentOf(y)
	}
	for x != y {
		x = t.parentOf(x)
		y = t.parentOf(y)
	}
	lca := x
	// a up to the LCA, in order.
	for v := a; ; v = t.parentOf(v) {
		dst = append(dst, v)
		if v == lca {
			break
		}
	}
	// b's side is walked upward and emitted reversed; tree depth is bounded
	// by ⌈D/2⌉, so the stack buffer covers every practical diameter.
	var buf [16]graph.NodeID
	up := buf[:0]
	for v := b; v != lca; v = t.parentOf(v) {
		up = append(up, v)
	}
	for j := len(up) - 1; j >= 0; j-- {
		dst = append(dst, up[j])
	}
	return dst
}

// depthOf returns v's distance from the root; the caller guarantees v is
// present.
func (t *Tree) depthOf(v graph.NodeID) int {
	d := 0
	for v != t.root {
		v = t.parentOf(v)
		d++
	}
	return d
}

// Depth reports the maximum distance from the root to any node. It reads
// the field every constructor maintains (see Tree), so it costs nothing in
// the branch-and-bound loops that consult it per candidate.
func (t *Tree) Depth() int { return int(t.depth) }

// setDepth recomputes the depth field from the parent pointers, for the
// constructors that rearrange them (Reroot, Reduce).
func (t *Tree) setDepth() {
	h, _ := t.heightDiam(t.root)
	t.depth = int32(h)
}

// Diameter reports the longest path length (in edges) between any two nodes.
func (t *Tree) Diameter() int {
	_, d := t.heightDiam(t.root)
	return d
}

// heightDiam returns the height of v's subtree and the diameter within it,
// by combining each node's two tallest child subtrees.
func (t *Tree) heightDiam(v graph.NodeID) (int, int) {
	best1, best2 := -1, -1
	diam := 0
	for j, c := range t.nodes {
		if c == t.root || t.par[j] != v {
			continue
		}
		ch, cd := t.heightDiam(c)
		if cd > diam {
			diam = cd
		}
		if ch > best1 {
			best1, best2 = ch, best1
		} else if ch > best2 {
			best2 = ch
		}
	}
	if through := best1 + best2 + 2; through > diam {
		diam = through
	}
	return best1 + 1, diam
}

// CanonicalRoot returns the node every rooting of the same undirected tree
// agrees on: the smallest-ID node of minimal eccentricity (a tree center).
// The branch-and-bound search can reach one answer through lineages ending
// in different rootings — which lineage wins depends on exploration order —
// so the reporting boundary re-roots every answer here to make the rendered
// tree a function of the answer alone.
func (t *Tree) CanonicalRoot() graph.NodeID {
	best := t.root
	bestEcc := -1
	for _, v := range t.nodes {
		ecc := t.eccentricity(v)
		if bestEcc < 0 || ecc < bestEcc || (ecc == bestEcc && v < best) {
			best, bestEcc = v, ecc
		}
	}
	return best
}

// eccentricity returns the longest within-tree hop distance from v to any
// node, walking parent chains (answer trees are a handful of nodes, so the
// quadratic walk beats building adjacency).
func (t *Tree) eccentricity(v graph.NodeID) int {
	ecc := 0
	dv := t.depthOf(v)
	for _, u := range t.nodes {
		if u == v {
			continue
		}
		// dist(v, u) via the lowest common ancestor: climb the deeper node
		// to the shallower's depth, then climb both until they meet.
		du := t.depthOf(u)
		a, da, b, db := v, dv, u, du
		for da > db {
			a = t.parentOf(a)
			da--
		}
		for db > da {
			b = t.parentOf(b)
			db--
		}
		for a != b {
			a, b = t.parentOf(a), t.parentOf(b)
			da--
		}
		if d := dv + du - 2*da; d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Reroot returns the same undirected tree rooted at newRoot. It panics if
// newRoot is not in the tree. BANKS-style scoring depends on which node is
// the root (§II-B.2), so the baseline re-roots answers the way the original
// system would have produced them.
func (t *Tree) Reroot(newRoot graph.NodeID) *Tree {
	if !t.Contains(newRoot) {
		panic(fmt.Sprintf("jtt: Reroot(%d): node not in tree", newRoot))
	}
	if newRoot == t.root {
		return t
	}
	nt := t.Clone()
	// Reverse the parent pointers along the path from newRoot up to the
	// old root.
	var buf [16]graph.NodeID
	chain := append(buf[:0], newRoot)
	for v := newRoot; v != t.root; {
		v = t.parentOf(v)
		chain = append(chain, v)
	}
	for i := 0; i+1 < len(chain); i++ {
		nt.par[nt.Slot(chain[i+1])] = chain[i]
	}
	nt.par[nt.Slot(newRoot)] = newRoot
	nt.root = newRoot
	nt.setDepth()
	return nt
}

// CanonicalKey returns a string identifying the tree by its undirected node
// and edge sets, independent of rooting. The branch-and-bound search
// generates the same answer tree under several rootings and orderings; the
// top-k list dedupes on this key.
func (t *Tree) CanonicalKey() string { return string(t.AppendCanonicalKey(nil)) }

// AppendCanonicalKey appends the canonical key's bytes to dst and returns
// the extended slice, letting hot paths build keys into reused buffers. The
// format is CanonicalKey's exactly: sorted node IDs comma-joined, a '|'
// separator, then sorted min-max edge pairs "a-b" comma-joined.
func (t *Tree) AppendCanonicalKey(dst []byte) []byte {
	for i, v := range t.nodes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	dst = append(dst, '|')
	// Normalize and sort the edge pairs in a stack buffer (insertion sort:
	// the edge count is the node count minus one, small by construction).
	type pair struct{ a, b graph.NodeID }
	var ebuf [32]pair
	edges := ebuf[:0]
	if n := len(t.nodes) - 1; n > len(ebuf) {
		edges = make([]pair, 0, n)
	}
	for i, c := range t.nodes {
		if c == t.root {
			continue
		}
		p := pair{c, t.par[i]}
		if p.a > p.b {
			p.a, p.b = p.b, p.a
		}
		j := len(edges)
		edges = append(edges, p)
		for j > 0 && (edges[j-1].a > p.a || (edges[j-1].a == p.a && edges[j-1].b > p.b)) {
			edges[j] = edges[j-1]
			j--
		}
		edges[j] = p
	}
	for i, e := range edges {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(e.a), 10)
		dst = append(dst, '-')
		dst = strconv.AppendInt(dst, int64(e.b), 10)
	}
	return dst
}

// IsReduced reports whether the tree is a valid query answer per
// Definition 3: every leaf matches at least one query keyword, and the root
// matches one too when it has exactly one child. isNonFree reports keyword
// membership for a node. It does not allocate.
func (t *Tree) IsReduced(isNonFree func(graph.NodeID) bool) bool {
	rootChildren := 0
	for i, v := range t.nodes {
		if v != t.root && t.par[i] == t.root {
			rootChildren++
		}
		isLeaf := !t.hasChild(i) && (v != t.root || len(t.nodes) == 1)
		if isLeaf && !isNonFree(v) {
			return false
		}
	}
	if rootChildren == 1 && !isNonFree(t.root) {
		return false
	}
	return true
}

// Reduce returns the minimal reduced tree containing all of the given
// keeper nodes: free leaves (and free single-child roots) are pruned
// repeatedly.
func (t *Tree) Reduce(keep func(graph.NodeID) bool) *Tree {
	n := len(t.nodes)
	removed := make([]bool, n)
	alive := n
	root := t.root
	// parent of v in the pruned tree; the current root has none.
	parentAlive := func(i int) (int, bool) {
		if t.nodes[i] == root {
			return 0, false
		}
		return t.Slot(t.par[i]), true
	}
	childCount := func(v graph.NodeID) (int, graph.NodeID) {
		count := 0
		var last graph.NodeID
		for j := 0; j < n; j++ {
			if removed[j] || t.nodes[j] == root {
				continue
			}
			if pi, ok := parentAlive(j); ok && t.nodes[pi] == v {
				count++
				last = t.nodes[j]
			}
		}
		return count, last
	}
	for {
		changed := false
		for i := 0; i < n && alive > 1; i++ {
			if removed[i] {
				continue
			}
			v := t.nodes[i]
			if v == root {
				continue
			}
			if c, _ := childCount(v); c > 0 {
				continue
			}
			if !keep(v) {
				removed[i] = true
				alive--
				changed = true
			}
		}
		for {
			c, only := childCount(root)
			if c == 1 && !keep(root) {
				removed[t.Slot(root)] = true
				alive--
				root = only
				changed = true
				continue
			}
			break
		}
		if !changed {
			break
		}
	}
	nt := newTreeHeap(alive)
	k := 0
	for i := 0; i < n; i++ {
		if removed[i] {
			continue
		}
		nt.nodes[k] = t.nodes[i]
		if t.nodes[i] == root {
			nt.par[k] = root
		} else {
			nt.par[k] = t.par[i]
		}
		k++
	}
	nt.root = root
	nt.setDepth()
	return nt
}
