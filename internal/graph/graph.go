// Package graph implements the weighted directed data graph that CI-Rank
// operates on. Following §II-A of the paper, a database is modeled as a graph
// G = (V, E): every tuple becomes a node, and every foreign-key reference
// from tuple t_i to tuple t_j becomes a pair of directed edges ⟨v_i, v_j⟩ and
// ⟨v_j, v_i⟩, generally with different weights (readers of a citing paper are
// more likely to follow the citation forward than backward).
//
// Every edge has its reverse (the two weights may differ). That is an
// invariant of *Graph, enforced where one is made: Builder adds edges only in
// pairs (AddBiEdge), and FromCSR refuses a layout with an edge whose reverse
// is missing. Code reading a graph may rely on it.
//
// The graph is immutable after construction via Builder, which lets the
// adjacency lists be stored as contiguous sorted slices — compact and cheap
// to binary-search, which matters because the search algorithms in
// internal/search probe edges heavily — and every edge be paired with its
// reverse's index, so a probe for both directions searches one list.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a node in a Graph. IDs are dense: a graph with n nodes
// uses IDs 0..n-1.
type NodeID int32

// InvalidNode is returned by lookups that find no node.
const InvalidNode NodeID = -1

// Node carries the tuple-level information the ranking models need: which
// relation the tuple belongs to (for IR statistics and star-table logic),
// its text content (for keyword matching), and its word count |v| (the
// denominator of the RWMP message-generation formula).
type Node struct {
	// Relation is the name of the table this tuple belongs to.
	Relation string
	// Key is the tuple's primary key rendered as a string; used for
	// display and for joining results back to the relational store.
	Key string
	// Text is the concatenation of the tuple's text attributes.
	Text string
	// Words is the number of tokens in Text, i.e. |v| in the paper's
	// message-generation formula r_ii = t·p_i·|v_i∩Q|/|v_i|.
	Words int
}

// HalfEdge is one directed edge as seen from its source node.
type HalfEdge struct {
	// To is the edge's destination node.
	To NodeID
	// Weight is the edge's positive weight.
	Weight float64
}

// Graph is an immutable weighted directed graph. Construct one with Builder.
type Graph struct {
	nodes []Node
	// out[i] holds the outgoing edges of node i, sorted by destination.
	// offsets/flat is a CSR layout: out edges of node i are
	// flat[offsets[i]:offsets[i+1]].
	offsets []int32
	flat    []HalfEdge
	// outSum[i] caches the total outgoing weight of node i, used both for
	// random-walk normalization and for RWMP split denominators.
	outSum []float64
	// rev[k] is the flat index of edge k's reverse: flat[k] runs u→v and
	// flat[rev[k]] runs v→u. It lives on the heap only — derived from the
	// layout wherever a graph is made, never written to a snapshot.
	rev []int32
}

// NumNodes reports the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports the number of directed edges in the graph.
func (g *Graph) NumEdges() int { return len(g.flat) }

// Node returns the node record for id. It panics if id is out of range,
// matching slice semantics; callers hold IDs produced by this graph.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// OutEdges returns the outgoing edges of id, sorted by destination. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) OutEdges(id NodeID) []HalfEdge {
	return g.flat[g.offsets[id]:g.offsets[id+1]]
}

// OutDegree reports the number of outgoing edges of id.
func (g *Graph) OutDegree(id NodeID) int {
	return int(g.offsets[id+1] - g.offsets[id])
}

// OutWeightSum reports the total weight of the outgoing edges of id.
func (g *Graph) OutWeightSum(id NodeID) float64 { return g.outSum[id] }

// Weight returns the weight of the directed edge from → to, and whether the
// edge exists.
func (g *Graph) Weight(from, to NodeID) (float64, bool) {
	w, _, ok := g.Weights(from, to)
	return w, ok
}

// Weights returns the weights of the edge a → b and of its reverse b → a,
// and whether the pair exists (every edge has its reverse, so both do or
// neither does). It binary-searches only the shorter of the two adjacency
// lists and reads the other direction through the reverse index, so a probe
// between a hub and a leaf costs the leaf's degree, not the hub's.
func (g *Graph) Weights(a, b NodeID) (ab, ba float64, ok bool) {
	from, to := a, b
	if g.OutDegree(b) < g.OutDegree(a) {
		from, to = b, a
	}
	lo, hi := g.offsets[from], g.offsets[from+1]
	// Hand-rolled rather than sort.Search: scoring probes every tree edge,
	// and the closure call per step showed in its profile.
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if g.flat[mid].To < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == g.offsets[from+1] || g.flat[lo].To != to {
		return 0, 0, false
	}
	ab, ba = g.flat[lo].Weight, g.flat[g.rev[lo]].Weight
	if from != a {
		ab, ba = ba, ab
	}
	return ab, ba, true
}

// ReverseWeight returns the weight of the reverse of id's i-th out-edge: for
// e = OutEdges(id)[i], the weight of e.To → id. It reads the reverse index,
// so a loop over a node's out-edges gets both directions without a probe.
func (g *Graph) ReverseWeight(id NodeID, i int) float64 {
	return g.flat[g.rev[int(g.offsets[id])+i]].Weight
}

// HasEdge reports whether the directed edge from → to exists.
func (g *Graph) HasEdge(from, to NodeID) bool {
	_, ok := g.Weight(from, to)
	return ok
}

// Builder accumulates nodes and edges and produces an immutable Graph.
// Builders are not safe for concurrent use.
type Builder struct {
	nodes []Node
	// edges records every directed edge in call order, repeats included;
	// Build sorts them and keeps the last call for each pair.
	edges []builderEdge
}

// builderEdge is one directed edge as AddBiEdge recorded it.
type builderEdge struct {
	from, to NodeID
	weight   float64
}

// NewBuilder returns an empty Builder. If sizeHint > 0 it preallocates for
// that many nodes.
func NewBuilder(sizeHint int) *Builder {
	b := &Builder{}
	if sizeHint > 0 {
		b.nodes = make([]Node, 0, sizeHint)
	}
	return b
}

// AddNode appends a node and returns its ID.
func (b *Builder) AddNode(n Node) NodeID {
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, n)
	return id
}

// NumNodes reports how many nodes have been added so far.
func (b *Builder) NumNodes() int { return len(b.nodes) }

// Node returns a mutable reference to a node already added, letting callers
// (e.g. the relational builder's entity-merging pass) amend text or word
// counts before Build.
func (b *Builder) Node(id NodeID) *Node { return &b.nodes[id] }

// GrowEdges makes room for pairs more AddBiEdge calls, so a caller that
// knows how many it will make spares the builder repeated reallocation.
func (b *Builder) GrowEdges(pairs int) {
	b.edges = slices.Grow(b.edges, 2*pairs)
}

// AddBiEdge adds both directed edges between a and c with per-direction
// weights, the paper's modeling of a foreign-key relationship, and the only
// way to add an edge. Adding a pair that already exists overwrites both
// weights. It panics if either endpoint does not exist or a weight is not
// positive and finite; a self-loop (a == c) is dropped.
func (b *Builder) AddBiEdge(a, c NodeID, weightAC, weightCA float64) {
	b.addEdge(a, c, weightAC)
	b.addEdge(c, a, weightCA)
}

// addEdge records the directed edge from → to: one half of AddBiEdge.
func (b *Builder) addEdge(from, to NodeID, weight float64) {
	if int(from) >= len(b.nodes) || int(to) >= len(b.nodes) || from < 0 || to < 0 {
		panic(fmt.Sprintf("graph: AddBiEdge(%d, %d) with %d nodes", from, to, len(b.nodes)))
	}
	if !(weight > 0) || math.IsInf(weight, 1) {
		panic(fmt.Sprintf("graph: AddBiEdge(%d, %d) with weight %g", from, to, weight))
	}
	if from == to {
		// Self-loops carry no information for either the random walk
		// or message passing; drop them.
		return
	}
	b.edges = append(b.edges, builderEdge{from: from, to: to, weight: weight})
}

// Build freezes the builder into an immutable Graph. The builder must not be
// used afterwards.
func (b *Builder) Build() *Graph {
	n := len(b.nodes)
	g := &Graph{
		nodes:   b.nodes,
		offsets: make([]int32, n+1),
		outSum:  make([]float64, n),
	}
	// Sort by (source, destination); a pair's calls keep their call order,
	// so the last of them is the one kept below.
	edges := b.edges
	SortByNodePair(edges, n,
		func(e *builderEdge) NodeID { return e.from },
		func(e *builderEdge) NodeID { return e.to })
	g.flat = make([]HalfEdge, 0, len(edges))
	for i, e := range edges {
		if i+1 < len(edges) && edges[i+1].from == e.from && edges[i+1].to == e.to {
			continue // a later call for this pair overwrote the weight
		}
		g.flat = append(g.flat, HalfEdge{To: e.to, Weight: e.weight})
		g.offsets[e.from+1] = int32(len(g.flat))
		// Sum in ascending-destination order, never in call order: float
		// addition is order-sensitive, and OutWeightSum feeds random-walk
		// normalization and RWMP split denominators, so a wandering last
		// ULP here would make "identical" builds score answers differently.
		g.outSum[e.from] += e.weight
	}
	// A node without out-edges ends where its predecessor ends.
	for i := 1; i <= n; i++ {
		g.offsets[i] = max(g.offsets[i], g.offsets[i-1])
	}
	rev, err := reverses(g.offsets, g.flat)
	if err != nil {
		panic(err) // unreachable: AddBiEdge adds edges only in pairs
	}
	g.rev = rev
	b.nodes = nil
	b.edges = nil
	return g
}

// SortByNodePair sorts s by (first, second), node IDs below n, keeping the
// order of equal pairs: two stable counting sorts, O(len(s) + n).
func SortByNodePair[T any](s []T, n int, first, second func(*T) NodeID) {
	tmp := make([]T, len(s))
	countingSort(tmp, s, n, second)
	countingSort(s, tmp, n, first)
}

// countingSort writes src into dst ordered by key, a node ID below n,
// keeping the order of equal keys.
func countingSort[T any](dst, src []T, n int, key func(*T) NodeID) {
	next := make([]int, n+1)
	for i := range src {
		next[key(&src[i])+1]++
	}
	for k := 1; k <= n; k++ {
		next[k] += next[k-1]
	}
	for i := range src {
		k := key(&src[i])
		dst[next[k]] = src[i]
		next[k]++
	}
}
