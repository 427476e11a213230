package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"cirank/internal/mmapio"
)

// This file exposes the graph's CSR layout for the sectioned snapshot
// format: the offsets, flat edge and out-weight-sum arrays are written as
// raw little-endian sections and, on load, viewed zero-copy from the mapped
// file. The wire layout of one edge mirrors the in-memory HalfEdge struct on
// 64-bit platforms — to i32 | pad u32 (zero) | weight f64, 16 bytes — so an
// aligned section can be reinterpreted as []HalfEdge without decoding.

// halfEdgeWireSize is the on-disk size of one edge record.
const halfEdgeWireSize = 16

// halfEdgeZeroCopyOK reports whether the in-memory HalfEdge layout matches
// the wire layout (true on 64-bit platforms; 32-bit x86 packs the float at
// offset 4 and must decode copies).
var halfEdgeZeroCopyOK = unsafe.Sizeof(HalfEdge{}) == halfEdgeWireSize &&
	unsafe.Offsetof(HalfEdge{}.Weight) == 8

// CSR exposes the graph's raw layout: the CSR offsets (len NumNodes+1), the
// flat edge array (len NumEdges, sorted by destination within each node's
// range) and the per-node out-weight sums. The slices alias the graph's
// internal — possibly memory-mapped — storage and must not be modified.
func (g *Graph) CSR() (offsets []int32, edges []HalfEdge, outSum []float64) {
	return g.offsets, g.flat, g.outSum
}

// FromCSR assembles a Graph directly from its frozen layout, validating
// every structural invariant Build would have established: offsets must be a
// monotonic [0, len(edges)] ramp, each adjacency list strictly sorted by
// destination with in-range targets, no self-loops, positive finite weights,
// outSum must equal the sorted-order weight sum exactly (the same summation
// order Build uses, so a valid snapshot matches bit-for-bit), and every edge
// must have its reverse. The slices are retained, not copied: callers
// loading from a mapped file keep the graph zero-copy. Only the reverse
// index, found by the same pass that checks the pairing, is allocated.
func FromCSR(nodes []Node, offsets []int32, edges []HalfEdge, outSum []float64) (*Graph, error) {
	n := len(nodes)
	if len(offsets) != n+1 {
		return nil, fmt.Errorf("graph: CSR has %d offsets for %d nodes", len(offsets), n)
	}
	if len(outSum) != n {
		return nil, fmt.Errorf("graph: CSR has %d out-sums for %d nodes", len(outSum), n)
	}
	if n > 0 && offsets[0] != 0 {
		return nil, fmt.Errorf("graph: CSR offsets start at %d, want 0", offsets[0])
	}
	if len(offsets) > 0 && int(offsets[n]) != len(edges) {
		return nil, fmt.Errorf("graph: CSR offsets end at %d for %d edges", offsets[n], len(edges))
	}
	for i := 0; i < n; i++ {
		lo, hi := offsets[i], offsets[i+1]
		if lo > hi || lo < 0 || int(hi) > len(edges) {
			return nil, fmt.Errorf("graph: CSR offsets of node %d are [%d, %d)", i, lo, hi)
		}
		sum := 0.0
		prev := NodeID(-1)
		for _, e := range edges[lo:hi] {
			if e.To <= prev {
				return nil, fmt.Errorf("graph: adjacency of node %d not strictly sorted at target %d", i, e.To)
			}
			prev = e.To
			if int(e.To) >= n || e.To < 0 {
				return nil, fmt.Errorf("graph: edge %d→%d target out of range", i, e.To)
			}
			if e.To == NodeID(i) {
				return nil, fmt.Errorf("graph: self-loop on node %d", i)
			}
			if !(e.Weight > 0) || math.IsInf(e.Weight, 1) {
				return nil, fmt.Errorf("graph: edge %d→%d has invalid weight %g", i, e.To, e.Weight)
			}
			sum += e.Weight
		}
		if outSum[i] != sum {
			return nil, fmt.Errorf("graph: node %d out-sum %g does not match edge sum %g", i, outSum[i], sum)
		}
	}
	for i := range nodes {
		if nodes[i].Words < 0 {
			return nil, fmt.Errorf("graph: node %d has negative word count %d", i, nodes[i].Words)
		}
	}
	rev, err := reverses(offsets, edges)
	if err != nil {
		return nil, err
	}
	return &Graph{nodes: nodes, offsets: offsets, flat: edges, outSum: outSum, rev: rev}, nil
}

// reverses pairs every edge of a sorted CSR layout with its reverse: rev[k]
// is the flat index of the edge running back along edge k. Sources visited
// in ascending order meet v's in-neighbours in ascending order, and with
// every reverse present those are exactly v's sorted out-list: one cursor
// per node pairs them in a pass. Each edge advances one cursor, so no cursor
// can stop short of its list's end. It fails at the first edge whose reverse
// is missing.
func reverses(offsets []int32, edges []HalfEdge) ([]int32, error) {
	n := len(offsets) - 1
	rev := make([]int32, len(edges))
	next := make([]int32, n)
	copy(next, offsets)
	for u := 0; u < n; u++ {
		for k := offsets[u]; k < offsets[u+1]; k++ {
			v := edges[k].To
			c := next[v]
			if c == offsets[v+1] || edges[c].To != NodeID(u) {
				return nil, fmt.Errorf("graph: edge %d→%d has no reverse", u, v)
			}
			rev[k] = c
			next[v] = c + 1
		}
	}
	return rev, nil
}

// AppendEdges appends the wire encoding of edges to dst: 16 bytes per edge,
// matching the in-memory layout so loaders can alias the section.
func AppendEdges(dst []byte, edges []HalfEdge) []byte {
	for _, e := range edges {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.To))
		dst = binary.LittleEndian.AppendUint32(dst, 0)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Weight))
	}
	return dst
}

// EdgesFromBytes views b (AppendEdges wire bytes) as a []HalfEdge, aliasing
// b's memory when alias is true and the platform layout permits, decoding a
// copy otherwise. len(b) must be a multiple of 16; the caller validates
// counts beforehand.
func EdgesFromBytes(b []byte, alias bool) []HalfEdge {
	n := len(b) / halfEdgeWireSize
	if alias && halfEdgeZeroCopyOK && mmapio.CanZeroCopy() && edgeAligned(b) {
		if n == 0 {
			return nil
		}
		return unsafe.Slice((*HalfEdge)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]HalfEdge, n)
	for i := range out {
		rec := b[i*halfEdgeWireSize:]
		out[i].To = NodeID(binary.LittleEndian.Uint32(rec))
		out[i].Weight = math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
	}
	return out
}

// edgeAligned reports whether b is aligned for a HalfEdge view.
func edgeAligned(b []byte) bool {
	if len(b) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(HalfEdge{}) == 0
}
