package rwmp

import (
	"math"

	"cirank/internal/jtt"
)

// Flow is the message-flow table of one tree: everything Eq. 3/4 read from
// the data graph about it, looked up once. Slot i describes the tree node at
// position i of the tree's ascending node list (jtt.Tree.Slot). Every path
// factor, delivered count and node score of the tree is then a walk over the
// table — array reads, no graph probes — so the branch-and-bound search
// fills one Flow per candidate and evaluates both the exact score and the
// upper bound from it, and Model's tree-scoring methods are wrappers over a
// Flow of their own.
//
// The zero value is ready; SetTree refills it for another tree, reusing its
// storage.
type Flow struct {
	hops []hop
	root int
}

// hop is one tree node's row: where its parent sits, how deep it hangs, the
// two directed weights of the edge to its parent (0 when the tree claims a
// non-edge, which jtt.Attach allows — real weights are positive), its split
// denominator and its dampening rate.
type hop struct {
	par   int32
	depth int32
	up    float64 // w(node → parent)
	down  float64 // w(parent → node)
	// denom is Σ w(node → n) over the node's tree neighbours n, summed in
	// ascending-neighbour order: float addition is order-sensitive and the
	// scores are pinned bit for bit.
	denom float64
	damp  float64
	// upIn records that up already joined denom (flowInto's summing pass).
	upIn bool
}

// SetTree fills f for tree t under model m, reusing f's storage.
func (f *Flow) SetTree(m *Model, t *jtt.Tree) { *f = m.flowInto(f.hops[:0], t) }

// flowInto builds t's table in buf: one graph.Weights probe per tree edge,
// after which nothing touches the graph. Returning the table by value keeps
// a caller's stack buffer on the stack.
func (m *Model) flowInto(buf []hop, t *jtt.Tree) Flow {
	nodes, par := t.NodeView(), t.ParentView()
	root := t.Slot(t.Root())
	hops := buf
	for i, v := range nodes {
		h := hop{par: int32(root), damp: m.damp[v]}
		if i != root {
			h.par = int32(t.Slot(par[i]))
			h.up, h.down, _ = m.g.Weights(v, par[i])
		}
		hops = append(hops, h)
	}
	for i := range hops {
		d := int32(0)
		for j := i; j != root; j = int(hops[j].par) {
			d++
		}
		hops[i].depth = d
	}
	// One ascending pass sums every denominator in ascending-neighbour
	// order: slot j adds w(p→j) to its parent p's sum, and p's own parent
	// joins that sum just before p's first child that sorts after it — or
	// at the end, when no child does.
	for j := range hops {
		if j == root {
			continue
		}
		pi := int(hops[j].par)
		p := &hops[pi]
		if !p.upIn && pi != root && int(p.par) < j {
			p.denom += p.up
			p.upIn = true
		}
		p.denom += hops[j].down
	}
	for j := range hops {
		if h := &hops[j]; j != root && !h.upIn {
			h.denom += h.up
		}
	}
	return Flow{hops: hops, root: root}
}

// Root returns the slot of the tree's root.
func (f *Flow) Root() int { return f.root }

// RootDenom returns the root's split denominator: Σ w(root → child) over its
// tree children.
func (f *Flow) RootDenom() float64 { return f.hops[f.root].denom }

// Factor returns the multiplicative attenuation a message experiences
// travelling from slot src to slot dst along the tree path: the split
// fraction at every hop and the dampening rate at every intermediate node,
// multiplied in hop by hop from source to destination. It is 1 when
// src == dst and 0 if any required directed edge is missing.
func (f *Flow) Factor(src, dst int) float64 {
	if src == dst {
		return 1
	}
	hops := f.hops
	// The destination's side of the path is found climbing but travelled
	// descending; tree depth is bounded by ⌈D/2⌉, so the stack buffer covers
	// every practical diameter.
	var buf [16]int32
	down := buf[:0]
	factor := 1.0
	a, b := src, dst
	for a != b {
		da, db := hops[a].depth, hops[b].depth
		if db >= da {
			down = append(down, int32(b))
			b = int(hops[b].par)
		}
		if da >= db {
			h := &hops[a]
			if h.up == 0 {
				return 0
			}
			factor *= h.up / h.denom
			if a != src {
				factor *= h.damp
			}
			a = int(h.par)
		}
	}
	for k := len(down) - 1; k >= 0; k-- {
		c := int(down[k])
		w := hops[c].down
		if w == 0 {
			return 0
		}
		factor *= w / hops[a].denom
		if a != src {
			factor *= hops[a].damp
		}
		a = c
	}
	return factor
}

// Delivered returns how many of the count messages generated at slot src
// arrive at slot dst.
func (f *Flow) Delivered(count float64, src, dst int) float64 {
	if count == 0 || src == dst {
		return count
	}
	return count * f.Factor(src, dst)
}

// NodeScore evaluates Eq. 3 for the non-free node at slot v, which generates
// gen messages: the minimum delivered count over the other sources, listed as
// parallel slots and generation counts. When v is the only source, its score
// is its own generation count — this is what makes a single relevant node
// beat the free-node-dominated alternative in the paper's Fig. 4 example.
func (f *Flow) NodeScore(v int, gen float64, sources []int, gens []float64) float64 {
	minFlow := math.Inf(1)
	others := 0
	for k, s := range sources {
		if s == v {
			continue
		}
		others++
		if d := f.Delivered(gens[k], s, v); d < minFlow {
			minFlow = d
		}
	}
	if others == 0 {
		return gen
	}
	return minFlow
}

// ScoreSum returns Σ NodeScore over the sources, in the order listed: the
// numerator of Eq. 4.
func (f *Flow) ScoreSum(sources []int, gens []float64) float64 {
	sum := 0.0
	for k, s := range sources {
		sum += f.NodeScore(s, gens[k], sources, gens)
	}
	return sum
}
