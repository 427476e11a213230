// Package rwmp implements the paper's primary contribution: the Random Walk
// with Message Passing model (§III) and the CI-Rank scoring function built
// on it (Eq. 2–4).
//
// Given global node importance values p (from internal/pagerank), the model
// scores a joined tuple tree T for query Q as follows:
//
//  1. Message generation: every non-free node v_i emits
//     r_ii = t · p_i · |v_i ∩ Q| / |v_i| messages of its own type, where
//     t = 1/p_min is the total surfer population.
//  2. Message passing: messages travel along the unique tree path toward
//     every other node. Leaving a node u toward tree-neighbour w, the
//     surviving count is multiplied by the split fraction
//     w_uw / Σ_{n∈N(u)∩V(T)} w_un — the denominator covers all tree
//     neighbours of u, including the one the message arrived from, because
//     messages sent back along the incoming edge are discarded.
//  3. Message dampening: at every intermediate node u the count is further
//     multiplied by the dampening rate
//     d_u = 1 − (1−α)^(1 + log_g(p_u / p_min))      (Eq. 2)
//     which grows monotonically (and logarithmically) with u's importance:
//     important connector nodes preserve more of the signal.
//  4. Node score: a non-free node's score is the count of its least
//     populous incoming message type (Eq. 3); the tree score is the mean
//     node score over the non-free nodes in T (Eq. 4).
package rwmp

import (
	"fmt"
	"math"

	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/textindex"
)

// Params are the two knobs of the dampening function (§III-C.2): Alpha, the
// probability a surfer keeps the messages during an in-node talk, and Group,
// the number of listeners g per talk. The paper's defaults, chosen in its
// Fig. 6/7 sweeps, are α = 0.15 and g = 20.
type Params struct {
	// Alpha is α, the per-talk message-retention probability.
	Alpha float64
	// Group is g, the number of listeners reached by one talk.
	Group float64
}

// DefaultParams returns the paper's chosen operating point.
func DefaultParams() Params { return Params{Alpha: 0.15, Group: 20} }

// Validate checks the parameters are in their mathematical domain. The
// comparisons are phrased so that NaN (for which every ordered comparison is
// false) is rejected too — snapshot loading feeds this raw float bits.
func (p Params) Validate() error {
	if !(p.Alpha > 0 && p.Alpha < 1) {
		return fmt.Errorf("rwmp: alpha %g outside (0, 1)", p.Alpha)
	}
	if !(p.Group > 1) || math.IsInf(p.Group, 1) {
		return fmt.Errorf("rwmp: group size %g must be finite and exceed 1", p.Group)
	}
	return nil
}

// Model scores joined tuple trees under RWMP. It is immutable after New and
// safe for concurrent use.
type Model struct {
	g      *graph.Graph
	ix     *textindex.Index
	params Params
	imp    []float64 // node importance p_i
	t      float64   // total surfers, 1/p_min
	damp   []float64 // precomputed dampening rate per node
}

// New builds a model over g with the given importance vector (one entry per
// node, a probability distribution as produced by pagerank.Compute).
func New(g *graph.Graph, ix *textindex.Index, importance []float64, params Params) (*Model, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(importance) != g.NumNodes() {
		return nil, fmt.Errorf("rwmp: importance has %d entries for %d nodes", len(importance), g.NumNodes())
	}
	damp, pmin, err := dampRates(importance, params)
	if err != nil {
		return nil, err
	}
	return newModel(g, ix, params, importance, pmin, damp), nil
}

// NewFromParts builds a model from importance and dampening vectors that
// were computed earlier and persisted — the snapshot fast path, which must
// skip the per-node Eq. 2 evaluation entirely. The vectors are retained, not
// copied (they may alias a memory-mapped snapshot section) and validated
// structurally: lengths must match the graph, importance values must be
// positive and finite, and every damp rate must lie in (0, 1). p_min is
// derived from the importance vector, exactly as New would.
func NewFromParts(g *graph.Graph, ix *textindex.Index, importance, damp []float64, params Params) (*Model, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(importance) != g.NumNodes() {
		return nil, fmt.Errorf("rwmp: importance has %d entries for %d nodes", len(importance), g.NumNodes())
	}
	if len(damp) != g.NumNodes() {
		return nil, fmt.Errorf("rwmp: damp has %d entries for %d nodes", len(damp), g.NumNodes())
	}
	pmin := math.Inf(1)
	for _, p := range importance {
		if !(p > 0) || math.IsInf(p, 1) {
			return nil, fmt.Errorf("rwmp: importance %g is not a positive finite value", p)
		}
		if p < pmin {
			pmin = p
		}
	}
	for i, d := range damp {
		if !(d > 0 && d < 1) {
			return nil, fmt.Errorf("rwmp: damp rate %g of node %d outside (0, 1)", d, i)
		}
	}
	return newModel(g, ix, params, importance, pmin, damp), nil
}

// newModel assembles a model from validated parts.
func newModel(g *graph.Graph, ix *textindex.Index, params Params, importance []float64, pmin float64, damp []float64) *Model {
	return &Model{g: g, ix: ix, params: params, imp: importance, t: 1 / pmin, damp: damp}
}

// dampRates validates params and importance and evaluates Eq. 2 per node,
// also reporting p_min.
func dampRates(importance []float64, params Params) ([]float64, float64, error) {
	if err := params.Validate(); err != nil {
		return nil, 0, err
	}
	pmin := math.Inf(1)
	for _, p := range importance {
		// The negated comparison also rejects NaN; infinities would poison
		// the p/p_min ratios of Eq. 2 downstream.
		if !(p > 0) || math.IsInf(p, 1) {
			return nil, 0, fmt.Errorf("rwmp: importance %g is not a positive finite value", p)
		}
		if p < pmin {
			pmin = p
		}
	}
	damp := make([]float64, len(importance))
	for i := range damp {
		damp[i] = dampRate(params, importance[i], pmin)
	}
	return damp, pmin, nil
}

// dampRate evaluates Eq. 2: d = 1 − (1−α)^(1 + log_g(p/p_min)). The result
// is clamped strictly below 1: for large α and very important nodes the
// power term underflows and floating point would round the rate up to
// exactly 1, but Eq. 2's dampening is strictly lossy.
func dampRate(params Params, p, pmin float64) float64 {
	exponent := 1 + math.Log(p/pmin)/math.Log(params.Group)
	d := 1 - math.Pow(1-params.Alpha, exponent)
	if max := math.Nextafter(1, 0); d > max {
		d = max
	}
	return d
}

// Params returns the model's dampening parameters.
func (m *Model) Params() Params { return m.params }

// Graph returns the underlying data graph.
func (m *Model) Graph() *graph.Graph { return m.g }

// Index returns the text index the model matches keywords with.
func (m *Model) Index() *textindex.Index { return m.ix }

// Damp returns the dampening rate d_v of Eq. 2.
func (m *Model) Damp(v graph.NodeID) float64 { return m.damp[v] }

// DampVector returns the model's full per-node dampening-rate vector. The
// slice aliases internal storage and must not be modified; snapshotting uses
// it to persist the rates so a reload can skip re-evaluating Eq. 2.
func (m *Model) DampVector() []float64 { return m.damp }

// Generation returns r_vv = t · p_v · |v ∩ Q| / |v|, the number of messages
// node v generates for the query; zero for free nodes or empty nodes.
func (m *Model) Generation(v graph.NodeID, queryTerms []string) float64 {
	words := m.g.Node(v).Words
	if words == 0 {
		return 0
	}
	match := m.ix.QueryMatchCount(v, queryTerms)
	if match == 0 {
		return 0
	}
	return m.t * m.imp[v] * float64(match) / float64(words)
}

// flowBuf sizes the stack buffers the tree-scoring wrappers below hand their
// Flow, so scoring a tree of the usual size (a diameter-4 answer has at most
// a handful of nodes) allocates nothing.
const flowBuf = 8

// slotOf returns v's slot in t, panicking when v is not a tree node.
func slotOf(t *jtt.Tree, v graph.NodeID) int {
	i := t.Slot(v)
	if i < 0 {
		panic(fmt.Sprintf("rwmp: node %d absent from tree", v))
	}
	return i
}

// sourceRows appends each source's tree slot and generation count to the two
// parallel buffers.
func (m *Model) sourceRows(slots []int, gens []float64, t *jtt.Tree, sources []graph.NodeID, queryTerms []string) ([]int, []float64) {
	for _, s := range sources {
		slots = append(slots, slotOf(t, s))
		gens = append(gens, m.Generation(s, queryTerms))
	}
	return slots, gens
}

// Delivered returns f_{src→dst}: the number of src-type messages arriving at
// dst after traveling the unique tree path, including src's generation
// count. Returns Generation(src) when src == dst.
func (m *Model) Delivered(t *jtt.Tree, src, dst graph.NodeID, queryTerms []string) float64 {
	count := m.Generation(src, queryTerms)
	if count == 0 || src == dst {
		return count
	}
	return count * m.PathFactor(t, src, dst)
}

// PathFactor returns the multiplicative attenuation a message experiences
// traveling from src to dst along the tree path: the product of split
// fractions at every hop and dampening rates at every intermediate node.
// It is 1 when src == dst and 0 if any required directed edge is missing.
func (m *Model) PathFactor(t *jtt.Tree, src, dst graph.NodeID) float64 {
	if src == dst {
		return 1
	}
	var hb [flowBuf]hop
	f := m.flowInto(hb[:0], t)
	return f.Factor(slotOf(t, src), slotOf(t, dst))
}

// NodeScore evaluates Eq. 3 for a non-free node v of tree t: the minimum
// delivered count over the other non-free nodes (sources), or v's own
// generation count when it is the only source (see Flow.NodeScore).
func (m *Model) NodeScore(t *jtt.Tree, v graph.NodeID, sources []graph.NodeID, queryTerms []string) float64 {
	var (
		hb [flowBuf]hop
		sb [flowBuf]int
		gb [flowBuf]float64
	)
	f := m.flowInto(hb[:0], t)
	slots, gens := m.sourceRows(sb[:0], gb[:0], t, sources, queryTerms)
	return f.NodeScore(slotOf(t, v), m.Generation(v, queryTerms), slots, gens)
}

// ScoreTree evaluates Eq. 4: the mean node score over the tree's non-free
// nodes. sources must be exactly the non-free nodes of t with respect to the
// query (nodes matching at least one term); passing them explicitly lets the
// search reuse its bookkeeping. Returns 0 for an empty source set.
func (m *Model) ScoreTree(t *jtt.Tree, sources []graph.NodeID, queryTerms []string) float64 {
	if len(sources) == 0 {
		return 0
	}
	var (
		hb [flowBuf]hop
		sb [flowBuf]int
		gb [flowBuf]float64
	)
	f := m.flowInto(hb[:0], t)
	slots, gens := m.sourceRows(sb[:0], gb[:0], t, sources, queryTerms)
	return f.ScoreSum(slots, gens) / float64(len(sources))
}

// SourcesIn returns the non-free nodes of t for the query, in ascending
// order.
func (m *Model) SourcesIn(t *jtt.Tree, queryTerms []string) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range t.NodeView() {
		if m.ix.QueryMatchCount(v, queryTerms) > 0 {
			out = append(out, v)
		}
	}
	return out
}

// Score is the convenience entry point: determines the tree's non-free
// nodes and evaluates Eq. 4.
func (m *Model) Score(t *jtt.Tree, queryTerms []string) float64 {
	return m.ScoreTree(t, m.SourcesIn(t, queryTerms), queryTerms)
}
