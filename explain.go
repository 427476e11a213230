package cirank

import (
	"fmt"
	"strings"

	"cirank/internal/graph"
	"cirank/internal/textindex"
)

// NodeDetail explains one row of a result under the RWMP model.
type NodeDetail struct {
	// Importance is the node's global random-walk importance p_v (Eq. 1).
	Importance float64
	// Dampening is the node's message retention rate d_v (Eq. 2); messages
	// passing through this node keep this fraction.
	Dampening float64
	// Generation is the number of messages the node emits for this query
	// (Eq. 3's r_vv); zero for free nodes.
	Generation float64
	// Score is the node's Eq. 3 score — the count of its least populous
	// incoming message type — for keyword-matching nodes; zero otherwise.
	Score float64
}

// FlowDetail is one delivered message count between two keyword-matching
// rows of a result.
type FlowDetail struct {
	// From and To index Result.Rows.
	From, To int
	// Delivered is the message count of From's type arriving at To after
	// splits and dampening along the tree path.
	Delivered float64
}

// Explanation decomposes a result's score into the RWMP quantities that
// produced it: per-node importance, dampening and generation, and the
// pairwise message flows whose minima define the node scores (Eq. 3) whose
// mean is the answer score (Eq. 4).
type Explanation struct {
	// Score is the explained result's score (Eq. 4).
	Score float64
	// Nodes parallels Result.Rows.
	Nodes []NodeDetail
	// Flows lists delivered counts between every ordered pair of
	// keyword-matching rows.
	Flows []FlowDetail
}

// Explain recomputes the score breakdown of a result returned by Search or
// SearchTerms for the same query.
func (e *Engine) Explain(r Result, query string) (*Explanation, error) {
	return e.ExplainTerms(r, textindex.Tokenize(query))
}

// ExplainTerms is Explain with pre-split terms.
func (e *Engine) ExplainTerms(r Result, terms []string) (*Explanation, error) {
	if r.tree == nil {
		return nil, fmt.Errorf("cirank: result was not produced by this process's Search")
	}
	ex := &Explanation{Score: r.Score}
	var sources []graph.NodeID
	sourceRow := make(map[graph.NodeID]int)
	for i, v := range r.nodes {
		if e.ix.QueryMatchCount(v, terms) > 0 {
			sources = append(sources, v)
			sourceRow[v] = i
		}
	}
	for _, v := range r.nodes {
		d := NodeDetail{
			Importance: e.imp[v],
			Dampening:  e.model.Damp(v),
			Generation: e.model.Generation(v, terms),
		}
		if e.ix.QueryMatchCount(v, terms) > 0 {
			d.Score = e.model.NodeScore(r.tree, v, sources, terms)
		}
		ex.Nodes = append(ex.Nodes, d)
	}
	for _, src := range sources {
		for _, dst := range sources {
			if src == dst {
				continue
			}
			ex.Flows = append(ex.Flows, FlowDetail{
				From:      sourceRow[src],
				To:        sourceRow[dst],
				Delivered: e.model.Delivered(r.tree, src, dst, terms),
			})
		}
	}
	return ex, nil
}

// String renders the explanation as a small human-readable report.
func (ex *Explanation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "answer score %.6g (mean of matched-node scores)\n", ex.Score)
	for i, n := range ex.Nodes {
		fmt.Fprintf(&sb, "  node %d: importance=%.3g damp=%.3f", i, n.Importance, n.Dampening)
		if n.Generation > 0 {
			fmt.Fprintf(&sb, " generates=%.4g score=%.4g", n.Generation, n.Score)
		}
		sb.WriteByte('\n')
	}
	for _, f := range ex.Flows {
		fmt.Fprintf(&sb, "  flow %d→%d delivered=%.4g\n", f.From, f.To, f.Delivered)
	}
	return sb.String()
}
