package shard

import (
	"context"
	"fmt"

	"cirank/internal/graph"
	"cirank/internal/pathindex"
	"cirank/internal/rwmp"
	"cirank/internal/search"
	"cirank/internal/textindex"
)

// Config parameterizes Build. Importance, Damp and Params come from the
// whole-graph model: shards never recompute them, which is what keeps
// shard-local scores bitwise equal to global ones.
type Config struct {
	// Count is the number of shards, Radius the halo depth; see NewPlan.
	Count, Radius int
	// Importance is the global importance (PageRank) vector.
	Importance []float64
	// Damp is the global per-node dampening-rate vector (Eq. 2).
	Damp []float64
	// Params is the whole-graph model's RWMP parameters.
	Params rwmp.Params
	// IsStar optionally marks the star-table nodes; when set together with
	// StarDepth ≥ 1, each shard rebuilds a §V-B star index over its own
	// subgraph (any admissible index preserves exactness, so rankings do
	// not depend on it).
	IsStar []bool
	// StarDepth is the star-index horizon; 0 skips the per-shard index.
	StarDepth int
	// Workers bounds the per-shard index build fan-out (0 = one per CPU).
	Workers int
}

// Shard is one self-sufficient partition: the projected subgraph with its
// own text index, scoring model and searcher, ready to answer any query
// whose diameter fits the plan's radius.
type Shard struct {
	// Part is the shard's slice of the plan.
	Part Part
	// G is the member-induced subgraph in the global ID space.
	G *graph.Graph
	// Ix is the text index over G (only members carry text).
	Ix *textindex.Index
	// Model scores trees in G with the global importance and dampening
	// vectors.
	Model *rwmp.Model
	// Searcher runs the pooled branch-and-bound hot path over Model.
	Searcher *search.Searcher
	// Star is the shard-local §V-B index, nil when Config skipped it.
	Star *pathindex.StarIndex
	// OwnedDist holds each node's undirected hop distance to the shard's
	// owned set, measured over the shard subgraph and cut off at the plan
	// radius (-1 beyond it). Feeding it to search.Options.OwnedDist turns
	// on the frontier prune; the shard subgraph contains every owned-
	// centered answer tree whole, so subgraph distances never exceed
	// within-tree ones and the prune stays exact.
	OwnedDist []int32
}

// Build partitions g per cfg and assembles one Shard per part. The result
// is deterministic in (g, cfg).
func Build(ctx context.Context, g *graph.Graph, cfg Config) (*Plan, []*Shard, error) {
	n := g.NumNodes()
	if len(cfg.Importance) != n || len(cfg.Damp) != n {
		return nil, nil, fmt.Errorf("shard: importance/damp length mismatch with %d nodes", n)
	}
	plan, err := NewPlan(g, cfg.Count, cfg.Radius)
	if err != nil {
		return nil, nil, err
	}
	shards := make([]*Shard, cfg.Count)
	for i := range plan.Parts {
		p := &plan.Parts[i]
		sg := Project(g, p, cfg.Radius)
		ix, err := textindex.BuildContext(ctx, sg, cfg.Workers)
		if err != nil {
			return nil, nil, err
		}
		m, err := rwmp.NewFromParts(sg, ix, cfg.Importance, cfg.Damp, cfg.Params)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", i, err)
		}
		sh := &Shard{
			Part: *p, G: sg, Ix: ix, Model: m, Searcher: search.New(m),
			OwnedDist: OwnedDistances(sg, p.Owned, cfg.Radius),
		}
		if cfg.IsStar != nil && cfg.StarDepth >= 1 {
			// Star flags masked to members: halo-restricted edges keep the
			// vertex-cover property (removing edges never uncovers one),
			// and non-member nodes have no edges to cover.
			isStar := make([]bool, n)
			for v := range isStar {
				isStar[v] = cfg.IsStar[v] && p.Member[v]
			}
			star, err := pathindex.BuildStarContext(ctx, sg, cfg.Damp, isStar, cfg.StarDepth, cfg.Workers)
			if err != nil {
				return nil, nil, fmt.Errorf("shard %d star index: %w", i, err)
			}
			sh.Star = star
		}
		shards[i] = sh
	}
	return plan, shards, nil
}
