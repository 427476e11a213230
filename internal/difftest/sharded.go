package difftest

import (
	"context"
	"fmt"

	"cirank/internal/search"
	"cirank/internal/shard"
)

// Shard axis: the scatter-gather engine must be byte-identical to the
// sequential single-engine branch-and-bound at every shard count. The
// partitions replicate a halo of shardRadius undirected hops, so every
// query diameter the generator emits (2–4 ≤ 2·shardRadius) is within the
// exactness horizon.
const shardRadius = 2

// shardCounts are the partition sizes the axis certifies; 1 additionally
// pins that a single-shard projection reproduces the original graph's
// behaviour bit for bit.
var shardCounts = []int{1, 2, 4}

// checkSharded partitions the workload graph at every certified shard count
// and cross-checks the coordinator's merged top-k against the sequential
// single-engine ranking for every query — demanding bitwise-equal scores and
// identical tree order. Per plan it covers the sequential leg with
// the frontier prune on and off (the prune only drops trees another shard
// also finds, so rankings must not move), plus parallel workers and the
// per-shard star indexes with the prune on, as deployed.
func checkSharded(w *Workload) error {
	for _, count := range shardCounts {
		_, shards, err := shard.Build(context.Background(), w.Graph, shard.Config{
			Count:      count,
			Radius:     shardRadius,
			Importance: w.Imp,
			Damp:       w.Damp,
			Params:     w.Params,
			IsStar:     w.IsStar,
			StarDepth:  maxIndexDepth,
			Workers:    1,
		})
		if err != nil {
			return fmt.Errorf("shard build (count %d): %v", count, err)
		}
		set := shard.NewSet(shards)
		noPruneSet := shard.NewSet(shards)
		noPruneSet.NoPrune = true
		for qi, q := range w.Queries {
			base := search.Options{K: q.K, Diameter: q.Diameter, Workers: 1, ExtendedMerge: true}
			bb, _, err := w.Searcher.TopK(q.Terms, base)
			if err != nil {
				return fmt.Errorf("query %d %v: bb: %v", qi, q.Terms, err)
			}
			variants := []struct {
				name string
				set  *shard.Set
				opts search.Options
			}{
				{"sequential", set, base},
				{"sequential/noprune", noPruneSet, base},
				{"parallel(4)", set, func() search.Options { o := base; o.Workers = 4; return o }()},
				{"star-index", set, func() search.Options { o := base; o.Index = w.StarIdx; return o }()},
			}
			for _, v := range variants {
				got, stats, err := v.set.TopK(q.Terms, v.opts)
				if err != nil {
					return fmt.Errorf("query %d %v: sharded(%d) %s: %v", qi, q.Terms, count, v.name, err)
				}
				if err := answersEqual(got, bb, 0); err != nil {
					return fmt.Errorf("query %d %v: sharded(%d) %s vs sequential bb: %w",
						qi, q.Terms, count, v.name, err)
				}
				if stats.Truncated || stats.Interrupted {
					return fmt.Errorf("query %d %v: sharded(%d) %s reported a partial run on an uncapped search",
						qi, q.Terms, count, v.name)
				}
			}
		}
	}
	return nil
}
