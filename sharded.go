package cirank

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cirank/internal/graph"
	"cirank/internal/relational"
	"cirank/internal/search"
	"cirank/internal/shard"
	"cirank/internal/textindex"
)

// DefaultShardRadius is the halo depth ShardEngines uses when radius is 0.
// A radius-r shard set answers diameters up to 2·r exactly, so 3 covers the
// serving layer's diameter ceiling of 6 (DefaultConfig's IndexDepth).
const DefaultShardRadius = 3

// shardMeta records the slice of a partition plan one shard engine serves.
// It travels with the engine through snapshots (the "shard" section) so a
// reloaded shard set can be revalidated and recomposed.
type shardMeta struct {
	// Index and Count place the shard in its set.
	Index, Count int
	// Radius is the plan's halo depth; searches through the set are exact
	// for diameters up to 2·Radius.
	Radius int
	// Owned lists the shard's owned node IDs, ascending. The owned sets of
	// a composed set are disjoint and cover the whole ID space. The set is
	// not an interval in general; Lo and Hi only bound it.
	Owned []graph.NodeID
	// Lo and Hi delimit the half-open span [Lo, Hi) bounding Owned (equal
	// for an empty owned set).
	Lo, Hi graph.NodeID
	// TotalNodes and TotalEdges are the whole (pre-partitioning) graph's
	// sizes, reported by the coordinator as the set's corpus size.
	TotalNodes, TotalEdges int
}

// ShardInfo describes the partition slice a shard engine serves; see
// Engine.ShardInfo.
type ShardInfo struct {
	// Index and Count place the shard in its set.
	Index, Count int
	// Radius is the halo depth of the shard's plan.
	Radius int
	// OwnedLo and OwnedHi delimit the half-open node-ID span [OwnedLo,
	// OwnedHi) bounding the shard's owned set. The owned set is not an
	// interval in general — OwnedCount says how many IDs inside the span the
	// shard actually owns; the owned sets of a set partition the ID space.
	OwnedLo, OwnedHi int
	// OwnedCount is the number of nodes the shard owns.
	OwnedCount int
	// TotalNodes and TotalEdges are the sizes of the whole graph the shard
	// was partitioned from.
	TotalNodes, TotalEdges int
}

// ShardInfo reports the engine's place in a partitioned shard set, and
// whether it belongs to one at all (engines built by Builder.Build or loaded
// from an unpartitioned snapshot do not).
func (e *Engine) ShardInfo() (ShardInfo, bool) {
	if e.shard == nil {
		return ShardInfo{}, false
	}
	m := e.shard
	return ShardInfo{
		Index: m.Index, Count: m.Count, Radius: m.Radius,
		OwnedLo: int(m.Lo), OwnedHi: int(m.Hi), OwnedCount: len(m.Owned),
		TotalNodes: m.TotalNodes, TotalEdges: m.TotalEdges,
	}, true
}

// ShardEngines partitions e into count shard engines with the given halo
// radius (0 means DefaultShardRadius). Each shard owns one chunk of a
// Cuthill–McKee traversal of the graph — one tightly connected region, so the
// halo it replicates stays small (see internal/shard) — and each returned
// engine is a complete, independently usable Engine: it can be queried, saved
// and reopened like any other, serving the member-induced subgraph of its
// slice of the plan (owned set plus halo). The shards reuse e's global
// importance and dampening vectors, which is what makes their answer scores
// bitwise equal to e's; compose them with NewSharded to answer queries with
// e's exact rankings. e itself is not modified or consumed.
func ShardEngines(e *Engine, count, radius int) ([]*Engine, error) {
	return ShardEnginesContext(context.Background(), e, count, radius)
}

// ShardEnginesContext is ShardEngines bounded by ctx: cancellation aborts
// the per-shard index builds with an error wrapping ctx.Err().
func ShardEnginesContext(ctx context.Context, e *Engine, count, radius int) ([]*Engine, error) {
	if e.shard != nil {
		return nil, fmt.Errorf("%w: engine already serves shard %d of %d; partition the original engine instead", ErrShardSet, e.shard.Index, e.shard.Count)
	}
	if radius == 0 {
		radius = DefaultShardRadius
	}
	cfg := shard.Config{
		Count:      count,
		Radius:     radius,
		Importance: e.imp,
		Damp:       e.model.DampVector(),
		Params:     e.model.Params(),
		Workers:    e.workers,
	}
	if e.starIdx != nil {
		cfg.IsStar = e.starIdx.Parts().IsStar
		cfg.StarDepth = e.starIdx.MaxDepth()
	}
	plan, shards, err := shard.Build(ctx, e.g, cfg)
	if err != nil {
		return nil, err
	}
	engines := make([]*Engine, count)
	for i, sh := range shards {
		p := &plan.Parts[i]
		// Restrict the tuple mapping to member nodes so Importance on a
		// shard engine answers exactly for what the shard holds.
		var entries []relational.MappingEntry
		byKey := make(map[string]graph.NodeID)
		for _, me := range e.mapEntries {
			if p.Member[me.Node] {
				entries = append(entries, me)
				byKey[me.Table+"\x00"+me.Key] = me.Node
			}
		}
		lo, hi := p.Span()
		se := &Engine{
			g:          sh.G,
			ix:         sh.Ix,
			model:      sh.Model,
			searcher:   sh.Searcher,
			starIdx:    sh.Star,
			imp:        e.imp,
			workers:    e.workers,
			mapEntries: entries,
			lookup: func(table, key string) (graph.NodeID, bool) {
				id, ok := byKey[table+"\x00"+key]
				return id, ok
			},
			shard: &shardMeta{
				Index: i, Count: count, Radius: radius,
				Owned: p.Owned, Lo: lo, Hi: hi,
				TotalNodes: e.g.NumNodes(), TotalEdges: e.g.NumEdges(),
			},
			ownedDist: sh.OwnedDist,
		}
		se.buildStats.Source = SourceBuild
		se.buildStats.Workers = e.workers
		engines[i] = se
	}
	return engines, nil
}

// ShardedEngine answers queries over a set of shard engines with
// scatter-gather: every shard evaluates the query locally in parallel, and
// the coordinator merges the locally-optimal lists into the global top-k.
// Because each shard replicates a halo wide enough to contain every answer
// tree centered in its owned range, and scores trees with the whole graph's
// importance and dampening vectors, the merged ranking is byte-identical to
// running the same query on the unpartitioned engine — at every shard count
// and worker count. It is safe for concurrent use, like Engine.
type ShardedEngine struct {
	shards []*Engine
	radius int
	nodes  int
	edges  int
}

// NewSharded composes shard engines — from ShardEngines or OpenShardSet —
// into a scatter-gather coordinator. The engines must form exactly one
// complete set: one engine per shard index, in index order, all cut from the
// same graph with the same radius. Violations are reported with an error
// wrapping ErrShardSet. NewSharded only validates; it is cheap enough to
// call per request on an ad-hoc slice (the serving layer does, composing
// independently reloadable per-shard engines).
func NewSharded(engines []*Engine) (*ShardedEngine, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("%w: no engines", ErrShardSet)
	}
	first := engines[0].shard
	if first == nil {
		return nil, fmt.Errorf("%w: engine 0 is not a shard engine", ErrShardSet)
	}
	if first.Count != len(engines) {
		return nil, fmt.Errorf("%w: got %d engines for a set of %d shards", ErrShardSet, len(engines), first.Count)
	}
	// Ownership must partition the ID space: every node owned by exactly
	// one shard. The owner bitmap catches overlaps pairwise and the final
	// count catches gaps.
	owner := make([]bool, first.TotalNodes)
	covered := 0
	for i, e := range engines {
		m := e.shard
		if m == nil {
			return nil, fmt.Errorf("%w: engine %d is not a shard engine", ErrShardSet, i)
		}
		if m.Index != i {
			return nil, fmt.Errorf("%w: engine %d carries shard index %d; pass the set in index order", ErrShardSet, i, m.Index)
		}
		if m.Count != first.Count || m.Radius != first.Radius ||
			m.TotalNodes != first.TotalNodes || m.TotalEdges != first.TotalEdges {
			return nil, fmt.Errorf("%w: engine %d (count %d, radius %d, %d nodes) does not match engine 0 (count %d, radius %d, %d nodes)",
				ErrShardSet, i, m.Count, m.Radius, m.TotalNodes, first.Count, first.Radius, first.TotalNodes)
		}
		if e.g.NumNodes() != m.TotalNodes {
			return nil, fmt.Errorf("%w: engine %d holds %d nodes, want the full ID space of %d", ErrShardSet, i, e.g.NumNodes(), m.TotalNodes)
		}
		prev := graph.NodeID(-1)
		for _, v := range m.Owned {
			if v <= prev {
				return nil, fmt.Errorf("%w: engine %d owned set not strictly ascending at node %d", ErrShardSet, i, v)
			}
			prev = v
			if int(v) >= first.TotalNodes {
				return nil, fmt.Errorf("%w: engine %d owns node %d outside the %d-node ID space", ErrShardSet, i, v, first.TotalNodes)
			}
			if owner[v] {
				return nil, fmt.Errorf("%w: node %d owned by engine %d and an earlier engine", ErrShardSet, v, i)
			}
			owner[v] = true
			covered++
		}
	}
	if covered != first.TotalNodes {
		return nil, fmt.Errorf("%w: owned sets cover %d of %d nodes", ErrShardSet, covered, first.TotalNodes)
	}
	return &ShardedEngine{
		shards: engines,
		radius: first.Radius,
		nodes:  first.TotalNodes,
		edges:  first.TotalEdges,
	}, nil
}

// NumShards reports the number of shards in the set.
func (s *ShardedEngine) NumShards() int { return len(s.shards) }

// Radius reports the set's halo depth; queries are accepted for diameters
// up to 2·Radius.
func (s *ShardedEngine) Radius() int { return s.radius }

// Shard returns shard engine i, for per-shard diagnostics.
func (s *ShardedEngine) Shard(i int) *Engine { return s.shards[i] }

// Engines returns the shard engines in shard order, as a copy — for callers
// that manage the engines' lifecycles individually (the serving layer runs
// one hot-swappable provider per shard).
func (s *ShardedEngine) Engines() []*Engine {
	out := make([]*Engine, len(s.shards))
	copy(out, s.shards)
	return out
}

// NumNodes reports the size of the whole partitioned data graph (not the
// sum of the shards' halo-inflated subgraphs).
func (s *ShardedEngine) NumNodes() int { return s.nodes }

// NumEdges reports the directed edge count of the whole partitioned graph.
func (s *ShardedEngine) NumEdges() int { return s.edges }

// TermSelectivity reports how many graph nodes' text contains term, summing
// each shard's count over its owned node set only. Halo replicas are indexed
// by several shards but owned by exactly one, so the sum equals the
// unpartitioned engine's TermSelectivity exactly — the serving layer's
// cost-based admission prices a query identically whether it runs sharded or
// not.
func (s *ShardedEngine) TermSelectivity(term string) int {
	total := 0
	for _, e := range s.shards {
		m := e.shard
		if len(m.Owned) == int(m.Hi-m.Lo) {
			// The owned set is exactly its span (a one-shard set, or a chunk
			// that happens to be an interval): two binary searches beat the
			// postings merge.
			total += e.ix.DFRange(term, m.Lo, m.Hi)
		} else {
			total += e.ix.DFIn(term, m.Owned)
		}
	}
	return total
}

// Close closes every shard engine and returns the first error. The same
// in-flight-query caveat as Engine.Close applies to each shard.
func (s *ShardedEngine) Close() error {
	var first error
	for _, e := range s.shards {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Search tokenizes the query string and returns the global top-k answers;
// the sharded counterpart of Engine.Search.
func (s *ShardedEngine) Search(query string, k int) ([]Result, error) {
	res, err := s.SearchContext(context.Background(), query, k)
	return res.Results, err
}

// SearchContext tokenizes the query string and runs it under ctx with
// default options.
func (s *ShardedEngine) SearchContext(ctx context.Context, query string, k int) (SearchResult, error) {
	return s.SearchTermsContext(ctx, textindex.Tokenize(query), k, SearchOptions{})
}

// SearchTerms runs a query given pre-split terms and explicit options,
// uncancellable and without stats; SearchTermsContext is the full-fidelity
// form.
func (s *ShardedEngine) SearchTerms(terms []string, k int, opts SearchOptions) ([]Result, error) {
	res, err := s.SearchTermsContext(context.Background(), terms, k, opts)
	return res.Results, err
}

// SearchTermsContext runs one query as scatter-gather: every shard evaluates
// it concurrently over its subgraph (each leg resolving options exactly as
// Engine.SearchTermsContext would), and the shard lists merge under the global score order with
// overlap duplicates removed. The ranking is byte-identical to the
// unpartitioned engine's for every shard and worker count. The resolved
// diameter must not exceed 2×Radius — beyond that an answer tree could
// straddle shards and exactness would be lost, so the request is rejected
// with ErrBadOptions. Stats are aggregated across shards: work counters sum,
// Truncated and Interrupted OR together, except that a truncated shard whose
// remaining frontier provably cannot displace the merged top-k (its
// FrontierBound is below the k-th merged score) does not mark the result
// truncated. Cancellation follows the Engine.SearchTermsContext contract.
func (s *ShardedEngine) SearchTermsContext(ctx context.Context, terms []string, k int, opts SearchOptions) (SearchResult, error) {
	start := time.Now()
	// Validate once up front so a bad request fails before any scatter; the
	// per-shard legs re-resolve against their own ownedDist tables.
	sopts, err := s.shards[0].searchOptions(k, opts)
	if err != nil {
		return SearchResult{}, err
	}
	if sopts.Diameter > 2*s.radius {
		return SearchResult{}, fmt.Errorf("%w: Diameter %d exceeds the shard set's exactness horizon 2×radius = %d", ErrBadOptions, sopts.Diameter, 2*s.radius)
	}
	lists := make([][]search.Answer, len(s.shards))
	stats := make([]search.Stats, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, e := range s.shards {
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			so, err := e.searchOptions(k, opts)
			if err != nil {
				errs[i] = err
				return
			}
			lists[i], stats[i], errs[i] = e.searcher.TopKContext(ctx, terms, so)
		}(i, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return SearchResult{}, err
		}
	}
	refs, agg := shard.Gather(k, lists, stats)
	res := SearchResult{
		Results: make([]Result, len(refs)),
		Stats: SearchStats{
			Expanded:      agg.Expanded,
			Generated:     agg.Generated,
			Answers:       agg.Answers,
			Truncated:     agg.Truncated,
			Interrupted:   agg.Interrupted,
			FrontierBound: agg.FrontierBound,
			Elapsed:       time.Since(start),
		},
	}
	for j, r := range refs {
		e := s.shards[r.List]
		res.Results[j] = e.result(lists[r.List][r.Rank], terms)
	}
	return res, nil
}

// ShardSnapshotPath names the snapshot file of shard index within the set
// anchored at path: path plus a ".shard<index>" suffix. SaveShardSet and
// OpenShardSet agree on this layout.
func ShardSnapshotPath(path string, index int) string {
	return fmt.Sprintf("%s.shard%d", path, index)
}

// SaveShardSet writes one v2 snapshot per shard engine under the
// ShardSnapshotPath naming scheme. Each file is written to a temporary name
// in the same directory and renamed into place, so a reader never sees a
// partial snapshot.
func SaveShardSet(engines []*Engine, path string) error {
	if _, err := NewSharded(engines); err != nil {
		return err
	}
	for i, e := range engines {
		target := ShardSnapshotPath(path, i)
		tmp, err := os.CreateTemp(filepath.Dir(target), filepath.Base(target)+".tmp*")
		if err != nil {
			return err
		}
		err = e.Save(tmp)
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp.Name(), target)
		}
		if err != nil {
			os.Remove(tmp.Name())
			return err
		}
	}
	return nil
}

// OpenShardSet memory-maps every snapshot of the shard set anchored at path
// (see ShardSnapshotPath) and composes the engines into a ShardedEngine.
// The set size comes from shard 0's snapshot; a missing, corrupt or
// mismatched member fails the whole open with every already-opened shard
// closed. Close the returned engine when done, never mid-query (the shards
// alias their mappings; see Open).
func OpenShardSet(path string) (*ShardedEngine, error) {
	first, err := Open(ShardSnapshotPath(path, 0))
	if err != nil {
		return nil, err
	}
	if first.shard == nil {
		first.Close()
		return nil, fmt.Errorf("%w: %s is not a shard snapshot", ErrShardSet, ShardSnapshotPath(path, 0))
	}
	engines := []*Engine{first}
	for i := 1; i < first.shard.Count; i++ {
		e, err := Open(ShardSnapshotPath(path, i))
		if err == nil && e.shard == nil {
			e.Close()
			err = fmt.Errorf("%w: %s is not a shard snapshot", ErrShardSet, ShardSnapshotPath(path, i))
		}
		if err != nil {
			for _, prev := range engines {
				prev.Close()
			}
			return nil, err
		}
		engines = append(engines, e)
	}
	s, err := NewSharded(engines)
	if err != nil {
		for _, e := range engines {
			e.Close()
		}
		return nil, err
	}
	return s, nil
}
