package search

import (
	"context"
	"fmt"
	"sort"

	"cirank/internal/graph"
	"cirank/internal/jtt"
)

// Enumeration caps for the naive algorithm. The paper's naive algorithm
// "can easily run out of memory" (§VI-C); these caps keep it merely slow
// rather than fatal while preserving its brute-force character.
const (
	maxPathsPerPair   = 64    // shortest paths enumerated per (root, source)
	maxCombosPerRoot  = 65536 // path combinations assembled per root
	maxSourceSetCombo = 65536 // per-term source choices per root
)

// NaiveTopK implements the naive search algorithm of §IV-A: breadth-first
// search from every non-free node to depth ⌈D/2⌉ recording all shortest-path
// predecessors, followed by assembling answer trees at every node reachable
// from a keyword-covering set of sources, scoring all of them, and keeping
// the top k.
//
// With Options.Workers > 1 the scoring of enumerated trees (the dominant
// cost) runs on a worker pool; the ranked answers are identical for every
// worker count because the enumeration — and hence the offered answer set —
// does not change and the top-k keeps a total order (see parallel.go). Only
// Stats.Answers may vary across parallel runs. NaiveTopK is safe for
// concurrent use.
//
// NaiveTopK is uncancellable; use NaiveTopKContext to bound a run.
func (s *Searcher) NaiveTopK(terms []string, opts Options) ([]Answer, Stats, error) {
	return s.NaiveTopKContext(context.Background(), terms, opts)
}

// NaiveTopKContext is NaiveTopK bounded by a context, with the same
// contract as TopKContext: ErrDeadline when ctx is already done on entry,
// and a prompt stop with the best answers found so far plus
// Stats.Interrupted when ctx expires mid-enumeration. The enumerator polls
// the context per candidate root, per source-set combination and per
// assembled path combination, so even a single hub root with a huge
// combination space cannot stall cancellation.
func (s *Searcher) NaiveTopKContext(ctx context.Context, terms []string, opts Options) ([]Answer, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, fmt.Errorf("%w: %w", ErrDeadline, err)
	}
	if err := opts.Validate(); err != nil {
		return nil, Stats{}, err
	}
	qc, ok, err := s.prepare(terms)
	if err != nil {
		return nil, Stats{}, err
	}
	if !ok {
		return nil, Stats{}, nil
	}
	top := newTopK(opts.K)
	var stats Stats
	done := ctx.Done()
	if nw := opts.workers(); nw > 1 {
		pipe := newNaiveScorePipeline(s, qc, top, nw)
		stats.Expanded, stats.Interrupted = s.enumerateNaive(qc, opts.Diameter, done, func(t *jtt.Tree) {
			stats.Generated++
			pipe.submit(t)
		})
		stats.Answers = pipe.close()
	} else {
		stats.Expanded, stats.Interrupted = s.enumerateNaive(qc, opts.Diameter, done, func(t *jtt.Tree) {
			stats.Generated++
			score := s.m.ScoreTree(t, qc.sourcesIn(t), qc.terms)
			if top.add(t, score) {
				stats.Answers++
			}
		})
	}
	return top.results(), stats, nil
}

// EnumerateAnswers returns up to limit distinct valid answers for the query
// (unscored, in no particular order). The effectiveness experiments use it
// as the shared candidate pool that every ranking method (CI-Rank, SPARK,
// BANKS) orders, mirroring the paper's §VI-B methodology of applying the
// baselines' scoring functions on the same database graph.
func (s *Searcher) EnumerateAnswers(terms []string, diameter, limit int) ([]*jtt.Tree, error) {
	qc, ok, err := s.prepare(terms)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	var out []*jtt.Tree
	seen := make(map[string]bool)
	_, _ = s.enumerateNaive(qc, diameter, nil, func(t *jtt.Tree) {
		if limit > 0 && len(out) >= limit {
			return
		}
		key := t.CanonicalKey()
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, t)
	})
	return out, nil
}

// stopped polls a context Done channel; a nil channel never fires.
func stopped(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// enumerateNaive runs the §IV-A procedure, invoking emit for every valid
// answer tree found (duplicates possible; callers dedupe). It returns the
// number of candidate roots processed — the algorithm's unit of work — and
// whether the done channel fired and stopped the enumeration early.
func (s *Searcher) enumerateNaive(qc *queryContext, diameter int, done <-chan struct{}, emit func(*jtt.Tree)) (int, bool) {
	g := s.m.Graph()
	halfD := halfDiameter(diameter)
	// Phase 1: BFS with all shortest-path predecessors from each non-free
	// node, and the reverse reachability map.
	bfs := make(map[graph.NodeID]*graph.BFSTree, len(qc.nonFree))
	reach := make(map[graph.NodeID][]graph.NodeID)
	for _, src := range qc.nonFree {
		t := g.BFSAllShortestPaths(src, halfD)
		bfs[src] = t
		for node := range t.Dist {
			reach[node] = append(reach[node], src)
		}
	}
	// Phase 2: for each potential root, assemble answers.
	roots := make([]graph.NodeID, 0, len(reach))
	for r := range reach {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	processed := 0
	for _, r := range roots {
		if stopped(done) {
			return processed, true
		}
		var coverage uint64
		for _, src := range reach[r] {
			coverage |= qc.masks[src]
		}
		if coverage != qc.full {
			continue
		}
		processed++
		s.assembleAtRoot(qc, r, reach[r], bfs, diameter, done, emit)
	}
	return processed, stopped(done)
}

// assembleAtRoot enumerates, for root r, the per-term source choices and
// the shortest-path combinations connecting them, emitting every valid
// reduced tree.
func (s *Searcher) assembleAtRoot(qc *queryContext, r graph.NodeID, sources []graph.NodeID, bfs map[graph.NodeID]*graph.BFSTree, diameter int, done <-chan struct{}, emit func(*jtt.Tree)) {
	// Per-term candidate sources reaching r.
	perTerm := make([][]graph.NodeID, len(qc.terms))
	for _, src := range sources {
		mask := qc.masks[src]
		for ti := range qc.terms {
			if mask&(uint64(1)<<ti) != 0 {
				perTerm[ti] = append(perTerm[ti], src)
			}
		}
	}
	// Enumerate per-term choices, deduplicating the resulting source sets.
	seenSets := make(map[string]bool)
	choice := make([]graph.NodeID, len(qc.terms))
	combos := 0
	var chooseTerm func(ti int)
	chooseTerm = func(ti int) {
		if combos >= maxSourceSetCombo || stopped(done) {
			return
		}
		if ti == len(qc.terms) {
			combos++
			set := dedupeSorted(choice)
			key := nodeSetKey(set)
			if seenSets[key] {
				return
			}
			seenSets[key] = true
			s.combinePaths(qc, r, set, bfs, diameter, done, emit)
			return
		}
		for _, src := range perTerm[ti] {
			choice[ti] = src
			chooseTerm(ti + 1)
		}
	}
	chooseTerm(0)
}

// combinePaths enumerates all shortest-path combinations from root r to each
// source and emits the combinations that form valid trees.
func (s *Searcher) combinePaths(qc *queryContext, r graph.NodeID, set []graph.NodeID, bfs map[graph.NodeID]*graph.BFSTree, diameter int, done <-chan struct{}, emit func(*jtt.Tree)) {
	paths := make([][][]graph.NodeID, len(set))
	for i, src := range set {
		paths[i] = shortestPaths(bfs[src], r, maxPathsPerPair)
		if len(paths[i]) == 0 {
			return // r not reachable from src (shouldn't happen)
		}
	}
	built := 0
	var build func(i int, parent map[graph.NodeID]graph.NodeID)
	build = func(i int, parent map[graph.NodeID]graph.NodeID) {
		if built >= maxCombosPerRoot || stopped(done) {
			return
		}
		if i == len(set) {
			built++
			tree := treeFromParents(r, parent)
			reduced := tree.Reduce(qc.isNonFree)
			if qc.validAnswer(reduced, diameter) {
				emit(reduced)
			}
			return
		}
		for _, path := range paths[i] {
			// path runs source → … → r; install child→parent pointers
			// pointing toward r, checking consistency with what previous
			// paths installed.
			next := make(map[graph.NodeID]graph.NodeID, len(parent)+len(path))
			for k, v := range parent {
				next[k] = v
			}
			okPath := true
			for j := 0; j+1 < len(path); j++ {
				child, par := path[j], path[j+1]
				if par == child {
					okPath = false
					break
				}
				if prev, exists := next[child]; exists {
					if prev != par {
						okPath = false
						break
					}
					continue
				}
				if child == r {
					okPath = false // path loops back through the root
					break
				}
				next[child] = par
			}
			if okPath && !cyclic(r, next) {
				build(i+1, next)
			}
		}
	}
	build(0, map[graph.NodeID]graph.NodeID{})
}

// shortestPaths expands the predecessor DAG of a BFS tree into explicit
// shortest paths, each returned in source-first order: path[0] is the BFS
// source, the last element is target. At most limit paths are returned.
func shortestPaths(t *graph.BFSTree, target graph.NodeID, limit int) [][]graph.NodeID {
	if _, ok := t.Dist[target]; !ok {
		return nil
	}
	var out [][]graph.NodeID
	var walk func(cur graph.NodeID, suffix []graph.NodeID)
	walk = func(cur graph.NodeID, suffix []graph.NodeID) {
		if len(out) >= limit {
			return
		}
		suffix = append(suffix, cur)
		if cur == t.Source {
			// suffix is target → … → source; reverse into source-first.
			path := make([]graph.NodeID, len(suffix))
			for i, v := range suffix {
				path[len(suffix)-1-i] = v
			}
			out = append(out, path)
			return
		}
		for _, p := range t.Preds[cur] {
			walk(p, suffix)
		}
	}
	walk(target, nil)
	return out
}

// treeFromParents materializes a jtt.Tree from a parent map rooted at r,
// installing nodes in dependency order (a node is attached once its parent
// is present). Entries that never connect to r are dropped.
func treeFromParents(r graph.NodeID, parent map[graph.NodeID]graph.NodeID) *jtt.Tree {
	t := jtt.NewSingle(r)
	remaining := make(map[graph.NodeID]graph.NodeID, len(parent))
	for k, v := range parent {
		remaining[k] = v
	}
	for len(remaining) > 0 {
		progress := false
		for child, par := range remaining {
			if t.Contains(child) {
				delete(remaining, child)
				progress = true
			} else if t.Contains(par) {
				t = t.MustAttach(child, par)
				delete(remaining, child)
				progress = true
			}
		}
		if !progress {
			break // disconnected remainder; drop it
		}
	}
	return t
}

// dedupeSorted returns the sorted distinct nodes of s.
func dedupeSorted(s []graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	j := 0
	for i := 0; i < len(out); i++ {
		if i == 0 || out[i] != out[i-1] {
			out[j] = out[i]
			j++
		}
	}
	return out[:j]
}

// nodeSetKey builds a map key for a sorted node set.
func nodeSetKey(set []graph.NodeID) string {
	b := make([]byte, 0, len(set)*4)
	for _, v := range set {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// cyclic reports whether following parent pointers from any node fails to
// reach r (indicating a cycle among the installed pointers).
func cyclic(r graph.NodeID, parent map[graph.NodeID]graph.NodeID) bool {
	for start := range parent {
		cur := start
		for steps := 0; cur != r; steps++ {
			next, ok := parent[cur]
			if !ok {
				return true // dangles without reaching the root
			}
			cur = next
			if steps > len(parent) {
				return true
			}
		}
	}
	return false
}
