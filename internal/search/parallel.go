// This file holds the concurrency layer of the search package: the bounded
// parallel-for the branch-and-bound engine evaluates candidate batches with,
// and the scoring worker pool of the parallel naive path.
//
// # Why parallel results are byte-identical to sequential ones
//
// Everything order-dependent — canonical-key dedup, Stats counters, the
// priority queue, merge bookkeeping, and the top-k — is mutated only by the
// goroutine that called TopK/NaiveTopK, in an order fixed by the data, never
// by worker scheduling. Workers compute only pure functions of state that is
// immutable for the duration of the search: the RWMP model, the query
// context, the options, and the path index. The top-k additionally holds
// its entries in a total order (score desc, canonical key asc), so even
// where the naive pipeline commits scores in scheduling order, the retained
// list is the k least elements under that order regardless of arrival
// order. The determinism tests certify both properties empirically across
// randomized workloads.
package search

import (
	"sync"
	"sync/atomic"

	"cirank/internal/jtt"
)

// parallelFor runs f(0..n-1) across at most workers goroutines and returns
// when every call finished. With one worker (or a trivially small n) it runs
// inline, so the sequential path pays no synchronization. Iterations are
// claimed dynamically (shared cursor), which balances the skewed evaluation
// costs of candidate trees.
func parallelFor(n, workers int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// parallelForWorkers is parallelFor for callers that keep per-worker scratch:
// f additionally receives a worker index w in [0, workers) that is unique
// among concurrently running calls, so f may freely mutate the w-th scratch.
// The inline path uses w = 0.
func parallelForWorkers(n, workers int, f func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// naiveScorePipeline scores enumerated answer trees on a worker pool and
// folds them into a shared top-k. The enumeration goroutine feeds trees into
// a bounded channel; workers score (the expensive part — Eq. 4 walks every
// source pair's tree path) and insert under a mutex. Insertion order varies
// with scheduling, but the top-k's total order makes the final list
// insensitive to it; only Stats.Answers (the count of list-changing inserts)
// is scheduling-dependent in parallel naive runs.
type naiveScorePipeline struct {
	s     *Searcher
	qc    *queryContext
	trees chan *jtt.Tree
	wg    sync.WaitGroup

	mu      sync.Mutex
	top     *topK
	answers int
}

// newNaiveScorePipeline starts workers goroutines draining the tree channel.
func newNaiveScorePipeline(s *Searcher, qc *queryContext, top *topK, workers int) *naiveScorePipeline {
	p := &naiveScorePipeline{
		s:     s,
		qc:    qc,
		top:   top,
		trees: make(chan *jtt.Tree, 4*workers),
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for t := range p.trees {
				score := p.s.m.ScoreTree(t, p.qc.sourcesIn(t), p.qc.terms)
				p.mu.Lock()
				if p.top.add(t, score) {
					p.answers++
				}
				p.mu.Unlock()
			}
		}()
	}
	return p
}

// submit hands one enumerated tree to the pool.
func (p *naiveScorePipeline) submit(t *jtt.Tree) { p.trees <- t }

// close waits for all submitted trees to be scored and returns the number of
// list-changing inserts.
func (p *naiveScorePipeline) close() int {
	close(p.trees)
	p.wg.Wait()
	return p.answers
}
