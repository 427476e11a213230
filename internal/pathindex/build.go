package pathindex

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cirank/internal/graph"
)

// sourceChunk is how many sources a worker claims per counter increment —
// large enough to keep contention on the shared counter negligible, small
// enough that skewed per-source costs still balance.
const sourceChunk = 16

// resolveWorkers maps the shared worker knob to a concrete fan-out:
// 0 means one worker per available CPU (matching cirank.Config.Workers),
// and the fan-out never exceeds the number of sources.
func resolveWorkers(workers, sources int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > sources {
		workers = sources
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// forEachSource runs one bounded traversal per source node across workers
// goroutines and hands each finished traversal to emit. Every invocation of
// emit receives the worker-local scratch holding that source's results; emit
// implementations write only the source's own row of the output tables, so
// rows are disjoint and the build needs no synchronization beyond the work
// counter. Because each traversal is deterministic and rows are disjoint,
// the produced tables are byte-identical for every worker count.
//
// Cancellation is checked once per claimed chunk; a cancelled build returns
// an error wrapping ctx.Err() and the output must be discarded.
func forEachSource(ctx context.Context, g *graph.Graph, damp []float64, maxDepth, workers, numSources int, sourceAt func(i int) graph.NodeID, emit func(s *bfsScratch, src graph.NodeID)) error {
	if numSources == 0 {
		return nil
	}
	workers = resolveWorkers(workers, numSources)
	run := func(s *bfsScratch, lo, hi int) {
		for i := lo; i < hi; i++ {
			src := sourceAt(i)
			boundedStatsInto(s, g, src, maxDepth, damp)
			emit(s, src)
		}
	}
	if workers == 1 {
		s := newBFSScratch(g.NumNodes())
		for lo := 0; lo < numSources; lo += sourceChunk {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("pathindex: build cancelled: %w", err)
			}
			hi := lo + sourceChunk
			if hi > numSources {
				hi = numSources
			}
			run(s, lo, hi)
		}
		return nil
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		cancel atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newBFSScratch(g.NumNodes())
			for {
				if ctx.Err() != nil {
					cancel.Store(true)
					return
				}
				lo := int(next.Add(sourceChunk)) - sourceChunk
				if lo >= numSources {
					return
				}
				hi := lo + sourceChunk
				if hi > numSources {
					hi = numSources
				}
				run(s, lo, hi)
			}
		}()
	}
	wg.Wait()
	if cancel.Load() {
		return fmt.Errorf("pathindex: build cancelled: %w", ctx.Err())
	}
	return nil
}

// MemStats reports an index's in-memory footprint, so the naive-vs-star size
// comparison of §V can be read off a server startup log.
type MemStats struct {
	// Entries is the number of stored (source, target) statistic pairs.
	Entries int
	// Bytes estimates the heap bytes held by the index's tables.
	Bytes int64
}
