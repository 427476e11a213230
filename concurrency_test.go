package cirank

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// concurrencyEngine builds a moderately connected DBLP-style engine with the
// parallel/caching knobs on.
func concurrencyEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	b := NewDBLPBuilder()
	for i := 0; i < 40; i++ {
		b.MustInsert("Author", fmt.Sprintf("a%d", i), fmt.Sprintf("author number%d", i))
	}
	for i := 0; i < 90; i++ {
		key := fmt.Sprintf("p%d", i)
		b.MustInsert("Paper", key, fmt.Sprintf("paper title number%d", i))
		b.MustRelate("written_by", key, fmt.Sprintf("a%d", i%40))
		b.MustRelate("written_by", key, fmt.Sprintf("a%d", (i+7)%40))
		if i > 0 {
			b.MustRelate("cites", key, fmt.Sprintf("p%d", i/2))
		}
	}
	eng, err := b.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineSearchConcurrent exercises the documented Engine contract —
// Search is safe for concurrent use — under the parallel evaluator and the
// shared scratch pool. Run with -race (the CI workflow and `make
// race` do) this is the synchronization certificate; in any mode it also
// checks all goroutines observe identical rankings and identical work
// counters.
func TestEngineSearchConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 4
	eng := concurrencyEngine(t, cfg)
	queries := []string{
		"number3 number10",
		"number1 number2",
		"author paper",
		"number5",
	}
	reference := make([]SearchResult, len(queries))
	for i, q := range queries {
		res, err := eng.SearchContext(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		reference[i] = res
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				res, err := eng.SearchContext(context.Background(), q, 5)
				if err != nil {
					errs <- err
					return
				}
				res.Stats.Elapsed = reference[i].Stats.Elapsed // wall time, the one field that may differ
				if res.Stats != reference[i].Stats {
					errs <- fmt.Errorf("query %q: stats %+v, want %+v", q, res.Stats, reference[i].Stats)
					return
				}
				if len(res.Results) != len(reference[i].Results) {
					errs <- fmt.Errorf("query %q: %d results, want %d", q, len(res.Results), len(reference[i].Results))
					return
				}
				for j, r := range res.Results {
					if want := reference[i].Results[j]; r.Score != want.Score || fmt.Sprint(r.Rows) != fmt.Sprint(want.Rows) {
						errs <- fmt.Errorf("query %q rank %d: %v scoring %v, want %v scoring %v",
							q, j, r.Rows, r.Score, want.Rows, want.Score)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWorkerCountsAgreeEndToEnd pins the public API to the determinism
// guarantee: the same engine data built with Workers 1, 2 and 8 must
// return identical rankings and scores.
func TestWorkerCountsAgreeEndToEnd(t *testing.T) {
	var reference []Result
	for _, workers := range []int{1, 2, 8} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		eng := concurrencyEngine(t, cfg)
		res, err := eng.Search("number3 number10", 5)
		if err != nil {
			t.Fatal(err)
		}
		if reference == nil {
			reference = res
			continue
		}
		if len(res) != len(reference) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(res), len(reference))
		}
		for j := range res {
			if res[j].Score != reference[j].Score {
				t.Errorf("workers=%d rank %d: score %v, want %v", workers, j, res[j].Score, reference[j].Score)
			}
			if fmt.Sprint(res[j].Rows) != fmt.Sprint(reference[j].Rows) {
				t.Errorf("workers=%d rank %d: rows differ", workers, j)
			}
		}
	}
}
