package cirank

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// denseEngine builds, through the public API, a layered graph whose
// branch-and-bound frontier grows combinatorially: 3 "alpha" tuples, three
// complete-bipartite layers of m connector tuples, 3 "beta" tuples. With
// MaxExpansions -1 an uncancelled query generates about 9m³ trees and runs
// far past the test deadlines.
func denseEngine(t *testing.T, m int) *Engine {
	t.Helper()
	b, err := NewBuilder(
		[]string{"Node"},
		[]Relationship{{Name: "link", From: "Node", To: "Node"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("n%d", i) }
	for i := 0; i < 3; i++ {
		b.MustInsert("Node", key(i), "alpha")
	}
	for i := 3; i < 6; i++ {
		b.MustInsert("Node", key(i), "beta")
	}
	for i := 6; i < 6+3*m; i++ {
		b.MustInsert("Node", key(i), fmt.Sprintf("free%d", i))
	}
	// A direct alpha–beta edge gives a 2-node answer as soon as the search
	// pops either end of it, among its first pops, long before the deadline.
	b.MustRelate("link", key(0), key(3))
	layer := func(l int) []int {
		out := make([]int, m)
		for i := range out {
			out[i] = 6 + l*m + i
		}
		return out
	}
	for _, v := range layer(0) {
		for a := 0; a < 3; a++ {
			b.MustRelate("link", key(a), key(v))
		}
	}
	for _, u := range layer(0) {
		for _, v := range layer(1) {
			b.MustRelate("link", key(u), key(v))
		}
	}
	for _, u := range layer(1) {
		for _, v := range layer(2) {
			b.MustRelate("link", key(u), key(v))
		}
	}
	for _, v := range layer(2) {
		for bb := 3; bb < 6; bb++ {
			b.MustRelate("link", key(v), key(bb))
		}
	}
	eng, err := b.Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestConfigValidation: Alpha and Teleport have no zero sentinel any more —
// an explicit 0 (including the zero Config) is rejected with ErrBadConfig
// instead of being silently rewritten to the paper defaults.
func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero config", func(c *Config) { *c = Config{} }},
		{"alpha zero", func(c *Config) { c.Alpha = 0 }},
		{"alpha above one", func(c *Config) { c.Alpha = 1.5 }},
		{"teleport zero", func(c *Config) { c.Teleport = 0 }},
		{"teleport one", func(c *Config) { c.Teleport = 1 }},
		{"negative group", func(c *Config) { c.Group = -1 }},
		{"negative index depth", func(c *Config) { c.IndexDepth = -2 }},
		{"feedback mix above one", func(c *Config) { c.FeedbackMix = 1.5 }},
		{"negative workers", func(c *Config) { c.Workers = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewDBLPBuilder()
			b.MustInsert("Author", "a1", "smith")
			cfg := base
			tc.mutate(&cfg)
			if _, err := b.Build(cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("Build(%+v) err = %v, want ErrBadConfig", cfg, err)
			}
		})
	}
	// Group keeps its documented zero sentinel.
	b := NewDBLPBuilder()
	b.MustInsert("Author", "a1", "smith")
	cfg := base
	cfg.Group = 0
	if _, err := b.Build(cfg); err != nil {
		t.Errorf("Group: 0 sentinel rejected: %v", err)
	}
}

// TestSearchContextCancellation: an uncapped query aborts promptly when the
// per-query context expires, returning the best answers found so far with
// Stats.Interrupted. The query runs on the calling goroutine; the subtests
// run it at GOMAXPROCS 1 and 4, so in the first the timer that fires the
// context competes with it for one P.
func TestSearchContextCancellation(t *testing.T) {
	eng := denseEngine(t, 120)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			// 500ms leaves room for the first answers to land under -race,
			// and is far under the uncancelled runtime: m = 120 generates
			// about 15.6M trees, and on a 2-core x86-64 VM a 5 s deadline
			// (10x this one) still interrupted it at 5.2M. (m = 40
			// finished in 0.54 s there.)
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			start := time.Now()
			res, err := eng.SearchTermsContext(ctx, []string{"alpha", "beta"}, 10, SearchOptions{MaxExpansions: -1})
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stats.Interrupted || !res.Stats.Partial() {
				t.Fatalf("stats %+v: uncapped dense query finished before the 500ms deadline", res.Stats)
			}
			if elapsed > 5*time.Second {
				t.Errorf("cancelled query took %v", elapsed)
			}
			if len(res.Results) == 0 {
				t.Error("interrupted query returned no best-so-far answers")
			}
		})
	}
}

// TestSearchContextStats: the context API surfaces the stats the plain API
// discards, and agrees with it answer-for-answer.
func TestSearchContextStats(t *testing.T) {
	eng := fig2Engine(t, DefaultConfig())
	plain, err := eng.Search("papakonstantinou ullman", 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.SearchContext(context.Background(), "papakonstantinou ullman", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(plain) {
		t.Fatalf("context API returned %d answers, plain %d", len(res.Results), len(plain))
	}
	for i := range plain {
		if res.Results[i].Score != plain[i].Score {
			t.Errorf("answer %d: score %g vs plain %g", i, res.Results[i].Score, plain[i].Score)
		}
	}
	st := res.Stats
	if st.Expanded <= 0 || st.Generated <= 0 || st.Answers <= 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if st.Truncated || st.Interrupted || st.Partial() {
		t.Errorf("complete search flagged partial: %+v", st)
	}
	if st.Elapsed <= 0 {
		t.Errorf("Elapsed = %v", st.Elapsed)
	}
}

// TestSearchArgumentErrors pins the typed sentinels of the public API.
func TestSearchArgumentErrors(t *testing.T) {
	eng := fig2Engine(t, DefaultConfig())
	ctx := context.Background()
	if _, err := eng.SearchContext(ctx, "ullman", 0); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0: err = %v, want ErrBadK", err)
	}
	if _, err := eng.SearchContext(ctx, "   ", 3); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("blank query: err = %v, want ErrEmptyQuery", err)
	}
	if _, err := eng.SearchTermsContext(ctx, []string{"ullman"}, 3, SearchOptions{MaxExpansions: -2}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("MaxExpansions=-2: err = %v, want ErrBadOptions", err)
	}
	if _, err := eng.SearchTermsContext(ctx, []string{"ullman"}, 3, SearchOptions{Diameter: -1}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("Diameter=-1: err = %v, want ErrBadOptions", err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.SearchContext(dead, "ullman", 3); !errors.Is(err, ErrDeadline) || !errors.Is(err, context.Canceled) {
		t.Errorf("dead context: err = %v, want ErrDeadline wrapping context.Canceled", err)
	}
}
