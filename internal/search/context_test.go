package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// denseFixture builds a layered graph: 3 "alpha" nodes, three complete-
// bipartite-connected layers of m free connector nodes, and 3 "beta" nodes.
// Every alpha–beta answer threads m² interchangeable connector pairs with
// near-equal importance, so upper bounds barely prune and the branch-and-
// bound frontier (and the naive algorithm's path-combination space) grows
// combinatorially — the workload the cancellation tests need: uncapped, it
// generates about 9m³ trees and runs far past the test deadlines.
func denseFixture(t testing.TB, m int) *fixture {
	n := 6 + 3*m
	texts := make([]string, n)
	imp := make([]float64, n)
	rng := rand.New(rand.NewSource(11))
	for i := range texts {
		switch {
		case i < 3:
			texts[i] = "alpha"
		case i < 6:
			texts[i] = "beta"
		default:
			texts[i] = fmt.Sprintf("free%d", i)
		}
		imp[i] = 1 + rng.Float64()
	}
	layer := func(l int) []int { // l = 0..2
		out := make([]int, m)
		for i := range out {
			out[i] = 6 + l*m + i
		}
		return out
	}
	// One direct alpha–beta edge: a 2-node complete answer lands in the
	// first expansion batch, so an interrupted search always has a
	// best-so-far answer to return no matter how early the context fires.
	// It does not shrink the frontier — the layered middle still feeds it.
	edges := [][2]int{{0, 3}}
	for _, v := range layer(0) {
		for a := 0; a < 3; a++ {
			edges = append(edges, [2]int{a, v})
		}
	}
	for _, u := range layer(0) {
		for _, v := range layer(1) {
			edges = append(edges, [2]int{u, v})
		}
	}
	for _, u := range layer(1) {
		for _, v := range layer(2) {
			edges = append(edges, [2]int{u, v})
		}
	}
	for _, v := range layer(2) {
		for b := 3; b < 6; b++ {
			edges = append(edges, [2]int{v, b})
		}
	}
	return build(t, texts, imp, edges)
}

// TestCancelMidSearch is the ISSUE's cancellation certification: an
// uncapped (MaxExpansions 0 = unlimited) branch-and-bound query on a dense
// graph must return promptly once the context fires, at Workers 1 and 4,
// reporting Stats.Interrupted with a nil error.
func TestCancelMidSearch(t *testing.T) {
	fx := denseFixture(t, 120)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// 500ms: long enough for the first complete answers to land
			// even at the race detector's ~10x slowdown, and far under the
			// uncancelled runtime. Uncancelled, m = 120 generates about
			// 15.6M trees; on a 2-core x86-64 VM a 5 s deadline (10x this
			// one) still interrupted it at 6.0M, with 4 workers. (m = 40
			// finished in 0.39 s there, m = 60 in 1.25 s.)
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			start := time.Now()
			answers, stats, err := fx.s.TopKContext(ctx, []string{"alpha", "beta"},
				Options{K: 30, Diameter: 4, MaxExpansions: 0, Workers: workers})
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Interrupted {
				t.Fatal("uncapped dense search finished before the deadline; grow the fixture")
			}
			if !math.IsInf(stats.FrontierBound, 1) {
				t.Errorf("interrupted search certified FrontierBound %g, want +Inf", stats.FrontierBound)
			}
			// "Promptly": well under the seconds-to-forever uncancelled
			// runtime. 5s leaves headroom for -race and loaded CI machines.
			if elapsed > 5*time.Second {
				t.Errorf("cancelled search took %v", elapsed)
			}
			if len(answers) == 0 {
				t.Error("interrupted search returned no best-so-far answers")
			}
		})
	}
}

// TestNaiveCancelMidSearch repeats the certification for the naive §IV-A
// algorithm, whose per-root combination spaces are the stall risk.
func TestNaiveCancelMidSearch(t *testing.T) {
	fx := denseFixture(t, 30)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, stats, err := fx.s.NaiveTopKContext(ctx, []string{"alpha", "beta"},
				Options{K: 30, Diameter: 4, Workers: workers})
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Interrupted {
				t.Fatal("naive search finished before the deadline; grow the fixture")
			}
			if elapsed > 5*time.Second {
				t.Errorf("cancelled naive search took %v", elapsed)
			}
		})
	}
}

// TestDeadContextRejected: a context that is already done yields ErrDeadline
// (wrapping the context's own error) and no work.
func TestDeadContextRejected(t *testing.T) {
	fx := fig2Fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, call := range []struct {
		name string
		run  func() error
	}{
		{"TopKContext", func() error {
			_, _, err := fx.s.TopKContext(ctx, []string{"ullman"}, Options{K: 1, Diameter: 4})
			return err
		}},
		{"NaiveTopKContext", func() error {
			_, _, err := fx.s.NaiveTopKContext(ctx, []string{"ullman"}, Options{K: 1, Diameter: 4})
			return err
		}},
	} {
		err := call.run()
		if !errors.Is(err, ErrDeadline) {
			t.Errorf("%s: err = %v, want ErrDeadline", call.name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v does not wrap context.Canceled", call.name, err)
		}
	}
}

// TestContextPlumbingPreservesRankings: with a context that never fires,
// TopKContext must be byte-identical to TopK at every worker count.
func TestContextPlumbingPreservesRankings(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		fx := randomFixture(t, rng)
		terms := []string{"alpha", "beta"}
		want, wantStats, err := fx.s.TopK(terms, Options{K: 4, Diameter: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, gotStats, err := fx.s.TopKContext(context.Background(), terms,
				Options{K: 4, Diameter: 4, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			answersEqual(t, fmt.Sprintf("trial %d workers %d", trial, workers), want, got)
			if gotStats != wantStats {
				t.Errorf("trial %d workers %d: stats %+v, want %+v", trial, workers, gotStats, wantStats)
			}
		}
	}
}

// TestTypedErrors pins the sentinel classification of every validation
// failure the serving layer maps to HTTP status codes.
func TestTypedErrors(t *testing.T) {
	fx := fig2Fixture(t)
	if _, _, err := fx.s.TopK([]string{"ullman"}, Options{K: 0, Diameter: 4}); !errors.Is(err, ErrBadK) {
		t.Errorf("K=0: err = %v, want ErrBadK", err)
	}
	if _, _, err := fx.s.TopK([]string{""}, Options{K: 1, Diameter: 4}); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("blank query: err = %v, want ErrEmptyQuery", err)
	}
	for _, opts := range []Options{
		{K: 1, Diameter: -1},
		{K: 1, Diameter: 4, MaxExpansions: -1},
		{K: 1, Diameter: 4, Workers: -2},
	} {
		if _, _, err := fx.s.TopK([]string{"ullman"}, opts); !errors.Is(err, ErrBadOptions) {
			t.Errorf("opts %+v: err = %v, want ErrBadOptions", opts, err)
		}
	}
}
