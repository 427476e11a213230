package search_test

import (
	"slices"
	"testing"

	"cirank/internal/difftest"
	"cirank/internal/search"
)

// TestGrownTreesAreUnique holds the argument that lets grown trees skip the
// seen set (bb.go, process) over the difftest workloads, at every query's
// diameter and at 5 and 6, under both merge rules: no two grown trees of a
// query are equal, and none equals a merged tree. A collision would be a
// candidate the search evaluated, queued or merged twice, which the old
// seen set rejected.
func TestGrownTreesAreUnique(t *testing.T) {
	var grownTotal, mergedTotal int
	for seed := int64(0); seed < fieldSeeds; seed++ {
		w, err := difftest.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			for _, d := range []int{q.Diameter, 5, 6} {
				for _, extended := range []bool{false, true} {
					opts := search.Options{K: q.K, Diameter: d, ExtendedMerge: extended}
					grown, merged, err := w.Searcher.GeneratedTrees(q.Terms, opts)
					if err != nil {
						t.Fatal(err)
					}
					var grownSet, all search.TreeSet
					for _, m := range merged {
						if !all.Add(m) {
							t.Fatalf("seed %d query %v %+v: merged tree %s generated twice", seed, q.Terms, opts, m.CanonicalKey())
						}
					}
					for _, g := range grown {
						if !grownSet.Add(g) {
							t.Fatalf("seed %d query %v %+v: grown tree %s rooted at %d generated twice", seed, q.Terms, opts, g.CanonicalKey(), g.Root())
						}
						if !all.Add(g) {
							t.Fatalf("seed %d query %v %+v: grown tree %s rooted at %d equals a merged one", seed, q.Terms, opts, g.CanonicalKey(), g.Root())
						}
					}
					grownTotal += len(grown)
					mergedTotal += len(merged)
				}
			}
		}
	}
	t.Logf("%d grown and %d merged trees, all distinct", grownTotal, mergedTotal)
	if grownTotal < 10000 || mergedTotal < 1000 {
		t.Fatalf("too few trees to hold the argument: %d grown, %d merged", grownTotal, mergedTotal)
	}
}

// TestTwoTermMergesNeverRepeat holds the argument that lets merges skip the
// seen set under the strict rule with at most two terms (bb.go, process) over
// the difftest workloads, at every such query's diameter and at 5 and 6: no
// two merges the search entered are equal, so a seen set would have
// rejected none. Each query also runs with a k no list fills, so that no
// merge is priced away and the whole strict closure is built.
func TestTwoTermMergesNeverRepeat(t *testing.T) {
	merges := 0
	for seed := int64(0); seed < fieldSeeds; seed++ {
		w, err := difftest.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			if len(q.Terms) > 2 {
				continue
			}
			for _, d := range []int{q.Diameter, 5, 6} {
				for _, k := range []int{q.K, 1 << 14} {
					opts := search.Options{K: k, Diameter: d}
					_, merged, err := w.Searcher.GeneratedTrees(q.Terms, opts)
					if err != nil {
						t.Fatal(err)
					}
					var set search.TreeSet
					for _, m := range merged {
						if !set.Add(m) {
							t.Fatalf("seed %d query %v %+v: merge %s rooted at %d entered twice", seed, q.Terms, opts, m.CanonicalKey(), m.Root())
						}
					}
					merges += len(merged)
				}
			}
		}
	}
	t.Logf("%d merges of at most two terms, all distinct", merges)
	if merges < 1000 {
		t.Fatalf("only %d merges to hold the argument", merges)
	}
}

// TestDeadChildrenChangeNothing holds the expansion step's dead-child skip
// (bb.go) to the search that prices every child, over the difftest workloads
// at every query's diameter and at 5 and 6, under the strict rule the skip
// runs under: the answers, their scores, Expanded and Answers are the same,
// and only the candidates the skip drops leave Generated.
func TestDeadChildrenChangeNothing(t *testing.T) {
	type run struct {
		keys   []string
		scores []float64
		stats  search.Stats
	}
	search1 := func(w *difftest.Workload, terms []string, opts search.Options) run {
		answers, stats, err := w.Searcher.TopK(terms, opts)
		if err != nil {
			t.Fatal(err)
		}
		r := run{stats: stats}
		for _, a := range answers {
			r.keys, r.scores = append(r.keys, a.Tree.CanonicalKey()), append(r.scores, a.Score)
		}
		return r
	}
	type job struct {
		w     *difftest.Workload
		terms []string
		opts  search.Options
		skip  run
	}
	var jobs []job
	for seed := int64(0); seed < fieldSeeds; seed++ {
		w, err := difftest.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			for _, d := range []int{q.Diameter, 5, 6} {
				opts := search.Options{K: q.K, Diameter: d}
				jobs = append(jobs, job{w: w, terms: q.Terms, opts: opts, skip: search1(w, q.Terms, opts)})
			}
		}
	}
	search.KeepDeadChildren(t)
	dropped := 0
	for _, j := range jobs {
		kept := search1(j.w, j.terms, j.opts)
		a, b := j.skip, kept
		if !slices.Equal(a.keys, b.keys) || !slices.Equal(a.scores, b.scores) ||
			a.stats.Expanded != b.stats.Expanded || a.stats.Answers != b.stats.Answers || a.stats.Generated > b.stats.Generated {
			t.Fatalf("seed %d query %v D=%d: skipping dead children\n%v %v %+v\npricing them\n%v %v %+v",
				j.w.Seed, j.terms, j.opts.Diameter, a.keys, a.scores, a.stats, b.keys, b.scores, b.stats)
		}
		dropped += b.stats.Generated - a.stats.Generated
	}
	t.Logf("%d runs, %d dead children skipped", len(jobs), dropped)
	if len(jobs) < 1000 || dropped < 1000 {
		t.Fatalf("only %d runs and %d dead children to hold the skip to", len(jobs), dropped)
	}
}
