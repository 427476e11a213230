package search_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cirank/internal/difftest"
	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/pathindex"
	"cirank/internal/search"
)

// fieldSeeds is how many difftest workloads the supply-field oracle tests
// walk — the seeds TestDifferential commits to; each holds a few queries
// over a graph of about a dozen nodes.
const fieldSeeds = 224

// routeCandidates lists candidate trees the search could hold on its way to
// t: for every rooting of t and every node x of it, x alone, x over each one
// of its child subtrees, and x over all of them.
func routeCandidates(t *jtt.Tree) []*jtt.Tree {
	var out []*jtt.Tree
	for _, r := range t.Nodes() {
		rt := t.Reroot(r)
		var under func(c *jtt.Tree, k, parent graph.NodeID) *jtt.Tree
		under = func(c *jtt.Tree, k, parent graph.NodeID) *jtt.Tree {
			c = c.MustAttach(k, parent)
			for _, kk := range rt.Children(k) {
				c = under(c, kk, k)
			}
			return c
		}
		for _, x := range rt.Nodes() {
			all := jtt.NewSingle(x)
			out = append(out, all)
			for _, k := range rt.Children(x) {
				out = append(out, under(jtt.NewSingle(x), k, x))
				all = under(all, k, x)
			}
			out = append(out, all)
		}
	}
	return out
}

// TestLoneBoundIgnoresOwnSupply certifies the argument upperBound's lone case
// rests on: the supply fields cannot leave a lone source out of its own
// supply, and it does not matter — the bound of every lone candidate is,
// bit for bit, what it is with the source removed from the fields.
func TestLoneBoundIgnoresOwnSupply(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < fieldSeeds; seed++ {
		w, err := difftest.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			o, ok, err := w.Searcher.NewBoundOracle(q.Terms, search.Options{K: q.K, Diameter: q.Diameter})
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			matches := make([]map[graph.NodeID]bool, len(q.Terms))
			for ti, term := range q.Terms {
				matches[ti] = make(map[graph.NodeID]bool)
				for _, v := range w.Model.Index().AppendMatchingNodes(nil, term) {
					matches[ti][v] = true
				}
			}
			coversAll := func(v graph.NodeID) bool {
				for _, m := range matches {
					if !m[v] {
						return false
					}
				}
				return true
			}
			// Lone candidates: a source covering every term, alone or at
			// the bottom of a chain of free nodes grown out of it.
			for v := 0; v < w.Graph.NumNodes(); v++ {
				src := graph.NodeID(v)
				if !coversAll(src) {
					continue
				}
				trees := []*jtt.Tree{jtt.NewSingle(src)}
				for i := 0; i < len(trees); i++ {
					tree := trees[i]
					if tree.Depth() >= o.GrowthDepthLimit() {
						continue
					}
					for _, e := range w.Graph.OutEdges(tree.Root()) {
						if len(w.Model.SourcesIn(jtt.NewSingle(e.To), q.Terms)) != 0 {
							continue // a second source: no longer lone
						}
						if grown, err := tree.Grow(w.Graph, e.To); err == nil {
							trees = append(trees, grown)
						}
					}
				}
				for _, tree := range trees {
					with := o.UpperBound(tree)
					var without float64
					o.WithoutFieldSource(src, func() { without = o.UpperBound(tree) })
					if with != without {
						t.Fatalf("seed %d query %v D=%d: lone candidate %s rooted at %d has bound %.17g, %.17g without its own supply",
							seed, q.Terms, q.Diameter, tree.CanonicalKey(), tree.Root(), with, without)
					}
					if again := o.UpperBound(tree); again != with {
						t.Fatalf("seed %d: fields not restored: bound %.17g, was %.17g", seed, again, with)
					}
					checked++
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d lone candidates checked", checked)
	}
}

// TestIndexNeverUndercutsField certifies that handing the search a path
// index on top of the supply fields changes no bound beyond rounding: the
// indexed scan of a missing term knows neither the hop budget along the path
// nor the out-of-tree entry, so it never reads lower than the field's exact
// value. A tree past a seed reads the field off its root's row, which adds
// rowSlack for the rounding of its division, and the index's min may remove
// exactly that: the tolerance is twice the slack, one for the row's own and
// one for the rounding of the two estimates' differing products.
func TestIndexNeverUndercutsField(t *testing.T) {
	checked, missing := 0, 0
	worst := 0.0 // the largest relative undercut seen
	for seed := int64(0); seed < fieldSeeds; seed++ {
		w, err := difftest.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			base := search.Options{K: q.K, Diameter: q.Diameter}
			plain, ok, err := w.Searcher.NewBoundOracle(q.Terms, base)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			answers, err := w.Searcher.EnumerateAnswers(q.Terms, q.Diameter, 32)
			if err != nil {
				t.Fatal(err)
			}
			for name, idx := range map[string]pathindex.Index{"naive": w.NaiveIdx, "star": w.StarIdx} {
				opts := base
				opts.Index = idx
				indexed, _, err := w.Searcher.NewBoundOracle(q.Terms, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, ans := range answers {
					for _, c := range routeCandidates(ans) {
						p, _, complete := plain.Evaluate(c)
						i := indexed.UpperBound(c)
						if p > 0 && !math.IsInf(p, 1) {
							worst = max(worst, (p-i)/p)
						}
						if i > p || i < p*(1-2*search.RowSlack) {
							t.Fatalf("seed %d query %v D=%d %s index: candidate %s rooted at %d bounded %.17g with the index, %.17g without",
								seed, q.Terms, q.Diameter, name, c.CanonicalKey(), c.Root(), i, p)
						}
						checked++
						if !complete && p > 0 {
							missing++
						}
					}
				}
			}
		}
	}
	t.Logf("%d candidates checked, %d with a live supplement bound; the index undercuts the field by at most %.3g relative", checked, missing, worst)
	if checked < 10000 || missing < 1000 {
		t.Fatalf("only %d candidates checked, %d of them with a live supplement bound", checked, missing)
	}
}

// TestPulledFieldMatchesPushed certifies the pull: over the difftest
// workloads, at each query's own diameter and at 5 and 6, a relaxation whose
// restricted rounds all pull gives every region entry — level h within D−h
// hops of a matching node — the value the push alone gives it, bit for bit,
// and no entry a larger one; the cost rule's relaxation scans no more edges
// than the push; and searching with the pull forced returns the answers,
// scores and Stats of the default run, the relaxation's own edge count
// aside.
func TestPulledFieldMatchesPushed(t *testing.T) {
	type run struct {
		w      *difftest.Workload
		q      difftest.Query
		opts   search.Options
		keys   []string
		scores []float64
		stats  search.Stats
	}
	search1 := func(r *run) ([]string, []float64, search.Stats) {
		answers, stats, err := r.w.Searcher.TopK(r.q.Terms, r.opts)
		if err != nil {
			t.Fatal(err)
		}
		keys, scores := make([]string, len(answers)), make([]float64, len(answers))
		for i, a := range answers {
			keys[i], scores[i] = a.Tree.CanonicalKey(), a.Score
		}
		stats.Relaxed = 0
		return keys, scores, stats
	}
	var runs []run
	for seed := int64(0); seed < fieldSeeds; seed++ {
		w, err := difftest.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			for _, d := range []int{q.Diameter, 5, 6} {
				r := run{w: w, q: q, opts: search.Options{K: q.K, Diameter: d}}
				o, ok, err := w.Searcher.NewBoundOracle(q.Terms, r.opts)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
				pushed := 0
				for ti := range q.Terms {
					_, scanned := o.PushedField(ti)
					pushed += scanned
				}
				if o.Relaxed() > pushed {
					t.Fatalf("seed %d query %v D=%d: the relaxation scanned %d edges, the push alone %d", seed, q.Terms, d, o.Relaxed(), pushed)
				}
				r.keys, r.scores, r.stats = search1(&r)
				runs = append(runs, r)
			}
		}
	}
	search.ForcePull(t)
	regionEntries := 0
	for _, r := range runs {
		where := fmt.Sprintf("seed %d query %v D=%d", r.w.Seed, r.q.Terms, r.opts.Diameter)
		o, _, err := r.w.Searcher.NewBoundOracle(r.q.Terms, r.opts)
		if err != nil {
			t.Fatal(err)
		}
		var matching []graph.NodeID
		for _, term := range r.q.Terms {
			matching = r.w.Model.Index().AppendMatchingNodes(matching, term)
		}
		hops, L := search.HopsFrom(r.w.Graph, matching), o.FieldLevels()
		for ti := range r.q.Terms {
			pushed, _ := o.PushedField(ti)
			for v := 0; v < r.w.Graph.NumNodes(); v++ {
				for h, got := range o.FieldRow(ti, graph.NodeID(v)) {
					want := pushed[v*L+h]
					inRegion := hops[v] >= 0 && hops[v] <= r.opts.Diameter-h
					if got > want || inRegion && got != want {
						t.Fatalf("%s term %d node %d (%d hops out) level %d: pulled %.17g, pushed %.17g", where, ti, v, hops[v], h, got, want)
					}
					if inRegion {
						regionEntries++
					}
				}
			}
		}
		keys, scores, stats := search1(&r)
		if !slices.Equal(keys, r.keys) || !slices.Equal(scores, r.scores) || stats != r.stats {
			t.Fatalf("%s: with the pull forced\n%v %v %+v\nby default\n%v %v %+v", where, keys, scores, stats, r.keys, r.scores, r.stats)
		}
	}
	if len(runs) < 1000 || regionEntries < 50000 {
		t.Fatalf("only %d runs, %d region entries checked", len(runs), regionEntries)
	}
}
