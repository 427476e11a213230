package difftest

import (
	"fmt"
	"math"
	"sort"

	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/pathindex"
	"cirank/internal/search"
)

const (
	// scoreEps tolerates float reassociation between independently coded
	// scoring paths; engines sharing one scoring path are compared exactly.
	scoreEps = 1e-9
	// allAnswersK is the k used to pull *every* valid answer out of the
	// exhaustive oracle (graphs are small enough that the full answer set
	// fits far below this).
	allAnswersK = 1 << 14
	// admissibilityCap bounds the number of answers whose reachable
	// candidates are bound-checked per query; answers are taken best-first,
	// so the cap keeps the contested top-k region fully covered.
	admissibilityCap = 32
	// subsetCap bounds the child-subtree subsets enumerated per rooting.
	subsetCap = 256
)

// deepDiameters are the diameters every query is also asked at, against the
// exhaustive top-k only. The generator draws D ∈ {2, 3, 4}, whose candidate
// depth limit ⌈D/2⌉ is at most 2; the paper's Fig. 11/12 run D ∈ {4, 5, 6},
// and 5 and 6 put the limit at 3. The queries keep their graph, terms and k,
// so no seed's workload changes.
var deepDiameters = []int{5, 6}

// CheckWorkload runs every oracle axis over the workload: path-index bounds
// against brute-force ground truth (plus codec roundtrips), then the full
// search cross-check for each query, then branch-and-bound against the
// exhaustive top-k at each deep diameter. It returns an error describing
// the first mismatch, nil when every axis agrees.
func CheckWorkload(w *Workload) error {
	if err := checkIndexes(w); err != nil {
		return fmt.Errorf("seed %d: %w", w.Seed, err)
	}
	for qi, q := range w.Queries {
		if err := checkQuery(w, q); err != nil {
			return fmt.Errorf("seed %d: query %d %v (k=%d, D=%d): %w",
				w.Seed, qi, q.Terms, q.K, q.Diameter, err)
		}
		for _, d := range deepDiameters {
			deep := q
			deep.Diameter = d
			if _, _, err := optimal(w, deep); err != nil {
				return fmt.Errorf("seed %d: query %d %v (k=%d) asked at D=%d: %w",
					w.Seed, qi, q.Terms, q.K, d, err)
			}
		}
	}
	return nil
}

// --- axis (b): path index bounds vs ground truth -------------------------

// trueDistances brute-forces the unbounded hop distance between all node
// pairs by BFS. Unreachable pairs get math.MaxInt.
func trueDistances(g *graph.Graph) [][]int {
	n := g.NumNodes()
	all := make([][]int, n)
	for s := 0; s < n; s++ {
		dist := make([]int, n)
		for i := range dist {
			dist[i] = math.MaxInt
		}
		dist[s] = 0
		queue := []graph.NodeID{graph.NodeID(s)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range g.OutEdges(u) {
				if dist[e.To] == math.MaxInt {
					dist[e.To] = dist[u] + 1
					queue = append(queue, e.To)
				}
			}
		}
		all[s] = dist
	}
	return all
}

// trueRetentions brute-forces, for all pairs (s, t), the maximum over s→t
// paths of the product of dampening rates at the path's intermediate nodes —
// the quantity RetentionUB contracts to upper-bound. Because every rate is
// in (0, 1), longer walks only shed more factors, so a max-product Dijkstra
// over simple relaxations is exact.
func trueRetentions(g *graph.Graph, damp []float64) [][]float64 {
	n := g.NumNodes()
	all := make([][]float64, n)
	for s := 0; s < n; s++ {
		arrive := make([]float64, n)
		settled := make([]bool, n)
		arrive[s] = 1
		for {
			best, at := -1.0, -1
			for v := 0; v < n; v++ {
				if !settled[v] && arrive[v] > best {
					best, at = arrive[v], v
				}
			}
			if at < 0 || best == 0 {
				break
			}
			settled[at] = true
			// Leaving node `at` makes it an intermediate of the extended
			// path — unless it is the source itself.
			factor := damp[at]
			if at == s {
				factor = 1
			}
			for _, e := range g.OutEdges(graph.NodeID(at)) {
				if cand := arrive[at] * factor; cand > arrive[e.To] {
					arrive[e.To] = cand
				}
			}
		}
		all[s] = arrive
	}
	return all
}

// checkIndexes certifies both path indexes against brute-force truth:
// DistanceLB never exceeds the true hop distance and RetentionUB never falls
// below the true best retention.
func checkIndexes(w *Workload) error {
	dist := trueDistances(w.Graph)
	ret := trueRetentions(w.Graph, w.Damp)

	indexes := []struct {
		name string
		ix   pathindex.Index
	}{
		{"naive", w.NaiveIdx},
		{"star", w.StarIdx},
	}
	n := w.Graph.NumNodes()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			uu, vv := graph.NodeID(u), graph.NodeID(v)
			for _, it := range indexes {
				lb := it.ix.DistanceLB(uu, vv)
				if lb > dist[u][v] {
					return fmt.Errorf("%s index: DistanceLB(%d,%d)=%d exceeds true distance %d",
						it.name, u, v, lb, dist[u][v])
				}
				ub := it.ix.RetentionUB(uu, vv)
				if ub < ret[u][v]-scoreEps {
					return fmt.Errorf("%s index: RetentionUB(%d,%d)=%g below true retention %g",
						it.name, u, v, ub, ret[u][v])
				}
			}
			// The naive index is exact within its horizon, not just a bound.
			if dist[u][v] <= maxIndexDepth {
				if lb := w.NaiveIdx.DistanceLB(uu, vv); lb != dist[u][v] {
					return fmt.Errorf("naive index: DistanceLB(%d,%d)=%d, true in-horizon distance %d",
						u, v, lb, dist[u][v])
				}
			}
		}
	}
	return checkGraphRoundtrip(w)
}

// checkGraphRoundtrip reassembles the graph from its CSR layout — the
// snapshot's csr.* sections, the edges through their wire encoding — under
// FromCSR's validation, and verifies the result is structurally identical
// (nodes, text, edges, weights).
func checkGraphRoundtrip(w *Workload) error {
	nodes := make([]graph.Node, w.Graph.NumNodes())
	for v := range nodes {
		nodes[v] = *w.Graph.Node(graph.NodeID(v))
	}
	offsets, edges, outSum := w.Graph.CSR()
	g2, err := graph.FromCSR(nodes, offsets, graph.EdgesFromBytes(graph.AppendEdges(nil, edges), false), outSum)
	if err != nil {
		return fmt.Errorf("graph FromCSR roundtrip: %w", err)
	}
	if g2.NumNodes() != w.Graph.NumNodes() {
		return fmt.Errorf("graph roundtrip: %d nodes became %d", w.Graph.NumNodes(), g2.NumNodes())
	}
	for v := 0; v < w.Graph.NumNodes(); v++ {
		id := graph.NodeID(v)
		a, b := w.Graph.Node(id), g2.Node(id)
		if a.Relation != b.Relation || a.Key != b.Key || a.Text != b.Text {
			return fmt.Errorf("graph roundtrip: node %d records differ: %+v vs %+v", v, a, b)
		}
		ea, eb := w.Graph.OutEdges(id), g2.OutEdges(id)
		if len(ea) != len(eb) {
			return fmt.Errorf("graph roundtrip: node %d has %d out-edges, reloaded %d", v, len(ea), len(eb))
		}
		for i := range ea {
			if ea[i] != eb[i] {
				return fmt.Errorf("graph roundtrip: node %d edge %d differs: %+v vs %+v", v, i, ea[i], eb[i])
			}
		}
	}
	return nil
}

// --- axis (a)+(c)+(d): search cross-checks -------------------------------

// answersEqual compares two ranked answer lists: same length, same trees
// (by canonical key) in the same order, scores within eps (eps 0 demands
// bit-identical scores — used for engine variants sharing one scoring path).
func answersEqual(got, want []search.Answer, eps float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("returned %d answers, want %d", len(got), len(want))
	}
	for i := range got {
		gk, wk := got[i].Tree.CanonicalKey(), want[i].Tree.CanonicalKey()
		if gk != wk {
			return fmt.Errorf("answer %d is tree %s, want %s", i, gk, wk)
		}
		if d := math.Abs(got[i].Score - want[i].Score); d > eps {
			return fmt.Errorf("answer %d (%s) scored %.17g, want %.17g (Δ=%g)",
				i, gk, got[i].Score, want[i].Score, d)
		}
	}
	return nil
}

// checkAnswerInvariants asserts axis (d) on a ranked list: every tree is a
// valid joined tuple tree for the query (covers all terms, is reduced, obeys
// the diameter limit), keys are distinct, and scores are non-increasing and
// non-negative.
func checkAnswerInvariants(w *Workload, q Query, answers []search.Answer, label string) error {
	ix := w.Model.Index()
	nonFree := func(v graph.NodeID) bool { return ix.QueryMatchCount(v, q.Terms) > 0 }
	seen := make(map[string]bool, len(answers))
	for i, a := range answers {
		key := a.Tree.CanonicalKey()
		if seen[key] {
			return fmt.Errorf("%s: answer %d duplicates tree %s", label, i, key)
		}
		seen[key] = true
		for _, term := range q.Terms {
			covered := false
			for _, v := range a.Tree.Nodes() {
				if ix.QueryMatchCount(v, []string{term}) > 0 {
					covered = true
					break
				}
			}
			if !covered {
				return fmt.Errorf("%s: answer %d (%s) misses term %q", label, i, key, term)
			}
		}
		if !a.Tree.IsReduced(nonFree) {
			return fmt.Errorf("%s: answer %d (%s) is not reduced (has a free leaf)", label, i, key)
		}
		if d := a.Tree.Diameter(); d > q.Diameter {
			return fmt.Errorf("%s: answer %d (%s) has diameter %d > limit %d", label, i, key, d, q.Diameter)
		}
		if !(a.Score >= 0) {
			return fmt.Errorf("%s: answer %d (%s) has invalid score %g", label, i, key, a.Score)
		}
		if i > 0 && a.Score > answers[i-1].Score {
			return fmt.Errorf("%s: score increases at rank %d (%.17g after %.17g)",
				label, i, a.Score, answers[i-1].Score)
		}
	}
	return nil
}

// optimal runs the query's branch-and-bound search with extended merge,
// which is certified optimal, and holds it to the exhaustive ground truth:
// it must reproduce the exhaustive top k exactly, and its answers must keep
// axis (d)'s invariants. It returns the search's answers and every valid
// answer, scored and ranked.
func optimal(w *Workload, q Query) (bb, all []search.Answer, err error) {
	base := search.Options{K: q.K, Diameter: q.Diameter, ExtendedMerge: true}
	allOpts := base
	allOpts.K = allAnswersK
	all, err = w.Searcher.ExhaustiveTopK(q.Terms, allOpts, w.Graph.NumNodes())
	if err != nil {
		return nil, nil, fmt.Errorf("exhaustive: %v", err)
	}
	truth := all[:min(len(all), q.K)]
	bb, _, err = w.Searcher.TopK(q.Terms, base)
	if err != nil {
		return nil, nil, fmt.Errorf("bb: %v", err)
	}
	if err := answersEqual(bb, truth, scoreEps); err != nil {
		return nil, nil, fmt.Errorf("bb vs exhaustive: %w", err)
	}
	if err := checkAnswerInvariants(w, q, bb, "bb"); err != nil {
		return nil, nil, err
	}
	return bb, all, nil
}

// checkQuery runs one query through every engine variant and cross-checks
// them against the exhaustive ground truth and against each other.
func checkQuery(w *Workload, q Query) error {
	base := search.Options{K: q.K, Diameter: q.Diameter, ExtendedMerge: true}
	bb, all, err := optimal(w, q)
	if err != nil {
		return err
	}
	truth := all[:min(len(all), q.K)]

	// Engine variants that must be *bit-identical* to the plain run: either
	// path index (bounds only steer pruning, never scores), and the run
	// without supply fields.
	variants := []struct {
		name string
		opts func() search.Options
	}{
		{"naive-index", func() search.Options { o := base; o.Index = w.NaiveIdx; return o }},
		{"star-index", func() search.Options { o := base; o.Index = w.StarIdx; return o }},
		{"no-dynamic-bounds", func() search.Options { o := base; o.NoDynamicBounds = true; return o }},
	}
	for _, v := range variants {
		got, _, err := w.Searcher.TopK(q.Terms, v.opts())
		if err != nil {
			return fmt.Errorf("%s: %v", v.name, err)
		}
		if err := answersEqual(got, bb, 0); err != nil {
			return fmt.Errorf("%s vs bb: %w", v.name, err)
		}
	}

	// Plain-merge branch-and-bound explores a smaller shape space; it keeps
	// the weaker guarantees: valid answers only, each present in the full
	// truth set with the true score, ranked no better than truth allows.
	plain := base
	plain.ExtendedMerge = false
	pm, _, err := w.Searcher.TopK(q.Terms, plain)
	if err != nil {
		return fmt.Errorf("bb-plain: %v", err)
	}
	if err := checkAnswerInvariants(w, q, pm, "bb-plain"); err != nil {
		return err
	}
	truthScore := make(map[string]float64, len(all))
	for _, a := range all {
		truthScore[a.Tree.CanonicalKey()] = a.Score
	}
	for i, a := range pm {
		ts, ok := truthScore[a.Tree.CanonicalKey()]
		if !ok {
			return fmt.Errorf("bb-plain: answer %d (%s) is not in the exhaustive answer set",
				i, a.Tree.CanonicalKey())
		}
		if math.Abs(a.Score-ts) > scoreEps {
			return fmt.Errorf("bb-plain: answer %d scored %.17g, exhaustive says %.17g",
				i, a.Score, ts)
		}
		if i < len(truth) && a.Score > truth[i].Score+scoreEps {
			return fmt.Errorf("bb-plain: rank %d score %.17g beats exhaustive optimum %.17g",
				i, a.Score, truth[i].Score)
		}
	}

	if err := checkNaive(w, q, truth); err != nil {
		return err
	}
	return checkAdmissibility(w, q, all)
}

// checkNaive differentially tests the §IV-A naive engine: its ranked output
// must exactly match an independently-built reference (enumerate all
// shortest-path-assembled answers, score each with the model directly, sort
// by the top-k total order), and rank for rank it can never beat the optimal
// engine.
func checkNaive(w *Workload, q Query, truth []search.Answer) error {
	pool, err := w.Searcher.EnumerateAnswers(q.Terms, q.Diameter, 0)
	if err != nil {
		return fmt.Errorf("enumerate: %v", err)
	}
	ref := make([]search.Answer, 0, len(pool))
	for _, t := range pool {
		ref = append(ref, search.Answer{Tree: t, Score: w.Model.Score(t, q.Terms)})
	}
	sort.Slice(ref, func(i, j int) bool {
		if ref[i].Score != ref[j].Score {
			return ref[i].Score > ref[j].Score
		}
		return ref[i].Tree.CanonicalKey() < ref[j].Tree.CanonicalKey()
	})
	if len(ref) > q.K {
		ref = ref[:q.K]
	}

	base := search.Options{K: q.K, Diameter: q.Diameter}
	naive, _, err := w.Searcher.NaiveTopK(q.Terms, base)
	if err != nil {
		return fmt.Errorf("naive: %v", err)
	}
	if err := answersEqual(naive, ref, 0); err != nil {
		return fmt.Errorf("naive vs scored-enumeration reference: %w", err)
	}
	if err := checkAnswerInvariants(w, q, naive, "naive"); err != nil {
		return err
	}

	// Naive assembles only shortest-path trees, a subset of all answers, so
	// rank for rank the optimal engine's score dominates.
	if len(naive) > len(truth) {
		return fmt.Errorf("naive found %d answers, exhaustive only %d", len(naive), len(truth))
	}
	for i := range naive {
		if naive[i].Score > truth[i].Score+scoreEps {
			return fmt.Errorf("naive rank %d score %.17g beats optimal %.17g",
				i, naive[i].Score, truth[i].Score)
		}
	}
	return nil
}

// checkAdmissibility certifies the bound property that actually underwrites
// Theorem 1 on random shapes. The per-candidate bound is deliberately NOT
// universally admissible: for a candidate whose only source is itself,
// ub(C) = generation(C) even though a completion can add a higher-generation
// source and lift the Eq. 4 average above it. Optimality survives because
// pruning compares against top.min(), which never exceeds the true k-th best
// score θ, and because every answer admits at least one build route all of
// whose candidates have ub ≥ θ (anchored by the answer's maximum-generation
// seed, whose generation bounds the answer's average). So the oracle checks:
//
//  1. every valid answer, evaluated as a candidate under every bound
//     variant, is complete with the exhaustive score and ub ≥ its own
//     score (an answer can never be under-bounded below itself);
//  2. for every true top-k answer T there EXISTS a rooting of T within the
//     growth depth limit and a grow/merge order whose every intermediate
//     candidate has ub ≥ θ − eps — i.e. a route the search can never prune,
//     under every bound variant (no index, naive index, star index, dynamic
//     bounds disabled).
//
// A violation of (2) means some optimal answer is only found through
// candidates the final threshold could kill — exactly the failure mode that
// would break bb-vs-exhaustive equality on a less lucky expansion order.
func checkAdmissibility(w *Workload, q Query, all []search.Answer) error {
	base := search.Options{K: q.K, Diameter: q.Diameter, ExtendedMerge: true}
	variantOpts := []struct {
		name string
		opts search.Options
	}{
		{"no-index", base},
		{"naive-index", func() search.Options { o := base; o.Index = w.NaiveIdx; return o }()},
		{"star-index", func() search.Options { o := base; o.Index = w.StarIdx; return o }()},
		{"static-only", func() search.Options { o := base; o.NoDynamicBounds = true; return o }()},
	}
	type namedOracle struct {
		name string
		o    *search.BoundOracle
	}
	var oracles []namedOracle
	for _, v := range variantOpts {
		o, ok, err := w.Searcher.NewBoundOracle(q.Terms, v.opts)
		if err != nil {
			return fmt.Errorf("oracle %s: %v", v.name, err)
		}
		if !ok {
			// No term matches ⇒ no answers ⇒ nothing to certify. The
			// exhaustive set must agree.
			if len(all) != 0 {
				return fmt.Errorf("oracle %s: query has no matches but exhaustive found %d answers",
					v.name, len(all))
			}
			return nil
		}
		oracles = append(oracles, namedOracle{v.name, o})
	}
	depthLimit := oracles[0].o.GrowthDepthLimit()

	answers := all
	if len(answers) > admissibilityCap {
		answers = answers[:admissibilityCap]
	}
	for _, ans := range answers {
		// The oracle's own evaluation of the full answer must agree with
		// the exhaustive score, declare it complete, and bound it.
		for _, no := range oracles {
			ub, score, complete := no.o.Evaluate(ans.Tree.Reroot(ans.Tree.Root()))
			if !complete {
				return fmt.Errorf("oracle %s: valid answer %s evaluated as incomplete",
					no.name, ans.Tree.CanonicalKey())
			}
			if math.Abs(score-ans.Score) > scoreEps {
				return fmt.Errorf("oracle %s: answer %s scored %.17g by fill, %.17g by exhaustive",
					no.name, ans.Tree.CanonicalKey(), score, ans.Score)
			}
			if ub < score-scoreEps {
				return fmt.Errorf("oracle %s: answer %s has ub %.17g below own score %.17g",
					no.name, ans.Tree.CanonicalKey(), ub, score)
			}
		}
	}

	// Route existence for the true top k, against the final threshold θ.
	topTrue := all
	if len(topTrue) > q.K {
		topTrue = topTrue[:q.K]
	}
	if len(topTrue) == 0 {
		return nil
	}
	theta := topTrue[len(topTrue)-1].Score - scoreEps
	for _, no := range oracles {
		for _, ans := range topTrue {
			if !hasSurvivingRoute(no.o, ans.Tree, theta, depthLimit) {
				return fmt.Errorf(
					"oracle %s: answer %s (score %.17g) has no build route surviving threshold %.17g — every route is prunable",
					no.name, ans.Tree.CanonicalKey(), ans.Score, theta)
			}
		}
	}
	return nil
}

// hasSurvivingRoute reports whether some rooting of t within the depth limit
// admits a grow/merge construction order whose every intermediate candidate
// C has o.UpperBound(C) ≥ theta. In any successful route every candidate
// rooted at x is x plus a union of x's complete child subtrees (material
// below the root can never be extended later), so it suffices that for every
// node x of the rooted tree, each single-child-subtree candidate x+T_c
// survives and some merge order of the child subtrees keeps every prefix
// union surviving.
func hasSurvivingRoute(o *search.BoundOracle, t *jtt.Tree, theta float64, depthLimit int) bool {
rootings:
	for _, r := range t.Nodes() {
		rt := t.Reroot(r)
		if rt.Depth() > depthLimit {
			continue
		}
		for _, x := range rt.Nodes() {
			if !nodeRouteSurvives(o, rt, x, theta) {
				continue rootings
			}
		}
		return true
	}
	return false
}

// nodeRouteSurvives checks the candidates rooted at x on a route through the
// rooted tree rt: the leaf seed {x}, each x+T_c single-subtree candidate,
// and some merge order over x's child subtrees with all prefix unions
// surviving theta.
func nodeRouteSurvives(o *search.BoundOracle, rt *jtt.Tree, x graph.NodeID, theta float64) bool {
	kids := rt.Children(x)
	if len(kids) == 0 {
		// Leaf: the candidate is the single-node seed.
		return o.UpperBound(jtt.NewSingle(x)) >= theta
	}
	subtrees := make([][]graph.NodeID, len(kids))
	for i, k := range kids {
		subtrees[i] = subtreeNodes(rt, k)
	}
	ubOf := func(mask int) float64 {
		nodes := map[graph.NodeID]bool{x: true}
		for i := range kids {
			if mask&(1<<i) != 0 {
				for _, v := range subtrees[i] {
					nodes[v] = true
				}
			}
		}
		return o.UpperBound(restrict(rt, x, nodes))
	}
	// Every single-subtree candidate arises from a grow and must survive.
	for i := range kids {
		if ubOf(1<<i) < theta {
			return false
		}
	}
	// Greedy merge order: at each step take any surviving extension. If the
	// greedy run strands, fall back to exhaustive orderings (child counts
	// are tiny on these workloads).
	if greedyMergeOrder(ubOf, len(kids), theta) {
		return true
	}
	return permMergeOrder(ubOf, (1<<len(kids))-1, theta, map[int]bool{})
}

// greedyMergeOrder accumulates child subtrees one at a time, always picking
// an extension whose union still survives theta.
func greedyMergeOrder(ubOf func(int) float64, n int, theta float64) bool {
	mask, picked := 0, 0
	for picked < n {
		progressed := false
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				continue
			}
			if next := mask | 1<<i; ubOf(next) >= theta {
				mask = next
				picked++
				progressed = true
				break
			}
		}
		if !progressed {
			return false
		}
	}
	return true
}

// permMergeOrder is the exhaustive fallback: can `target` be reached by
// adding one child at a time with every intermediate union surviving?
func permMergeOrder(ubOf func(int) float64, target int, theta float64, dead map[int]bool) bool {
	ok := func(mask int) bool {
		if dead[mask] {
			return false
		}
		if ubOf(mask) < theta {
			dead[mask] = true
			return false
		}
		return true
	}
	var reach func(mask int) bool
	reach = func(mask int) bool {
		if mask == target {
			return true
		}
		for i := 0; target&(1<<i) != 0 || 1<<i <= target; i++ {
			bit := 1 << i
			if bit > target {
				break
			}
			if target&bit == 0 || mask&bit != 0 {
				continue
			}
			if ok(mask|bit) && reach(mask|bit) {
				return true
			}
		}
		dead[mask] = true
		return false
	}
	// Start from each surviving singleton.
	for i := 0; 1<<i <= target; i++ {
		bit := 1 << i
		if target&bit == 0 {
			continue
		}
		if ok(bit) && reach(bit) {
			return true
		}
	}
	return false
}

// subtreeNodes collects the nodes of the complete subtree rooted at k.
func subtreeNodes(t *jtt.Tree, k graph.NodeID) []graph.NodeID {
	nodes := []graph.NodeID{k}
	for i := 0; i < len(nodes); i++ {
		nodes = append(nodes, t.Children(nodes[i])...)
	}
	return nodes
}

// restrict rebuilds the rooted subtree of t induced by the node set, rooted
// at root (the set must be connected through root).
func restrict(t *jtt.Tree, root graph.NodeID, nodes map[graph.NodeID]bool) *jtt.Tree {
	c := jtt.NewSingle(root)
	queue := []graph.NodeID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, k := range t.Children(u) {
			if nodes[k] {
				c = c.MustAttach(k, u)
				queue = append(queue, k)
			}
		}
	}
	return c
}
