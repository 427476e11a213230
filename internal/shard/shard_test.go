package shard

import (
	"math"
	"sort"
	"testing"

	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/search"
)

// chainGraph builds a directed path 0→1→…→n-1 with reverse edges, so the
// undirected halo grows one hop per radius step in both directions.
func chainGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddNode(graph.Node{Relation: "R", Key: string(rune('a' + i)), Text: "node", Words: 1})
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
		b.AddEdge(graph.NodeID(i+1), graph.NodeID(i), 0.5)
	}
	return b.Build()
}

// interleavedChains builds two disjoint chains whose node IDs interleave:
// even IDs form one path, odd IDs the other. A contiguous ID split cuts both
// chains and pays halo on every cut; the locality order walks one component
// at a time, so a two-way split owns one whole chain each with no halo.
func interleavedChains(m int) *graph.Graph {
	n := 2 * m
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddNode(graph.Node{Relation: "R", Key: string(rune('a' + i)), Text: "node", Words: 1})
	}
	for i := 0; i+2 < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+2), 1)
		b.AddEdge(graph.NodeID(i+2), graph.NodeID(i), 0.5)
	}
	return b.Build()
}

// referenceDistances is an independent check for halo membership: undirected
// hop distance from the owned set by plain BFS over an adjacency list built
// from scratch (-1 when unreached within maxDepth).
func referenceDistances(g *graph.Graph, owned []graph.NodeID, maxDepth int) []int {
	n := g.NumNodes()
	adj := make([][]graph.NodeID, n)
	for v := 0; v < n; v++ {
		for _, e := range g.OutEdges(graph.NodeID(v)) {
			adj[v] = append(adj[v], e.To)
			adj[e.To] = append(adj[e.To], graph.NodeID(v))
		}
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]graph.NodeID, 0, len(owned))
	for _, v := range owned {
		if dist[v] < 0 {
			dist[v] = 0
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] == maxDepth {
			continue
		}
		for _, w := range adj[u] {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

func checkPlanInvariants(t *testing.T, g *graph.Graph, plan *Plan) {
	t.Helper()
	if len(plan.Parts) != plan.Count {
		t.Fatalf("%d parts, want %d", len(plan.Parts), plan.Count)
	}
	owner := make([]int, g.NumNodes())
	for i := range owner {
		owner[i] = -1
	}
	for i := range plan.Parts {
		p := &plan.Parts[i]
		if p.Index != i {
			t.Fatalf("part %d has Index %d", i, p.Index)
		}
		// Owned is strictly ascending and in range; ownership is exclusive.
		for j, v := range p.Owned {
			if j > 0 && p.Owned[j-1] >= v {
				t.Fatalf("part %d Owned not strictly ascending at %d", i, j)
			}
			if int(v) >= g.NumNodes() {
				t.Fatalf("part %d owns out-of-range node %d", i, v)
			}
			if owner[v] != -1 {
				t.Fatalf("node %d owned by parts %d and %d", v, owner[v], i)
			}
			owner[v] = i
		}
		// Owns agrees with the list for every node.
		for v := 0; v < g.NumNodes(); v++ {
			want := owner[v] == i
			if got := p.Owns(graph.NodeID(v)); got != want {
				t.Fatalf("part %d Owns(%d) = %v, want %v", i, v, got, want)
			}
		}
		// Span bounds the owned set; (0, 0) signals empty.
		lo, hi := p.Span()
		if len(p.Owned) == 0 {
			if lo != 0 || hi != 0 {
				t.Fatalf("part %d empty span = [%d, %d)", i, lo, hi)
			}
		} else if lo != p.Owned[0] || hi != p.Owned[len(p.Owned)-1]+1 {
			t.Fatalf("part %d span [%d, %d) does not bound owned set", i, lo, hi)
		}
		// Membership is exactly the owned set plus the radius-hop halo.
		dist := referenceDistances(g, p.Owned, plan.Radius)
		members := 0
		for v := 0; v < g.NumNodes(); v++ {
			want := dist[v] >= 0
			if p.Member[v] != want {
				t.Fatalf("part %d Member[%d] = %v, want %v (distance %d, radius %d)",
					i, v, p.Member[v], want, dist[v], plan.Radius)
			}
			if want {
				members++
			}
		}
		if members != p.Members {
			t.Fatalf("part %d Members = %d, counted %d", i, p.Members, members)
		}
	}
	// Ownership covers every node.
	for v, o := range owner {
		if o == -1 {
			t.Fatalf("node %d is unowned", v)
		}
	}
}

func TestNewPlanInvariants(t *testing.T) {
	for _, g := range []*graph.Graph{chainGraph(10), interleavedChains(6)} {
		for _, count := range []int{1, 2, 3, 4, 10, 15} {
			plan, err := NewPlan(g, count, 2)
			if err != nil {
				t.Fatalf("count %d: %v", count, err)
			}
			checkPlanInvariants(t, g, plan)
		}
	}
}

// TestNewPlanLocalityComponents checks the payoff case: with interleaved
// component IDs, the locality order keeps each component in one chunk, so a
// two-way split owns whole components and the halo is empty.
func TestNewPlanLocalityComponents(t *testing.T) {
	g := interleavedChains(6)
	plan, err := NewPlan(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan.Parts {
		p := &plan.Parts[i]
		if p.Members != len(p.Owned) {
			t.Fatalf("part %d grew a halo: %d members, %d owned", i, p.Members, len(p.Owned))
		}
		// All-even or all-odd IDs: one component each.
		parity := int(p.Owned[0]) % 2
		for _, v := range p.Owned {
			if int(v)%2 != parity {
				t.Fatalf("part %d mixes components: owns %v", i, p.Owned)
			}
		}
	}
	if got := plan.DuplicationFactor(g); got != 1.0 {
		t.Fatalf("locality duplication factor = %v, want exactly 1.0", got)
	}
}

// TestLocalityOrderIsPermutation guards the chunking precondition: every
// node appears exactly once in the traversal order.
func TestLocalityOrderIsPermutation(t *testing.T) {
	for _, g := range []*graph.Graph{chainGraph(7), interleavedChains(5)} {
		order := localityOrder(g)
		if len(order) != g.NumNodes() {
			t.Fatalf("order has %d entries, want %d", len(order), g.NumNodes())
		}
		sorted := append([]graph.NodeID(nil), order...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for v, id := range sorted {
			if int(id) != v {
				t.Fatalf("order is not a permutation: sorted[%d] = %d", v, id)
			}
		}
	}
}

func TestNewPlanSingleShard(t *testing.T) {
	g := chainGraph(6)
	plan, err := NewPlan(g, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Parts[0]
	if len(p.Owned) != g.NumNodes() || p.Members != g.NumNodes() {
		t.Fatalf("single shard owns %d / members %d, want all %d",
			len(p.Owned), p.Members, g.NumNodes())
	}
	if lo, hi := p.Span(); lo != 0 || int(hi) != g.NumNodes() {
		t.Fatalf("single-shard span [%d, %d)", lo, hi)
	}
	// One shard replicates nothing: every edge is stored exactly once.
	if d := plan.DuplicationFactor(g); d != 1.0 {
		t.Fatalf("single-shard duplication factor = %v, want 1.0", d)
	}
}

func TestNewPlanMoreShardsThanNodes(t *testing.T) {
	g := chainGraph(3)
	plan, err := NewPlan(g, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, g, plan)
	empty := 0
	for i := range plan.Parts {
		p := &plan.Parts[i]
		if len(p.Owned) > 0 {
			continue
		}
		empty++
		if p.Members != 0 {
			t.Fatalf("empty part %d has %d members", i, p.Members)
		}
		if lo, hi := p.Span(); lo != 0 || hi != 0 {
			t.Fatalf("empty part %d span [%d, %d), want [0, 0)", i, lo, hi)
		}
	}
	if empty != 2 {
		t.Fatalf("%d empty parts, want 2", empty)
	}
}

func TestNewPlanValidation(t *testing.T) {
	g := chainGraph(4)
	if _, err := NewPlan(g, 0, 1); err == nil {
		t.Error("count 0 accepted")
	}
	if _, err := NewPlan(g, 2, 0); err == nil {
		t.Error("radius 0 accepted")
	}
}

func TestOwnedDistances(t *testing.T) {
	g := chainGraph(7)
	owned := []graph.NodeID{2, 3}
	got := OwnedDistances(g, owned, 2)
	want := []int32{2, 1, 0, 0, 1, 2, -1}
	if len(got) != len(want) {
		t.Fatalf("got %d distances, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	// An empty owned set reaches nothing.
	for v, d := range OwnedDistances(g, nil, 3) {
		if d != -1 {
			t.Fatalf("empty owned set: dist[%d] = %d", v, d)
		}
	}
}

// TestOwnedDistancesMatchPlanHalo ties the two BFS computations together:
// membership of a part is exactly the set of nodes OwnedDistances reaches at
// the plan radius.
func TestOwnedDistancesMatchPlanHalo(t *testing.T) {
	g := interleavedChains(6)
	plan, err := NewPlan(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan.Parts {
		p := &plan.Parts[i]
		dist := OwnedDistances(g, p.Owned, plan.Radius)
		for v := 0; v < g.NumNodes(); v++ {
			if (dist[v] >= 0) != p.Member[v] {
				t.Fatalf("part %d node %d: dist %d vs member %v", i, v, dist[v], p.Member[v])
			}
		}
	}
}

// TestProjectSingleShardIdentity pins the count=1 anchor: projecting the
// lone shard reproduces the original graph bit for bit (same edges, weights
// and out-sums), because the builder re-sums weights in the same sorted
// destination order.
func TestProjectSingleShardIdentity(t *testing.T) {
	g := chainGraph(6)
	plan, err := NewPlan(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pg := Project(g, &plan.Parts[0], plan.Radius)
	if pg.NumNodes() != g.NumNodes() || pg.NumEdges() != g.NumEdges() {
		t.Fatalf("projected %d nodes / %d edges, want %d / %d",
			pg.NumNodes(), pg.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if *g.Node(id) != *pg.Node(id) {
			t.Fatalf("node %d records differ", v)
		}
		a, b := g.OutEdges(id), pg.OutEdges(id)
		if len(a) != len(b) {
			t.Fatalf("node %d edge counts differ: %d vs %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d edge %d differs: %+v vs %+v", v, i, a[i], b[i])
			}
		}
	}
}

// TestProjectDropsNonMembers checks the member-induced projection: halo-edge
// structure survives, edges to non-members are cut, non-members are empty.
func TestProjectDropsNonMembers(t *testing.T) {
	g := chainGraph(8)
	plan, err := NewPlan(g, 4, 1) // a chain is traversed in ID order: shard 0 owns {0,1}, halo adds node 2
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Parts[0]
	pg := Project(g, p, plan.Radius)
	if pg.NumNodes() != g.NumNodes() {
		t.Fatalf("projection changed the ID space: %d nodes", pg.NumNodes())
	}
	for v := 0; v < pg.NumNodes(); v++ {
		id := graph.NodeID(v)
		if p.Member[v] {
			if pg.Node(id).Relation == "" {
				t.Fatalf("member %d lost its record", v)
			}
			continue
		}
		if pg.Node(id).Relation != "" || len(pg.OutEdges(id)) != 0 {
			t.Fatalf("non-member %d kept data", v)
		}
	}
	// Member 2's edge back to member 1 survives; its edge to non-member 3
	// does not.
	var to1, to3 bool
	for _, e := range pg.OutEdges(2) {
		if e.To == 1 {
			to1 = true
		}
		if e.To == 3 {
			to3 = true
		}
	}
	if !to1 || to3 {
		t.Fatalf("halo node 2 edges wrong: to1=%v to3=%v", to1, to3)
	}
}

// TestProjectTrimsRimEdges checks the rim trim: an edge between two nodes
// both at distance exactly radius from the owned set cannot appear in any
// owned-centered answer tree, so Project drops it from the stored subgraph.
func TestProjectTrimsRimEdges(t *testing.T) {
	// 0—1, 1—2, 1—3, 2—3 (each as a directed pair): with owned {0} and
	// radius 2, nodes 2 and 3 are rim nodes and the 2—3 edge is dropped.
	b := graph.NewBuilder(4)
	for i := 0; i < 4; i++ {
		b.AddNode(graph.Node{Relation: "R", Key: string(rune('a' + i)), Text: "node", Words: 1})
	}
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {1, 3}, {2, 3}} {
		b.AddEdge(e[0], e[1], 1)
		b.AddEdge(e[1], e[0], 0.5)
	}
	g := b.Build()
	p := Part{Index: 0, Owned: []graph.NodeID{0}, Member: []bool{true, true, true, true}, Members: 4}
	pg := Project(g, &p, 2)
	if got, want := pg.NumEdges(), g.NumEdges()-2; got != want {
		t.Fatalf("projected %d edges, want %d (one undirected rim edge dropped)", got, want)
	}
	for _, e := range pg.OutEdges(2) {
		if e.To == 3 {
			t.Fatal("rim edge 2→3 survived the trim")
		}
	}
	for _, e := range pg.OutEdges(3) {
		if e.To == 2 {
			t.Fatal("rim edge 3→2 survived the trim")
		}
	}
	// Shortest-path edges survive: distances over the trimmed subgraph match
	// distances over the whole graph.
	got := OwnedDistances(pg, p.Owned, 2)
	for v, want := range OwnedDistances(g, p.Owned, 2) {
		if got[v] != want {
			t.Fatalf("trimmed-subgraph dist[%d] = %d, want %d", v, got[v], want)
		}
	}
}

// gatherAnswer builds a single-node answer for merge tests; distinct nodes
// give distinct canonical keys, and key order follows node order.
func gatherAnswer(v graph.NodeID, score float64) search.Answer {
	return search.Answer{Tree: jtt.NewSingle(v), Score: score}
}

func TestGatherMergesAndDedups(t *testing.T) {
	lists := [][]search.Answer{
		{gatherAnswer(1, 9), gatherAnswer(2, 7)},
		{gatherAnswer(3, 8), gatherAnswer(1, 9)}, // node 1 is halo overlap
	}
	stats := []search.Stats{{Answers: 2}, {Answers: 2}}
	refs, agg := Gather(3, lists, stats)
	want := []Ref{{0, 0}, {1, 0}, {0, 1}} // scores 9, 8, 7; dup of node 1 dropped
	if len(refs) != len(want) {
		t.Fatalf("got %d refs, want %d", len(refs), len(want))
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Fatalf("ref %d = %+v, want %+v", i, refs[i], want[i])
		}
	}
	if agg.Answers != 4 {
		t.Errorf("aggregated Answers = %d, want 4", agg.Answers)
	}
}

func TestGatherTieBreaksOnCanonicalKey(t *testing.T) {
	// Equal scores: the smaller canonical key (smaller node) must rank first
	// regardless of which list it came from.
	lists := [][]search.Answer{
		{gatherAnswer(5, 4)},
		{gatherAnswer(2, 4)},
	}
	refs, _ := Gather(2, lists, make([]search.Stats, 2))
	if refs[0] != (Ref{1, 0}) || refs[1] != (Ref{0, 0}) {
		t.Fatalf("tie order wrong: %+v", refs)
	}
}

func TestGatherTruncationClearing(t *testing.T) {
	lists := [][]search.Answer{
		{gatherAnswer(1, 9), gatherAnswer(2, 8)},
		{gatherAnswer(3, 7)},
	}
	// Truncated shard whose frontier bound is strictly below the merged
	// k-th score: certified exact, flag clears.
	stats := []search.Stats{{}, {Truncated: true, FrontierBound: 7.5}}
	if _, agg := Gather(2, lists, stats); agg.Truncated {
		t.Error("certified truncation not cleared (bound 7.5 < kth 8)")
	}
	// Bound equal to the k-th score: an undiscovered tie could win on key,
	// so the flag must stay.
	stats[1].FrontierBound = 8
	if _, agg := Gather(2, lists, stats); !agg.Truncated {
		t.Error("truncation cleared on a tie-able bound")
	}
	// Fewer than k merged answers: nothing to certify against.
	stats[1].FrontierBound = 0.5
	if _, agg := Gather(4, lists, stats); !agg.Truncated {
		t.Error("truncation cleared with an unfilled top-k")
	}
	// An interrupted run is never certified.
	stats[1].FrontierBound = 0.5
	stats[0].Interrupted = true
	if _, agg := Gather(2, lists, stats); !agg.Truncated || !agg.Interrupted {
		t.Error("interrupted run lost its partial flags")
	}
	// An infinite bound (lost candidates) keeps the flag.
	stats[0].Interrupted = false
	stats[1].FrontierBound = math.Inf(1)
	if _, agg := Gather(2, lists, stats); !agg.Truncated {
		t.Error("truncation cleared despite an unbounded frontier")
	}
}
