package search

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cirank/internal/graph"
	"cirank/internal/textindex"
)

// fieldCase is one input of the supply-field oracle: a small graph,
// dampening rates, generation counts and one matcher set per term.
type fieldCase struct {
	g         *graph.Graph
	damp, gen []float64
	matchers  [][]graph.NodeID
	levels    int
	fixpoint  bool
}

// fieldCaseTerms is how many matcher sets a decoded case carries.
const fieldCaseTerms = 2

// fieldCaseTexts is a decoded node's text by term mask: term 0 is "alpha",
// term 1 "beta".
var fieldCaseTexts = [1 << fieldCaseTerms]string{"free", "alpha", "beta", "alpha beta"}

// decodeFieldCase reads a case off raw bytes, the fuzz target's input: a
// header byte (node count 2–8, levels 1–4, the fixpoint flag), three bytes
// per node (dampening rate in (0, 1), generation count, term mask) and then
// one byte pair per edge pair. An edge weighs 1 one way; the other way it
// weighs 1 too, or, when the first byte's high bit is set, a weight in
// [0.1, 3.1] read off the second byte's high nibble (Table II's weights
// differ per direction). Every byte string decodes to something; ok is false
// only when it is too short to hold the nodes.
func decodeFieldCase(data []byte) (fc fieldCase, ok bool) {
	if len(data) < 1 {
		return fc, false
	}
	n := 2 + int(data[0]&7)%7
	fc.levels = 1 + int(data[0]>>3&3)
	fc.fixpoint = data[0]&0x20 != 0
	data = data[1:]
	if len(data) < 3*n {
		return fc, false
	}
	b := graph.NewBuilder(n)
	fc.damp, fc.gen = make([]float64, n), make([]float64, n)
	fc.matchers = make([][]graph.NodeID, fieldCaseTerms)
	for v := 0; v < n; v++ {
		// The text spells the term mask out, so that a text index over the
		// graph finds the same matchers (prebound_test.go searches the case).
		text := fieldCaseTexts[data[3*v+2]&(1<<fieldCaseTerms-1)]
		b.AddNode(graph.Node{Relation: "R", Text: text, Words: textindex.WordCount(text)})
		fc.damp[v] = (float64(data[3*v]) + 1) / 258
		fc.gen[v] = 1 + float64(data[3*v+1])
		for ti := range fc.matchers {
			if data[3*v+2]&(1<<ti) != 0 {
				fc.matchers[ti] = append(fc.matchers[ti], graph.NodeID(v))
			}
		}
	}
	for data = data[3*n:]; len(data) >= 2; data = data[2:] {
		from, to := graph.NodeID(int(data[0]&0x7f)%n), graph.NodeID(int(data[1])%n)
		if from == to {
			continue
		}
		back := 1.0
		if data[0]&0x80 != 0 {
			back = 0.1 + float64(data[1]>>4)/5
		}
		b.AddBiEdge(from, to, 1, back)
	}
	fc.g = b.Build()
	return fc, true
}

// bruteField is the definition the field is held to: for one term, walk
// every simple path out of every matcher, multiplying in path order, and
// keep per (node, level) the best product over the paths short enough for
// the level. With fixpoint the last level takes paths of any length. The
// layout is relax's with one term: levels entries per node.
func bruteField(fc fieldCase, matchers []graph.NodeID) []float64 {
	L := fc.levels
	out := make([]float64, fc.g.NumNodes()*L)
	onPath := make([]bool, fc.g.NumNodes())
	var walk func(w graph.NodeID, val float64, edges int)
	walk = func(w graph.NodeID, val float64, edges int) {
		for h := min(edges, L-1); h < L; h++ {
			if edges <= h || (fc.fixpoint && h == L-1) {
				out[int(w)*L+h] = max(out[int(w)*L+h], val)
			}
		}
		if edges >= L-1 && !fc.fixpoint {
			return
		}
		onPath[w] = true
		for _, e := range fc.g.OutEdges(w) {
			if !onPath[e.To] {
				walk(e.To, val*fc.damp[e.To], edges+1)
			}
		}
		onPath[w] = false
	}
	for _, u := range matchers {
		walk(u, fc.gen[u], 0)
	}
	return out
}

// hopsFrom is every node's hop count from the nearest source, by
// breadth-first search along out-edges; -1 when no source reaches it.
func hopsFrom(g *graph.Graph, sources []graph.NodeID) []int {
	hops := make([]int, g.NumNodes())
	for i := range hops {
		hops[i] = -1
	}
	queue := []graph.NodeID{}
	for _, v := range sources {
		if hops[v] < 0 {
			hops[v] = 0
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.OutEdges(u) {
			if hops[e.To] < 0 {
				hops[e.To] = hops[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return hops
}

// inRegion reports whether the field must be exact at a node hops away from
// the query's matching nodes and level h of a diameter-D field: within D−h
// hops. A nil hops table stands for a field exact everywhere.
func inRegion(hops []int, w graph.NodeID, h, diameter int) bool {
	return hops == nil || hops[w] >= 0 && hops[w] <= diameter-h
}

// checkRowBound holds one term's field to what rowSupply reads off it: along
// every edge w→n, field(n, h)·damp(w) ≤ field(w, h+1), and with fixpoint
// field(n, L−1)·damp(w) ≤ field(w, L−1). Every edge has its reverse, so n is
// also a node that relax carries into w. Given hops (then the levels are the
// diameter), it checks the nodes w whose level h+1 is in the region, the only
// ones rowSupply reads it at.
func checkRowBound(t testing.TB, g *graph.Graph, damp []float64, fs *fieldScratch, fixpoint bool, hops []int) {
	t.Helper()
	L := fs.levels
	for w := 0; w < g.NumNodes(); w++ {
		at := fs.row(graph.NodeID(w))
		for _, e := range g.OutEdges(graph.NodeID(w)) {
			for h, val := range fs.row(e.To) {
				up := h + 1
				if up == L {
					if !fixpoint {
						continue
					}
					up = L - 1
				}
				if !inRegion(hops, graph.NodeID(w), up, L) {
					continue
				}
				if val*damp[w] > at[up] {
					t.Fatalf("edge %d→%d: field(%d, %d)·damp(%d) = %v exceeds field(%d, %d) = %v (levels %d, fixpoint %v)",
						w, e.To, e.To, h, w, val*damp[w], w, up, at[up], L, fixpoint)
				}
			}
		}
	}
}

// checkEnumerated holds one term's field to want, its path enumeration:
// equal on the region hops describes, nowhere above it.
func checkEnumerated(t testing.TB, fs *fieldScratch, want []float64, hops []int, what string) {
	t.Helper()
	L := fs.levels
	for w := 0; w*L < len(want); w++ {
		for h, got := range fs.row(graph.NodeID(w)) {
			exact := inRegion(hops, graph.NodeID(w), h, L)
			if got > want[w*L+h] || exact && got != want[w*L+h] {
				t.Fatalf("%s: node %d level %d (of %d, in the region %v): field %v, best enumerated path %v",
					what, w, h, L, exact, got, want[w*L+h])
			}
		}
	}
}

// checkFieldCase relaxes every term of the case into one shared table, as a
// query does, and compares each entry with the enumeration, exactly; the
// table must also carry the row bound. Without fixpoint it relaxes the terms
// again with the levels as the diameter, over the region of the case's
// matching nodes, and holds that field to the enumeration on the region.
// Which direction those restricted rounds take is the caller's: forced to
// pull by ForcePull, or the cost rule's.
func checkFieldCase(t testing.TB, fc fieldCase) {
	t.Helper()
	T, L := len(fc.matchers), fc.levels
	var reg *region
	var hops []int
	if !fc.fixpoint {
		var sources []graph.NodeID
		for _, matchers := range fc.matchers {
			for _, u := range matchers {
				if !slices.Contains(sources, u) {
					sources = append(sources, u)
				}
			}
		}
		reg = &region{}
		reg.grow(fc.g, sources, halfDiameter(L)-1)
		hops = hopsFrom(fc.g, sources)
	}
	table := make([]float64, fc.g.NumNodes()*T*L)
	regioned := make([]float64, len(table))
	for ti, matchers := range fc.matchers {
		fs := fieldScratch{out: table, stride: T * L, off: ti * L, levels: L}
		fs.relax(fc.g, fc.damp, fc.gen, matchers, fc.fixpoint, nil)
		want := bruteField(fc, matchers)
		what := fmt.Sprintf("term %d (fixpoint %v)", ti, fc.fixpoint)
		checkEnumerated(t, &fs, want, nil, what)
		touched := make(map[graph.NodeID]bool)
		for _, w := range fs.touched {
			touched[w] = true
		}
		for w := 0; w < fc.g.NumNodes(); w++ {
			for _, got := range fs.row(graph.NodeID(w)) {
				if got != 0 && !touched[graph.NodeID(w)] {
					t.Fatalf("term %d node %d holds %v but is not listed as touched, so release would leave it dirty", ti, w, got)
				}
			}
		}
		checkRowBound(t, fc.g, fc.damp, &fs, fc.fixpoint, nil)
		if reg != nil {
			fs := fieldScratch{out: regioned, stride: T * L, off: ti * L, levels: L}
			fs.relax(fc.g, fc.damp, fc.gen, matchers, false, reg)
			checkEnumerated(t, &fs, want, hops, what+" over the region")
			checkRowBound(t, fc.g, fc.damp, &fs, false, hops)
		}
	}
}

// TestSupplyFieldMatchesPathEnumeration is the field's soundness argument as
// a property. The fields a real query computes (the model's rates and
// generation counts, the text index's matchers, the pooled table) equal the
// best enumerated path product on the region the search reads — every node
// for a fixpoint field — and never exceed it; they carry the row bound the
// expansion step prices children from (checkRowBound) there. On seeded small
// graphs — random rates, dense enough to hold hubs, per-direction weights,
// nodes matching both terms — every entry of a push-only field equals the
// enumeration, and so does every region entry of a field whose restricted
// rounds all pull.
func TestSupplyFieldMatchesPathEnumeration(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fx := randomFixture(t, rng)
		for _, diameter := range []int{1, 3, 4, 5, 6, maxSupplyLevels + 2} {
			sc := newQueryScratch()
			qc, ok, err := fx.s.prepareInto(sc, []string{"alpha", "beta", "spoke"})
			if err != nil || !ok {
				continue // some term has no matcher in this graph
			}
			qc.supplyFields(fx.g, fx.m.DampVector(), diameter, 2, sc)
			fixpoint := diameter > maxSupplyLevels
			fc := fieldCase{g: fx.g, damp: fx.m.DampVector(), gen: qc.gen, levels: qc.levels, fixpoint: fixpoint}
			var hops []int
			if !fixpoint {
				hops = hopsFrom(fx.g, qc.nonFree)
			}
			for ti := range qc.terms {
				what := fmt.Sprintf("seed %d D=%d term %q", seed, diameter, qc.terms[ti])
				checkEnumerated(t, &sc.fields[ti], bruteField(fc, qc.perTerm[ti]), hops, what)
				checkRowBound(t, fx.g, fc.damp, &sc.fields[ti], fixpoint, hops)
			}
			sc.release()
			for i, v := range sc.field[:cap(sc.field)] {
				if v != 0 {
					t.Fatalf("seed %d D=%d: released table holds %v at %d", seed, diameter, v, i)
				}
			}
		}
	}
	ForcePull(t)
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 400; round++ {
		data := make([]byte, 1+3*8+2*rng.Intn(24))
		rng.Read(data)
		fc, ok := decodeFieldCase(data)
		if !ok {
			t.Fatalf("round %d: %d bytes did not decode", round, len(data))
		}
		checkFieldCase(t, fc)
	}
}

// TestRelaxPullsWhereTheRegionIsSmaller is the cost rule on a hub: alpha
// and beta sit side by side, alpha also next to a hub of spokes that each
// lead on to a leaf. At D = 4 round 2 reaches every spoke from alpha, and
// round 3 needs only the nodes one hop from a matcher — the two matchers and
// the hub, whose out-degrees sum to less than the spokes' — so the rule
// pulls alpha's last round, scanning what a forced pull scans and fewer
// edges than a push; beta's round-3 frontier is the hub alone, which it
// pushes from. Both give the region what the push alone does.
func TestRelaxPullsWhereTheRegionIsSmaller(t *testing.T) {
	const spokes = 64
	texts := []string{"alpha", "beta", "hub"}
	edges := [][2]int{{0, 1}, {0, 2}}
	for i := 0; i < spokes; i++ {
		spoke := len(texts)
		texts = append(texts, "spoke", "leaf")
		edges = append(edges, [2]int{2, spoke}, [2]int{spoke, spoke + 1})
	}
	imp := make([]float64, len(texts))
	for i := range imp {
		imp[i] = 1
	}
	fx := build(t, texts, imp, edges)
	relaxed := func() *queryScratch {
		sc := newQueryScratch()
		qc, ok, err := fx.s.prepareInto(sc, hubTerms)
		if err != nil || !ok {
			t.Fatal("the hub query matched nothing", err)
		}
		qc.supplyFields(fx.g, fx.m.DampVector(), 4, 1, sc)
		return sc
	}
	ruled := relaxed()
	ForcePull(t)
	pulled := relaxed()
	qc := &ruled.qc
	hops := hopsFrom(fx.g, qc.nonFree)
	for ti := range qc.terms {
		pushed := fieldScratch{out: make([]float64, fx.g.NumNodes()*qc.levels), stride: qc.levels, levels: qc.levels}
		pushed.relax(fx.g, fx.m.DampVector(), qc.gen, qc.perTerm[ti], false, nil)
		for _, fs := range []*fieldScratch{&ruled.fields[ti], &pulled.fields[ti]} {
			checkEnumerated(t, fs, pushed.out, hops, "term "+qc.terms[ti])
		}
		got, pull, push := ruled.fields[ti].scanned, pulled.fields[ti].scanned, pushed.scanned
		if want := ti == 0; (got == pull && pull < push) != want {
			t.Errorf("term %q: the rule scanned %d edges, a forced pull %d, the push alone %d; pulled: %v, want %v",
				qc.terms[ti], got, pull, push, got == pull && pull < push, want)
		}
	}
}

// FuzzSupplyField holds the relaxation to the path enumeration, and to the
// row bound, on whatever graph, rates and matcher sets the bytes decode to:
// a push-only field everywhere, and one whose restricted rounds all pull on
// its region. The seeds are the committed corpus under
// testdata/fuzz/FuzzSupplyField.
func FuzzSupplyField(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ForcePull(t)
		if fc, ok := decodeFieldCase(data); ok {
			checkFieldCase(t, fc)
		}
	})
}
