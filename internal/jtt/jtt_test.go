package jtt

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cirank/internal/graph"
)

// pathGraph builds a bidirectional path 0-1-2-…-(n-1).
func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddNode(graph.Node{})
	}
	for i := 0; i+1 < n; i++ {
		b.AddBiEdge(graph.NodeID(i), graph.NodeID(i+1), 1, 1)
	}
	return b.Build()
}

// starGraph builds hub 0 connected to leaves 1..n.
func starGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n + 1)
	for i := 0; i <= n; i++ {
		b.AddNode(graph.Node{})
	}
	for i := 1; i <= n; i++ {
		b.AddBiEdge(0, graph.NodeID(i), 1, 1)
	}
	return b.Build()
}

func mustGrow(t *testing.T, tr *Tree, g *graph.Graph, v graph.NodeID) *Tree {
	t.Helper()
	nt, err := tr.Grow(g, v)
	if err != nil {
		t.Fatal(err)
	}
	return nt
}

func TestSingleNode(t *testing.T) {
	tr := NewSingle(3)
	if tr.Size() != 1 || tr.Root() != 3 || !tr.Contains(3) {
		t.Fatalf("bad single tree: %+v", tr)
	}
	if got := tr.Leaves(); !reflect.DeepEqual(got, []graph.NodeID{3}) {
		t.Errorf("Leaves = %v, want [3]", got)
	}
	if tr.Diameter() != 0 || tr.Depth() != 0 {
		t.Errorf("diameter/depth of single = %d/%d", tr.Diameter(), tr.Depth())
	}
}

func TestGrow(t *testing.T) {
	g := pathGraph(4)
	tr := NewSingle(0)
	tr = mustGrow(t, tr, g, 1)
	tr = mustGrow(t, tr, g, 2)
	if tr.Root() != 2 || tr.Size() != 3 {
		t.Fatalf("root=%d size=%d, want 2, 3", tr.Root(), tr.Size())
	}
	if p, _ := tr.Parent(0); p != 1 {
		t.Errorf("parent(0) = %d, want 1", p)
	}
	if _, err := tr.Grow(g, 1); err == nil {
		t.Error("growing with contained node succeeded")
	}
	if _, err := tr.Grow(g, 0); err == nil {
		t.Error("growing with contained node succeeded")
	}
	far := NewSingle(0)
	if _, err := far.Grow(g, 3); err == nil {
		t.Error("growing without an edge succeeded")
	}
}

func TestGrowImmutable(t *testing.T) {
	g := pathGraph(3)
	tr := NewSingle(0)
	tr2 := mustGrow(t, tr, g, 1)
	if tr.Size() != 1 {
		t.Error("Grow mutated the receiver")
	}
	if tr2.Size() != 2 {
		t.Error("Grow result wrong size")
	}
}

func TestMerge(t *testing.T) {
	g := starGraph(4)
	a := mustGrow(t, NewSingle(1), g, 0)
	b := mustGrow(t, NewSingle(2), g, 0)
	m, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 3 || m.Root() != 0 {
		t.Fatalf("merged size=%d root=%d", m.Size(), m.Root())
	}
	if got := m.Children(0); !reflect.DeepEqual(got, []graph.NodeID{1, 2}) {
		t.Errorf("children = %v", got)
	}
	// Overlapping merge fails.
	c := mustGrow(t, NewSingle(1), g, 0)
	if _, err := a.Merge(c); err == nil {
		t.Error("overlapping merge succeeded")
	}
	// Different-root merge fails.
	d := NewSingle(3)
	if _, err := a.Merge(d); err == nil {
		t.Error("different-root merge succeeded")
	}
}

func TestPath(t *testing.T) {
	g := starGraph(4)
	a := mustGrow(t, NewSingle(1), g, 0)
	b := mustGrow(t, NewSingle(2), g, 0)
	m, _ := a.Merge(b)
	if got := m.Path(1, 2); !reflect.DeepEqual(got, []graph.NodeID{1, 0, 2}) {
		t.Errorf("Path(1,2) = %v, want [1 0 2]", got)
	}
	if got := m.Path(1, 1); !reflect.DeepEqual(got, []graph.NodeID{1}) {
		t.Errorf("Path(1,1) = %v, want [1]", got)
	}
	if got := m.Path(0, 2); !reflect.DeepEqual(got, []graph.NodeID{0, 2}) {
		t.Errorf("Path(0,2) = %v, want [0 2]", got)
	}
	if got := m.Path(2, 1); !reflect.DeepEqual(got, []graph.NodeID{2, 0, 1}) {
		t.Errorf("Path(2,1) = %v, want [2 0 1]", got)
	}
}

func TestNeighborsAndLeaves(t *testing.T) {
	g := starGraph(4)
	a := mustGrow(t, NewSingle(1), g, 0)
	b := mustGrow(t, NewSingle(2), g, 0)
	m, _ := a.Merge(b)
	if got := m.Children(0); !reflect.DeepEqual(got, []graph.NodeID{1, 2}) {
		t.Errorf("Children(0) = %v", got)
	}
	if p, ok := m.Parent(1); !ok || p != 0 {
		t.Errorf("Parent(1) = %v, %v", p, ok)
	}
	if got := m.Leaves(); !reflect.DeepEqual(got, []graph.NodeID{1, 2}) {
		t.Errorf("Leaves = %v", got)
	}
}

func TestDiameterChainVsStar(t *testing.T) {
	g := pathGraph(5)
	tr := NewSingle(0)
	for i := 1; i < 5; i++ {
		tr = mustGrow(t, tr, g, graph.NodeID(i))
	}
	if d := tr.Diameter(); d != 4 {
		t.Errorf("chain diameter = %d, want 4", d)
	}
	sg := starGraph(4)
	st := mustGrow(t, NewSingle(1), sg, 0)
	for i := 2; i <= 4; i++ {
		leaf := mustGrow(t, NewSingle(graph.NodeID(i)), sg, 0)
		var err error
		st, err = st.Merge(leaf)
		if err != nil {
			t.Fatal(err)
		}
	}
	if d := st.Diameter(); d != 2 {
		t.Errorf("star diameter = %d, want 2", d)
	}
}

func TestCanonicalKeyRootInvariant(t *testing.T) {
	g := pathGraph(3)
	// Same chain built in two rootings.
	t1 := mustGrow(t, mustGrow(t, NewSingle(0), g, 1), g, 2)   // rooted at 2
	t2up := mustGrow(t, mustGrow(t, NewSingle(2), g, 1), g, 0) // rooted at 0
	if t1.CanonicalKey() != t2up.CanonicalKey() {
		t.Errorf("keys differ: %q vs %q", t1.CanonicalKey(), t2up.CanonicalKey())
	}
	other := mustGrow(t, NewSingle(0), g, 1)
	if t1.CanonicalKey() == other.CanonicalKey() {
		t.Error("different trees share a key")
	}
}

func TestIsReduced(t *testing.T) {
	g := starGraph(4)
	a := mustGrow(t, NewSingle(1), g, 0)
	b := mustGrow(t, NewSingle(2), g, 0)
	m, _ := a.Merge(b)
	nonFree := func(v graph.NodeID) bool { return v == 1 || v == 2 }
	if !m.IsReduced(nonFree) {
		t.Error("star with matching leaves judged not reduced")
	}
	// A chain rooted at free node with one child is not reduced.
	chain := mustGrow(t, NewSingle(1), g, 0) // root 0 free, single child
	if chain.IsReduced(nonFree) {
		t.Error("free single-child root judged reduced")
	}
	// Free leaf is not reduced.
	freeLeaf, _ := a.Merge(mustGrow(t, NewSingle(3), g, 0))
	if freeLeaf.IsReduced(nonFree) {
		t.Error("free leaf judged reduced")
	}
}

func TestReduce(t *testing.T) {
	g := starGraph(4)
	a := mustGrow(t, NewSingle(1), g, 0)
	b := mustGrow(t, NewSingle(2), g, 0)
	c := mustGrow(t, NewSingle(3), g, 0)
	m, _ := a.Merge(b)
	m, _ = m.Merge(c)
	keep := func(v graph.NodeID) bool { return v == 1 || v == 2 }
	r := m.Reduce(keep)
	if r.Size() != 3 || r.Contains(3) {
		t.Errorf("Reduce left %v", r.Nodes())
	}
	// Chain with free tail: 1-0 rooted at 0; reduces to single node 1.
	chain := mustGrow(t, NewSingle(1), g, 0)
	r2 := chain.Reduce(func(v graph.NodeID) bool { return v == 1 })
	if r2.Size() != 1 || r2.Root() != 1 {
		t.Errorf("Reduce chain → %v root %d", r2.Nodes(), r2.Root())
	}
}

// Property: grow followed by Path between the two former endpoints passes
// through every chain node; canonical keys are stable under rebuilding.
func TestPathEndpointsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := pathGraph(n)
		tr := NewSingle(0)
		for i := 1; i < n; i++ {
			nt, err := tr.Grow(g, graph.NodeID(i))
			if err != nil {
				return false
			}
			tr = nt
		}
		p := tr.Path(0, graph.NodeID(n-1))
		if len(p) != n {
			return false
		}
		for i, v := range p {
			if v != graph.NodeID(i) {
				return false
			}
		}
		return tr.Diameter() == n-1 && tr.Depth() == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestReroot(t *testing.T) {
	g := starGraph(4)
	a := mustGrow(t, NewSingle(1), g, 0)
	b := mustGrow(t, NewSingle(2), g, 0)
	m, _ := a.Merge(b)
	// Rooted at hub 0; re-root at leaf 1.
	r := m.Reroot(1)
	if r.Root() != 1 {
		t.Fatalf("root = %d, want 1", r.Root())
	}
	if r.CanonicalKey() != m.CanonicalKey() {
		t.Error("reroot changed the undirected tree")
	}
	if p, ok := r.Parent(0); !ok || p != 1 {
		t.Errorf("parent(0) = %d, %v; want 1", p, ok)
	}
	// Re-rooting at the current root is a no-op.
	if same := m.Reroot(m.Root()); same.Root() != m.Root() {
		t.Error("self reroot changed root")
	}
	// The original is not mutated.
	if m.Root() != 0 {
		t.Errorf("original mutated: root %d", m.Root())
	}
	defer func() {
		if recover() == nil {
			t.Error("reroot at absent node did not panic")
		}
	}()
	m.Reroot(99)
}

func TestRerootChainProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(7)
		g := pathGraph(n)
		tr := NewSingle(0)
		for i := 1; i < n; i++ {
			tr = mustGrowQuiet(tr, g, graph.NodeID(i))
			if tr == nil {
				return false
			}
		}
		for v := 0; v < n; v++ {
			r := tr.Reroot(graph.NodeID(v))
			if r.Root() != graph.NodeID(v) || r.Size() != n {
				return false
			}
			if r.CanonicalKey() != tr.CanonicalKey() {
				return false
			}
			if r.Depth() > n-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// mustGrowQuiet is Grow returning nil on error (for property funcs).
func mustGrowQuiet(tr *Tree, g *graph.Graph, v graph.NodeID) *Tree {
	nt, err := tr.Grow(g, v)
	if err != nil {
		return nil
	}
	return nt
}
