package baseline

import (
	"math"
	"testing"

	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/textindex"
)

// fig2Graph builds the Fig. 2 scenario: authors 0, 1; papers 2 (short
// title) and 3 (long title), both connecting the authors.
func fig2Graph(t *testing.T) (*graph.Graph, *textindex.Index) {
	t.Helper()
	b := graph.NewBuilder(4)
	add := func(rel, text string) {
		b.AddNode(graph.Node{Relation: rel, Text: text, Words: textindex.WordCount(text)})
	}
	add("Author", "Yannis Papakonstantinou")
	add("Author", "Jeffrey Ullman")
	add("Paper", "Capability Mediation")                                     // short title, few citations
	add("Paper", "The TSIMMIS Project Integration of Heterogeneous Sources") // long title, many citations
	b.AddBiEdge(0, 2, 1, 1)
	b.AddBiEdge(1, 2, 1, 1)
	b.AddBiEdge(0, 3, 1, 1)
	b.AddBiEdge(1, 3, 1, 1)
	g := b.Build()
	return g, textindex.Build(g)
}

// TestSparkRelationStatistics checks the per-relation statistics SPARK
// derives from the graph and the postings on a four-tuple corpus: two
// authors and two papers, "tsimmis" occurring only in the papers.
func TestSparkRelationStatistics(t *testing.T) {
	b := graph.NewBuilder(4)
	add := func(rel, text string) {
		b.AddNode(graph.Node{Relation: rel, Text: text, Words: textindex.WordCount(text)})
	}
	add("Author", "Yannis Papakonstantinou")
	add("Author", "Jeffrey Ullman")
	add("Paper", "The TSIMMIS Project TSIMMIS")
	add("Paper", "Capability Based Mediation in TSIMMIS")
	g := b.Build()
	sp := NewSpark(g, textindex.Build(g))
	if got := sp.df("tsimmis", "Paper"); got != 2 {
		t.Errorf("df(tsimmis, Paper) = %d, want 2", got)
	}
	if got := sp.df("tsimmis", "Author"); got != 0 {
		t.Errorf("df(tsimmis, Author) = %d, want 0", got)
	}
	if got := sp.df("TSIMMIS", "Paper"); got != 2 {
		t.Errorf("df(TSIMMIS, Paper) = %d, want 2 (case-insensitive)", got)
	}
	if got := sp.relationTuples("Paper"); got != 2 {
		t.Errorf("relationTuples(Paper) = %d, want 2", got)
	}
	if got := sp.relationAvgLen("Author"); got != 2 {
		t.Errorf("relationAvgLen(Author) = %g, want 2", got)
	}
	if got := sp.relationAvgLen("Paper"); got != 4.5 {
		t.Errorf("relationAvgLen(Paper) = %g, want 4.5", got)
	}
	if got := sp.relationTuples("NoSuchRel"); got != 0 {
		t.Errorf("relationTuples(NoSuchRel) = %d, want 0", got)
	}
	if got := sp.relationAvgLen("NoSuchRel"); got != 0 {
		t.Errorf("relationAvgLen(NoSuchRel) = %g, want 0", got)
	}
}

// viaPaper builds the author–paper–author tree through the given paper.
func viaPaper(t *testing.T, g *graph.Graph, paper graph.NodeID) *jtt.Tree {
	t.Helper()
	left, err := jtt.NewSingle(0).Grow(g, paper)
	if err != nil {
		t.Fatal(err)
	}
	right, err := jtt.NewSingle(1).Grow(g, paper)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := left.Merge(right)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

var fig2Terms = []string{"papakonstantinou", "ullman"}

func TestSparkPrefersShorterTitle(t *testing.T) {
	// §II-B.1: with all else equal, SPARK's dl_T normalization makes the
	// tree through the SHORT-titled paper (a) score higher than through the
	// long-titled important paper (b) — the wrong preference CI-Rank fixes.
	g, ix := fig2Graph(t)
	sp := NewSpark(g, ix)
	short := sp.Score(viaPaper(t, g, 2), fig2Terms)
	long := sp.Score(viaPaper(t, g, 3), fig2Terms)
	if short <= long {
		t.Errorf("SPARK should prefer the shorter-text tree: short %g vs long %g", short, long)
	}
}

func TestSparkCompletenessFactor(t *testing.T) {
	g, ix := fig2Graph(t)
	sp := NewSpark(g, ix)
	full := viaPaper(t, g, 2)
	if b := sp.scoreB(full, fig2Terms); math.Abs(b-1) > 1e-12 {
		t.Errorf("scoreB with full coverage = %g, want 1", b)
	}
	single := jtt.NewSingle(0) // covers papakonstantinou only
	b := sp.scoreB(single, fig2Terms)
	if b <= 0 || b >= 1 {
		t.Errorf("scoreB with half coverage = %g, want in (0,1)", b)
	}
	none := jtt.NewSingle(2)
	if b := sp.scoreB(none, fig2Terms); b != 0 {
		t.Errorf("scoreB with no coverage = %g, want 0", b)
	}
}

func TestSparkSizeNormalization(t *testing.T) {
	g, ix := fig2Graph(t)
	sp := NewSpark(g, ix)
	small := jtt.NewSingle(0)
	big := viaPaper(t, g, 2)
	if sp.scoreC(small) <= sp.scoreC(big) {
		t.Error("scoreC should decrease with size")
	}
}

func TestBanksIgnoresIntermediateNodes(t *testing.T) {
	// §II-B.2 / Fig. 3: swapping the free intermediate node for another
	// with identical edges leaves the BANKS score unchanged, because only
	// root and leaf weights count.
	b := graph.NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.AddNode(graph.Node{Relation: "R", Text: "x", Words: 1})
	}
	// Actors 0, 1 connected via movie 2 or movie 3; movie 3 is far more
	// connected (more popular): extra fan node 4.
	b.AddBiEdge(0, 2, 1, 1)
	b.AddBiEdge(1, 2, 1, 1)
	b.AddBiEdge(0, 3, 1, 1)
	b.AddBiEdge(1, 3, 1, 1)
	b.AddBiEdge(4, 3, 1, 1)
	g := b.Build()
	bk := NewBanks(g, nil)
	// Root at actor 0, intermediate movie, leaf actor 1 — the paper's
	// Fig. 3 shape, where the movie is a true intermediate node.
	chain := func(movie graph.NodeID) *jtt.Tree {
		t1, _ := jtt.NewSingle(1).Grow(g, movie)
		t2, _ := t1.Grow(g, 0)
		return t2
	}
	s2 := bk.Score(chain(2), nil)
	s3 := bk.Score(chain(3), nil)
	if math.Abs(s2-s3) > 1e-12 {
		t.Errorf("BANKS distinguishes intermediate nodes: %g vs %g", s2, s3)
	}
}

func TestBanksPrefersFewerEdges(t *testing.T) {
	b := graph.NewBuilder(4)
	for i := 0; i < 4; i++ {
		b.AddNode(graph.Node{Relation: "R", Text: "x", Words: 1})
	}
	b.AddBiEdge(0, 1, 1, 1)
	b.AddBiEdge(1, 2, 1, 1)
	b.AddBiEdge(2, 3, 1, 1)
	b.AddBiEdge(0, 3, 1, 1)
	g := b.Build()
	bk := NewBanks(g, nil)
	direct, _ := jtt.NewSingle(0).Grow(g, 3)
	long := jtt.NewSingle(0)
	for _, v := range []graph.NodeID{1, 2, 3} {
		long, _ = long.Grow(g, v)
	}
	if bk.Score(direct, nil) <= bk.Score(long, nil) {
		t.Error("BANKS should prefer the tree with fewer/cheaper edges")
	}
}

func TestBanksPrestigeFavorsHubs(t *testing.T) {
	b := graph.NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.AddNode(graph.Node{Relation: "R", Text: "x", Words: 1})
	}
	for i := 1; i < 5; i++ {
		b.AddBiEdge(0, graph.NodeID(i), 1, 1)
	}
	g := b.Build()
	bk := NewBanks(g, nil)
	if bk.prestige[0] <= bk.prestige[1] {
		t.Errorf("hub prestige %g not above leaf %g", bk.prestige[0], bk.prestige[1])
	}
	if bk.prestige[0] != 1 {
		t.Errorf("max prestige = %g, want normalized 1", bk.prestige[0])
	}
}

func TestRankOrderingDeterministic(t *testing.T) {
	g, ix := fig2Graph(t)
	sp := NewSpark(g, ix)
	trees := []*jtt.Tree{viaPaper(t, g, 3), viaPaper(t, g, 2), jtt.NewSingle(0)}
	r1 := Rank(sp, trees, fig2Terms)
	r2 := Rank(sp, trees, fig2Terms)
	if len(r1) != 3 {
		t.Fatalf("Rank returned %d", len(r1))
	}
	for i := range r1 {
		if r1[i].Tree.CanonicalKey() != r2[i].Tree.CanonicalKey() {
			t.Error("Rank is not deterministic")
		}
		if i > 0 && r1[i].Score > r1[i-1].Score {
			t.Error("Rank not descending")
		}
	}
}

func TestDedupeTerms(t *testing.T) {
	got := dedupeTerms([]string{"a", "b", "a", "c", "b"})
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("dedupeTerms = %v", got)
	}
}
