package textindex

import (
	"reflect"
	"testing"
	"testing/quick"

	"cirank/internal/graph"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"The TSIMMIS Project: Integration", []string{"the", "tsimmis", "project", "integration"}},
		{"", nil},
		{"   ", nil},
		{"a-b_c.d", []string{"a", "b", "c", "d"}},
		{"Braveheart (1995)", []string{"braveheart", "1995"}},
		{"ÜBER straße", []string{"über", "straße"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func testGraph() *graph.Graph {
	b := graph.NewBuilder(4)
	add := func(rel, text string) {
		b.AddNode(graph.Node{Relation: rel, Text: text, Words: WordCount(text)})
	}
	add("Author", "Yannis Papakonstantinou")
	add("Author", "Jeffrey Ullman")
	add("Paper", "The TSIMMIS Project TSIMMIS")
	add("Paper", "Capability Based Mediation in TSIMMIS")
	return b.Build()
}

func TestBuildAndLookup(t *testing.T) {
	ix := Build(testGraph())
	if got := ix.MatchingNodes("tsimmis"); !reflect.DeepEqual(got, []graph.NodeID{2, 3}) {
		t.Errorf("MatchingNodes(tsimmis) = %v, want [2 3]", got)
	}
	if got := ix.TF(2, "tsimmis"); got != 2 {
		t.Errorf("TF(2, tsimmis) = %d, want 2", got)
	}
	if got := ix.TF(0, "tsimmis"); got != 0 {
		t.Errorf("TF(0, tsimmis) = %d, want 0", got)
	}
	if got := ix.DFTotal("tsimmis"); got != 2 {
		t.Errorf("DFTotal(tsimmis) = %d, want 2", got)
	}
}

func TestCaseInsensitiveLookup(t *testing.T) {
	ix := Build(testGraph())
	if got := ix.TF(1, "ULLMAN"); got != 1 {
		t.Errorf("TF(1, ULLMAN) = %d, want 1 (case-insensitive)", got)
	}
	if got := len(ix.MatchingNodes("Papakonstantinou")); got != 1 {
		t.Errorf("MatchingNodes mixed case matched %d nodes, want 1", got)
	}
}

func TestQueryMatchCount(t *testing.T) {
	ix := Build(testGraph())
	// Node 2 text: "The TSIMMIS Project TSIMMIS".
	if got := ix.QueryMatchCount(2, []string{"tsimmis", "project"}); got != 3 {
		t.Errorf("QueryMatchCount = %d, want 3 (two tsimmis + one project)", got)
	}
	// Duplicate query terms count once.
	if got := ix.QueryMatchCount(2, []string{"tsimmis", "tsimmis"}); got != 2 {
		t.Errorf("QueryMatchCount with dup terms = %d, want 2", got)
	}
	if got := ix.QueryMatchCount(0, []string{"ullman"}); got != 0 {
		t.Errorf("QueryMatchCount non-matching = %d, want 0", got)
	}
}

func TestUnknownTerm(t *testing.T) {
	ix := Build(testGraph())
	if got := ix.MatchingNodes("nonexistent"); len(got) != 0 {
		t.Errorf("MatchingNodes(nonexistent) = %v, want empty", got)
	}
}

// Property: the TFs of a node's distinct terms sum to the node's token
// count.
func TestIndexInvariants(t *testing.T) {
	f := func(texts []string) bool {
		b := graph.NewBuilder(len(texts))
		for _, s := range texts {
			b.AddNode(graph.Node{Relation: "R", Text: s, Words: WordCount(s)})
		}
		g := b.Build()
		ix := Build(g)
		for i := 0; i < g.NumNodes(); i++ {
			id := graph.NodeID(i)
			terms := Tokenize(g.Node(id).Text)
			sum := 0
			seen := map[string]bool{}
			for _, term := range terms {
				if seen[term] {
					continue
				}
				seen[term] = true
				tf := ix.TF(id, term)
				if tf < 1 {
					return false
				}
				sum += tf
			}
			if sum != len(terms) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
