package relational

import (
	"reflect"
	"testing"

	"cirank/internal/graph"
	"cirank/internal/textindex"
)

func TestSchemaValidate(t *testing.T) {
	cases := []struct {
		name    string
		schema  *Schema
		wantErr bool
	}{
		{"imdb ok", IMDBSchema(), false},
		{"dblp ok", DBLPSchema(), false},
		{"dup table", &Schema{Tables: []string{"A", "A"}}, true},
		{"empty table", &Schema{Tables: []string{""}}, true},
		{"unknown from", &Schema{
			Tables:        []string{"A"},
			Relationships: []Relationship{{Name: "r", From: "B", To: "A"}},
		}, true},
		{"unknown to", &Schema{
			Tables:        []string{"A"},
			Relationships: []Relationship{{Name: "r", From: "A", To: "B"}},
		}, true},
		{"dup relationship", &Schema{
			Tables: []string{"A", "B"},
			Relationships: []Relationship{
				{Name: "r", From: "A", To: "B"},
				{Name: "r", From: "B", To: "A"},
			},
		}, true},
		{"unnamed relationship", &Schema{
			Tables:        []string{"A", "B"},
			Relationships: []Relationship{{From: "A", To: "B"}},
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.schema.Validate()
			if (err != nil) != c.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, c.wantErr)
			}
		})
	}
}

func TestInsertAndRelateErrors(t *testing.T) {
	db, err := NewDatabase(DBLPSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("NoSuchTable", Tuple{Key: "x"}); err == nil {
		t.Error("insert into unknown table succeeded")
	}
	if err := db.Insert("Paper", Tuple{}); err == nil {
		t.Error("insert with empty key succeeded")
	}
	if err := db.Insert("Paper", Tuple{Key: "p1", Text: "a paper"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Paper", Tuple{Key: "p1"}); err == nil {
		t.Error("duplicate key insert succeeded")
	}
	if err := db.Relate("no_such_rel", "p1", "p1"); err == nil {
		t.Error("relate on unknown relationship succeeded")
	}
	if err := db.Relate("written_by", "p1", "missing-author"); err == nil {
		t.Error("relate to missing tuple succeeded")
	}
	if err := db.Relate("cites", "p1", "p1"); err == nil {
		t.Error("self-relate succeeded")
	}
}

// buildDBLPFixture builds the Fig. 2 scenario: two authors joined by two
// papers, one much more cited than the other.
func buildDBLPFixture(t *testing.T) (*Database, *graph.Graph, *Mapping) {
	t.Helper()
	db, err := NewDatabase(DBLPSchema())
	if err != nil {
		t.Fatal(err)
	}
	db.MustInsert("Author", Tuple{Key: "a1", Text: "Yannis Papakonstantinou"})
	db.MustInsert("Author", Tuple{Key: "a2", Text: "Jeffrey Ullman"})
	db.MustInsert("Paper", Tuple{Key: "p1", Text: "Capability Based Mediation in TSIMMIS"})
	db.MustInsert("Paper", Tuple{Key: "p2", Text: "The TSIMMIS Project Integration of Heterogeneous Information Sources"})
	db.MustInsert("Conference", Tuple{Key: "c1", Text: "VLDB"})
	db.MustRelate("written_by", "p1", "a1")
	db.MustRelate("written_by", "p1", "a2")
	db.MustRelate("written_by", "p2", "a1")
	db.MustRelate("written_by", "p2", "a2")
	db.MustRelate("appears_in", "p1", "c1")
	db.MustRelate("appears_in", "p2", "c1")
	g, m, err := BuildGraph(db, graph.DefaultDBLPWeights(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return db, g, m
}

func TestBuildGraphBasics(t *testing.T) {
	db, g, m := buildDBLPFixture(t)
	if g.NumNodes() != db.NumTuples() {
		t.Fatalf("NumNodes = %d, want %d", g.NumNodes(), db.NumTuples())
	}
	// 6 links × 2 directions.
	if g.NumEdges() != 12 {
		t.Fatalf("NumEdges = %d, want 12", g.NumEdges())
	}
	p1 := m.MustNodeOf("Paper", "p1")
	a1 := m.MustNodeOf("Author", "a1")
	if w, ok := g.Weight(p1, a1); !ok || w != 1.0 {
		t.Errorf("Paper→Author weight = %v, %v; want 1.0", w, ok)
	}
	c1 := m.MustNodeOf("Conference", "c1")
	if w, ok := g.Weight(p1, c1); !ok || w != 0.5 {
		t.Errorf("Paper→Conference weight = %v, %v; want 0.5", w, ok)
	}
	if g.Node(p1).Relation != "Paper" {
		t.Errorf("node relation = %q, want Paper", g.Node(p1).Relation)
	}
	if g.Node(a1).Words != 2 {
		t.Errorf("author words = %d, want 2", g.Node(a1).Words)
	}
}

func TestCitationWeightAsymmetry(t *testing.T) {
	db, err := NewDatabase(DBLPSchema())
	if err != nil {
		t.Fatal(err)
	}
	db.MustInsert("Paper", Tuple{Key: "citing", Text: "new work"})
	db.MustInsert("Paper", Tuple{Key: "cited", Text: "old work"})
	db.MustRelate("cites", "citing", "cited")
	g, m, err := BuildGraph(db, graph.DefaultDBLPWeights(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	citing := m.MustNodeOf("Paper", "citing")
	cited := m.MustNodeOf("Paper", "cited")
	if w, _ := g.Weight(citing, cited); w != 0.5 {
		t.Errorf("citing→cited weight = %g, want 0.5", w)
	}
	if w, _ := g.Weight(cited, citing); w != 0.1 {
		t.Errorf("cited→citing weight = %g, want 0.1", w)
	}
}

func TestEntityMerging(t *testing.T) {
	db, err := NewDatabase(IMDBSchema())
	if err != nil {
		t.Fatal(err)
	}
	// Mel Gibson directs and acts in Braveheart: two tuples, one entity.
	db.MustInsert("Movie", Tuple{Key: "m1", Text: "Braveheart 1995"})
	db.MustInsert("Actor", Tuple{Key: "act-mel", Text: "Mel Gibson", EntityKey: "person:mel"})
	db.MustInsert("Director", Tuple{Key: "dir-mel", Text: "Mel Gibson", EntityKey: "person:mel"})
	db.MustRelate("acts_in", "act-mel", "m1")
	db.MustRelate("directs", "dir-mel", "m1")
	g, m, err := BuildGraph(db, graph.DefaultIMDBWeights(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2 (entity merged)", g.NumNodes())
	}
	actNode := m.MustNodeOf("Actor", "act-mel")
	dirNode := m.MustNodeOf("Director", "dir-mel")
	if actNode != dirNode {
		t.Fatalf("actor node %d != director node %d, want merged", actNode, dirNode)
	}
	// The two role edges accumulate: weight 1.0 (acting) + 1.0 (directing).
	movie := m.MustNodeOf("Movie", "m1")
	if w, _ := g.Weight(actNode, movie); w != 2.0 {
		t.Errorf("merged person→movie weight = %g, want 2.0 (accumulated)", w)
	}
	// Identical text is not duplicated.
	if g.Node(actNode).Text != "Mel Gibson" {
		t.Errorf("merged text = %q, want %q", g.Node(actNode).Text, "Mel Gibson")
	}
}

func TestEntityMergingDistinctText(t *testing.T) {
	db, err := NewDatabase(IMDBSchema())
	if err != nil {
		t.Fatal(err)
	}
	db.MustInsert("Actor", Tuple{Key: "a", Text: "Mel Gibson", EntityKey: "p"})
	db.MustInsert("Producer", Tuple{Key: "b", Text: "Mel Gibson producer", EntityKey: "p"})
	g, m, err := BuildGraph(db, graph.DefaultIMDBWeights(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	node := m.MustNodeOf("Actor", "a")
	if g.Node(node).Words != 3 {
		t.Errorf("merged words = %d, want 3", g.Node(node).Words)
	}
	_ = m
}

// TestNodeWordsMatchTokenizer: graph.Node.Words is the |v| the RWMP model
// and SPARK divide by, and the text index holds no second copy, so it must
// count exactly the tokens the index sees — for merged entities (whose text
// grows per role) and for text the public Builder stripped of stop words.
func TestNodeWordsMatchTokenizer(t *testing.T) {
	db, err := NewDatabase(IMDBSchema())
	if err != nil {
		t.Fatal(err)
	}
	db.MustInsert("Movie", Tuple{Key: "m1", Text: "Braveheart (1995)"})
	db.MustInsert("Movie", Tuple{Key: "m2", Text: ""})
	db.MustInsert("Movie", Tuple{Key: "m3", Text: "art computer programming"}) // "The Art of ..." after stop words
	db.MustInsert("Actor", Tuple{Key: "a1", Text: "Mel Gibson", EntityKey: "p"})
	db.MustInsert("Director", Tuple{Key: "d1", Text: "Mel Gibson", EntityKey: "p"})
	db.MustInsert("Producer", Tuple{Key: "p1", Text: "Mel-Gibson, producer", EntityKey: "p"})
	db.MustInsert("Actor", Tuple{Key: "a2", Text: "ÜBER straße  x_y", EntityKey: "q"})
	db.MustRelate("acts_in", "a1", "m1")
	g, _, err := BuildGraph(db, graph.DefaultIMDBWeights(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		node := g.Node(graph.NodeID(v))
		if want := len(textindex.Tokenize(node.Text)); node.Words != want {
			t.Errorf("node %d (%s/%s, %q): Words = %d, tokens %d", v, node.Relation, node.Key, node.Text, node.Words, want)
		}
	}
}

func TestStarTables(t *testing.T) {
	if got := StarTables(IMDBSchema()); !reflect.DeepEqual(got, []string{"Movie"}) {
		t.Errorf("IMDB star tables = %v, want [Movie]", got)
	}
	if got := StarTables(DBLPSchema()); !reflect.DeepEqual(got, []string{"Paper"}) {
		t.Errorf("DBLP star tables = %v, want [Paper]", got)
	}
	// Chain schema A-B-C needs B (covers both) — greedy picks B.
	chain := &Schema{
		Tables: []string{"A", "B", "C"},
		Relationships: []Relationship{
			{Name: "ab", From: "A", To: "B"},
			{Name: "bc", From: "B", To: "C"},
		},
	}
	if got := StarTables(chain); !reflect.DeepEqual(got, []string{"B"}) {
		t.Errorf("chain star tables = %v, want [B]", got)
	}
	// Two disjoint relationship pairs need two star tables.
	double := &Schema{
		Tables: []string{"A", "B", "C", "D"},
		Relationships: []Relationship{
			{Name: "ab", From: "A", To: "B"},
			{Name: "cd", From: "C", To: "D"},
		},
	}
	if got := StarTables(double); len(got) != 2 {
		t.Errorf("double star tables = %v, want 2 tables", got)
	}
}

func TestStarNodeSet(t *testing.T) {
	_, g, m := buildDBLPFixture(t)
	stars := StarNodeSet(g, []string{"Paper"})
	p1 := m.MustNodeOf("Paper", "p1")
	a1 := m.MustNodeOf("Author", "a1")
	if !stars[p1] {
		t.Error("paper node not marked star")
	}
	if stars[a1] {
		t.Error("author node marked star")
	}
}

func TestLookupAndKeys(t *testing.T) {
	db, _, _ := buildDBLPFixture(t)
	if got := db.Keys("Author"); !reflect.DeepEqual(got, []string{"a1", "a2"}) {
		t.Errorf("Keys(Author) = %v", got)
	}
	if tu, ok := db.Lookup("Paper", "p1"); !ok || tu.Text == "" {
		t.Errorf("Lookup(Paper, p1) = %v, %v", tu, ok)
	}
	if _, ok := db.Lookup("Paper", "zzz"); ok {
		t.Error("Lookup of missing key succeeded")
	}
	if db.TableSize("Paper") != 2 {
		t.Errorf("TableSize(Paper) = %d, want 2", db.TableSize("Paper"))
	}
}

func TestBuildGraphRejectsBadDefault(t *testing.T) {
	db, _ := NewDatabase(DBLPSchema())
	if _, _, err := BuildGraph(db, nil, 0); err == nil {
		t.Error("BuildGraph accepted zero default weight")
	}
}

func TestEachLink(t *testing.T) {
	db, _, _ := buildDBLPFixture(t)
	type link struct{ rel, from, to string }
	var got []link
	db.EachLink(func(rel Relationship, fromKey, toKey string) {
		got = append(got, link{rel.Name, fromKey, toKey})
	})
	want := []link{
		{"written_by", "p1", "a1"},
		{"written_by", "p1", "a2"},
		{"written_by", "p2", "a1"},
		{"written_by", "p2", "a2"},
		{"appears_in", "p1", "c1"},
		{"appears_in", "p2", "c1"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("EachLink replay = %v, want %v", got, want)
	}
}
