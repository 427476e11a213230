package cirank

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"cirank/internal/textindex"
)

// fig2Engine builds the paper's Fig. 2 scenario through the public API.
func fig2Engine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	b := NewDBLPBuilder()
	b.MustInsert("Author", "a1", "Yannis Papakonstantinou")
	b.MustInsert("Author", "a2", "Jeffrey Ullman")
	b.MustInsert("Paper", "p1", "Capability Based Mediation in TSIMMIS")
	b.MustInsert("Paper", "p2", "The TSIMMIS Project Integration of Heterogeneous Information Sources")
	b.MustInsert("Paper", "c1", "citing one")
	b.MustInsert("Paper", "c2", "citing two")
	b.MustInsert("Paper", "c3", "citing three")
	for _, p := range []string{"p1", "p2"} {
		b.MustRelate("written_by", p, "a1")
		b.MustRelate("written_by", p, "a2")
	}
	// p2 is much more cited.
	b.MustRelate("cites", "c1", "p2")
	b.MustRelate("cites", "c2", "p2")
	b.MustRelate("cites", "c3", "p2")
	b.MustRelate("cites", "c1", "p1")
	eng, err := b.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestEngineSearchFig2(t *testing.T) {
	eng := fig2Engine(t, DefaultConfig())
	res, err := eng.Search("Papakonstantinou Ullman", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	// The top answer must connect through the highly-cited paper p2.
	foundP2 := false
	for _, row := range res[0].Rows {
		if row.Table == "Paper" && row.Key == "p2" {
			foundP2 = true
			if row.Matched {
				t.Error("connector paper marked as matched")
			}
		}
	}
	if !foundP2 {
		t.Errorf("top answer does not use the cited paper: %+v", res[0].Rows)
	}
	if res[0].Score <= res[1].Score {
		t.Error("results not in descending score order")
	}
	// Tree structure: 3 rows, 2 edges, authors matched.
	if len(res[0].Rows) != 3 || len(res[0].Edges) != 2 {
		t.Errorf("unexpected answer shape: %d rows, %d edges", len(res[0].Rows), len(res[0].Edges))
	}
	matched := 0
	for _, r := range res[0].Rows {
		if r.Matched {
			matched++
		}
	}
	if matched != 2 {
		t.Errorf("matched rows = %d, want 2 authors", matched)
	}
}

func TestEngineSearchValidation(t *testing.T) {
	eng := fig2Engine(t, DefaultConfig())
	if _, err := eng.Search("ullman", 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := eng.Search("", 3); err == nil {
		t.Error("empty query accepted")
	}
	res, err := eng.Search("ullman nosuchword", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Error("AND semantics violated through public API")
	}
}

func TestEngineImportance(t *testing.T) {
	eng := fig2Engine(t, DefaultConfig())
	p2, ok := eng.Importance("Paper", "p2")
	if !ok {
		t.Fatal("p2 importance missing")
	}
	p1, ok := eng.Importance("Paper", "p1")
	if !ok {
		t.Fatal("p1 importance missing")
	}
	if p2 <= p1 {
		t.Errorf("cited paper importance %g not above %g", p2, p1)
	}
	if _, ok := eng.Importance("Paper", "zzz"); ok {
		t.Error("missing tuple reported importance")
	}
	if eng.NumNodes() != 7 {
		t.Errorf("NumNodes = %d, want 7", eng.NumNodes())
	}
	if eng.NumEdges() == 0 {
		t.Error("no edges")
	}
}

func TestFeedbackBiasing(t *testing.T) {
	build := func(mix float64) *Engine {
		b := NewDBLPBuilder()
		b.MustInsert("Author", "a1", "grace smith")
		b.MustInsert("Author", "a2", "henry smith")
		b.MustInsert("Paper", "p1", "first topic")
		b.MustInsert("Paper", "p2", "second topic")
		b.MustRelate("written_by", "p1", "a1")
		b.MustRelate("written_by", "p2", "a2")
		b.AddFeedback("Author", "a2", 1)
		cfg := DefaultConfig()
		cfg.FeedbackMix = mix
		eng, err := b.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	plain := build(0)
	biased := build(0.5)
	pPlain, _ := plain.Importance("Author", "a2")
	pBiased, _ := biased.Importance("Author", "a2")
	if pBiased <= pPlain {
		t.Errorf("feedback did not raise importance: %g vs %g", pBiased, pPlain)
	}
	// The ambiguous query "smith" should now prefer the clicked author.
	res, err := biased.Search("smith", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].Rows[0].Key != "a2" {
		t.Errorf("feedback did not promote a2: %+v", res)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewDBLPBuilder()
	b.MustInsert("Author", "a1", "x")
	b.MustInsert("Author", "a1", "dup") // deferred error
	if _, err := b.Build(DefaultConfig()); err == nil {
		t.Error("deferred error not reported")
	}
	b2 := NewDBLPBuilder()
	b2.AddFeedback("Author", "ghost", 1)
	if _, err := b2.Build(DefaultConfig()); err == nil {
		t.Error("feedback on unknown tuple accepted")
	}
	if _, err := NewBuilder([]string{"A", "A"}, nil); err == nil {
		t.Error("duplicate table accepted")
	}
}

// TestBuilderRejectsBadWeight: a configured edge weight that is not positive
// and finite is a configuration error Build reports, naming the label pair,
// not a panic inside the graph builder or an unrelated model error.
func TestBuilderRejectsBadWeight(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		t.Run(fmt.Sprint(w), func(t *testing.T) {
			b := NewDBLPBuilder()
			b.MustInsert("Author", "a1", "jeffrey ullman")
			b.MustInsert("Paper", "p1", "tsimmis")
			b.MustRelate("written_by", "p1", "a1")
			b.SetWeight("Paper", "Author", w)
			_, err := b.Build(DefaultConfig())
			if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "Paper→Author") {
				t.Fatalf("Build with weight %v: err = %v, want ErrBadConfig naming Paper→Author", w, err)
			}
		})
	}
}

func TestCustomSchema(t *testing.T) {
	b, err := NewBuilder(
		[]string{"City", "Road"},
		[]Relationship{{Name: "connects", From: "Road", To: "City"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	b.SetWeight("Road", "City", 1)
	b.SetWeight("City", "Road", 0.5)
	b.MustInsert("City", "c1", "springfield")
	b.MustInsert("City", "c2", "shelbyville")
	b.MustInsert("Road", "r1", "route sixty six")
	b.MustRelate("connects", "r1", "c1")
	b.MustRelate("connects", "r1", "c2")
	eng, err := b.Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Search("springfield shelbyville", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Rows) != 3 {
		t.Fatalf("unexpected results: %+v", res)
	}
}

func TestStopWords(t *testing.T) {
	b := NewDBLPBuilder()
	b.SetStopWords("the", "of", "in")
	b.MustInsert("Paper", "p1", "The Art of Computer Programming")
	eng, err := b.Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Stopwords match nothing (they were stripped at insert time).
	res, err := eng.Search("the", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("stopword query returned %d results", len(res))
	}
	// Content words still match.
	res, err = eng.Search("computer programming", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("content query returned %d results", len(res))
	}
	if res[0].Rows[0].Text != "art computer programming" {
		t.Errorf("stored text = %q", res[0].Rows[0].Text)
	}
	// |v| counts the words left after filtering, as the index does.
	if node := eng.g.Node(0); node.Words != len(textindex.Tokenize(node.Text)) {
		t.Errorf("Words = %d for stored text %q", node.Words, node.Text)
	}
}

func TestBuilderCSVLoading(t *testing.T) {
	b := NewDBLPBuilder()
	if _, err := b.LoadTable("Author", strings.NewReader("key,name\na1,carol winter\na2,dave summer\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.LoadTable("Paper", strings.NewReader("key,title\np1,seminal storage work\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.LoadRelationship("written_by", strings.NewReader("from,to\np1,a1\np1,a2\n")); err != nil {
		t.Fatal(err)
	}
	eng, err := b.Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Search("winter summer", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Rows) != 3 {
		t.Fatalf("CSV-loaded search: %+v", res)
	}
	// LoadTable after SetStopWords is rejected.
	b2 := NewDBLPBuilder()
	b2.SetStopWords("x")
	if _, err := b2.LoadTable("Author", strings.NewReader("key,name\na,b\n")); err == nil {
		t.Error("LoadTable after SetStopWords accepted")
	}
}
