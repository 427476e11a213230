package textindex

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cirank/internal/graph"
)

// randomTextGraph builds a graph whose nodes carry random multi-term text
// across a few relations; edges are irrelevant to indexing.
func randomTextGraph(rng *rand.Rand, n int) *graph.Graph {
	vocab := []string{"keyword", "search", "ranking", "graph", "tuple", "query", "message", "walk", "star", "index"}
	rels := []string{"Paper", "Author", "Conference"}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		words := make([]byte, 0, 64)
		for w, count := 0, rng.Intn(8); w < count; w++ {
			if len(words) > 0 {
				words = append(words, ' ')
			}
			words = append(words, vocab[rng.Intn(len(vocab))]...)
		}
		b.AddNode(graph.Node{
			Relation: rels[rng.Intn(len(rels))],
			Key:      fmt.Sprintf("k%d", i),
			Text:     string(words),
			Words:    0,
		})
	}
	return b.Build()
}

// TestBuildContextWorkerCountInvariant is the determinism suite's text-index
// leg: sharded builds must be deep-equal to the sequential build — posting
// order included — for every worker count.
func TestBuildContextWorkerCountInvariant(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTextGraph(rng, 1+rng.Intn(200))
		base, err := BuildContext(context.Background(), g, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			got, err := BuildContext(context.Background(), g, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("seed %d: index differs at workers=%d", seed, workers)
			}
		}
	}
}

func TestBuildContextCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomTextGraph(rng, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildContext(ctx, g, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled build: err = %v, want context.Canceled", err)
	}
}

func TestBuildEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	ix := Build(g)
	if got := ix.DFTotal("anything"); got != 0 {
		t.Errorf("empty graph DFTotal = %d", got)
	}
}
