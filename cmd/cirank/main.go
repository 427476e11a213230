// Command cirank runs keyword searches over a generated dataset, showing
// CI-Rank's collective-importance ranking interactively.
//
// Usage:
//
//	cirank -dataset dblp -query "some keywords"
//	cirank -dataset imdb -scale 2           # interactive: queries from stdin
//	cirank -dataset dblp -save eng.snap     # write a snapshot and exit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cirank"
	"cirank/internal/datagen"
	"cirank/internal/experiments"
	"cirank/internal/graph"
	"cirank/internal/search"
	"cirank/internal/textindex"
)

func main() {
	var (
		dataset = flag.String("dataset", "dblp", "dataset to generate: imdb or dblp")
		scale   = flag.Float64("scale", 1.0, "dataset scale multiplier")
		seed    = flag.Int64("seed", 1, "generation seed")
		query   = flag.String("query", "", "one-shot query (interactive stdin mode if empty)")
		k       = flag.Int("k", 5, "number of answers")
		diam    = flag.Int("diameter", 4, "answer diameter limit D")
		noIndex = flag.Bool("noindex", false, "disable the star index")
		suggest = flag.Int("suggest", 3, "print this many example queries on startup")
		dotFile = flag.String("dot", "", "write the top answer of each query to this Graphviz file")
		workers = flag.Int("workers", 0, "goroutines per query (0 = GOMAXPROCS, 1 = sequential)")
		qTime   = flag.Duration("timeout", 0, "per-query deadline (0 = none); an expired query prints its best answers so far")
		save    = flag.String("save", "", "build the engine through the public API, write a v2 snapshot to this file, and exit")
	)
	flag.Parse()

	if *save != "" {
		if err := buildAndSave(*dataset, *scale, *seed, *workers, *save); err != nil {
			fail(err)
		}
		return
	}

	fmt.Fprintf(os.Stderr, "generating %s dataset (scale %.2g)...\n", *dataset, *scale)
	var bundle *experiments.Bundle
	var err error
	switch *dataset {
	case "imdb":
		bundle, err = experiments.PrepareIMDB(*scale, *seed)
	case "dblp":
		bundle, err = experiments.PrepareDBLP(*scale, *seed)
	default:
		err = fmt.Errorf("unknown dataset %q", *dataset)
	}
	if err != nil {
		fail(err)
	}
	m, err := bundle.DefaultModel()
	if err != nil {
		fail(err)
	}
	s := search.New(m)
	opts := search.Options{K: *k, Diameter: *diam, MaxExpansions: 200000, Workers: *workers}
	if !*noIndex {
		idx, err := bundle.StarIndex(m, *diam)
		if err != nil {
			fail(err)
		}
		opts.Index = idx
	}
	fmt.Fprintf(os.Stderr, "ready: %d nodes, %d edges\n", bundle.Built.G.NumNodes(), bundle.Built.G.NumEdges())
	if *suggest > 0 {
		if qs, err := bundle.Built.GenerateWorkload(datagen.SyntheticConfig(*suggest, *seed+9)); err == nil {
			for _, q := range qs {
				fmt.Fprintf(os.Stderr, "try: %s\n", strings.Join(q.Terms, " "))
			}
		}
	}

	run := func(text string) {
		terms := textindex.Tokenize(text)
		if len(terms) == 0 {
			return
		}
		start := time.Now()
		ctx := context.Background()
		if *qTime > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *qTime)
			defer cancel()
		}
		answers, stats, err := s.TopKContext(ctx, terms, opts)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if stats.Interrupted {
			fmt.Printf("deadline %v hit; showing best answers found so far\n", *qTime)
		}
		if *dotFile != "" && len(answers) > 0 {
			if err := writeDot(*dotFile, bundle, answers[0], terms); err != nil {
				fmt.Fprintln(os.Stderr, "dot:", err)
			}
		}
		fmt.Printf("%d answers in %v (expanded %d candidates)\n", len(answers), time.Since(start).Round(time.Microsecond), stats.Expanded)
		for i, a := range answers {
			fmt.Printf("#%d score=%.4g\n", i+1, a.Score)
			for _, v := range a.Tree.Nodes() {
				n := bundle.Built.G.Node(v)
				marker := "  "
				if bundle.Built.Ix.QueryMatchCount(v, terms) > 0 {
					marker = "* "
				}
				fmt.Printf("   %s[%s %s] %s\n", marker, n.Relation, n.Key, n.Text)
			}
		}
	}

	if *query != "" {
		run(*query)
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("query> ")
	for sc.Scan() {
		run(sc.Text())
		fmt.Print("query> ")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cirank:", err)
	os.Exit(1)
}

// buildAndSave generates the dataset, builds an engine through the public
// builder API (the same graph/config an embedding application would get)
// and writes its snapshot to path, ready for cirank-server -snapshot.
func buildAndSave(dataset string, scale float64, seed int64, workers int, path string) error {
	var (
		ds  *datagen.Dataset
		b   *cirank.Builder
		err error
	)
	switch dataset {
	case "imdb":
		ds, err = datagen.GenerateIMDB(datagen.DefaultIMDBConfig(seed).Scale(scale))
		b = cirank.NewIMDBBuilder()
	case "dblp":
		ds, err = datagen.GenerateDBLP(datagen.DefaultDBLPConfig(seed).Scale(scale))
		b = cirank.NewDBLPBuilder()
	default:
		return fmt.Errorf("unknown dataset %q (want imdb or dblp)", dataset)
	}
	if err != nil {
		return err
	}
	if err := ds.Replay(b.InsertEntity, b.Relate); err != nil {
		return err
	}
	cfg := cirank.DefaultConfig()
	cfg.Workers = workers
	eng, err := b.Build(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := eng.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "snapshot of %d nodes, %d edges written to %s\n", eng.NumNodes(), eng.NumEdges(), path)
	return nil
}

// writeDot renders the top answer as a Graphviz graph.
func writeDot(path string, bundle *experiments.Bundle, top search.Answer, terms []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	g := bundle.Built.G
	err = top.Tree.WriteDOT(f,
		func(v graph.NodeID) string {
			n := g.Node(v)
			return fmt.Sprintf("[%s %s]\n%s", n.Relation, n.Key, n.Text)
		},
		func(v graph.NodeID) bool {
			return bundle.Built.Ix.QueryMatchCount(v, terms) > 0
		})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
