// Command cirank runs keyword searches over a generated dataset, showing
// CI-Rank's collective-importance ranking interactively. It queries the
// same engine cirank-server serves: the dataset is replayed through the
// public builder and searched through Engine.SearchTermsContext.
//
// Usage:
//
//	cirank -dataset dblp -query "some keywords"
//	cirank -dataset imdb -scale 2           # interactive: queries from stdin
//	cirank -query "some keywords" -dot top.dot
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cirank"
	"cirank/internal/datagen"
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
		suggest = flag.Int("suggest", 3, "print this many example queries on startup")
		dotFile = flag.String("dot", "", "write the top answer of each query to this Graphviz file")
		workers = flag.Int("workers", 0, "goroutines for building the engine's indexes (0 = GOMAXPROCS, 1 = sequential)")
		qTime   = flag.Duration("timeout", 0, "per-query deadline (0 = none); an expired query prints its best answers so far")
	)
	flag.Parse()
	if err := checkArgs(*k, *diam); err != nil {
		fmt.Fprintln(os.Stderr, "cirank:", err)
		flag.Usage()
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "generating %s dataset (scale %.2g)...\n", *dataset, *scale)
	ds, err := datagen.Generate(*dataset, *scale, *seed)
	if err != nil {
		fail(err)
	}
	eng, err := buildEngine(ds, *workers)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "ready: %d nodes, %d edges\n", eng.NumNodes(), eng.NumEdges())
	if *suggest > 0 {
		if err := printSuggestions(os.Stderr, ds, *suggest, *seed); err != nil {
			fail(err)
		}
	}

	s := &cli{eng: eng, k: *k, opts: cirank.SearchOptions{Diameter: *diam}, timeout: *qTime, dot: *dotFile}
	if *query != "" {
		s.run(os.Stdout, *query)
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("query> ")
	for sc.Scan() {
		s.run(os.Stdout, sc.Text())
		fmt.Print("query> ")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cirank:", err)
	os.Exit(1)
}

// checkArgs rejects the answer count and diameter the engine cannot search
// with. A zero diameter must not reach SearchOptions, where it would mean
// the default D = 4.
func checkArgs(k, diameter int) error {
	if k < 1 {
		return fmt.Errorf("-k %d: want at least 1", k)
	}
	if diameter < 1 {
		return fmt.Errorf("-diameter %d: want at least 1", diameter)
	}
	return nil
}

// buildEngine replays the dataset through the public builder, as
// cirank-server does.
func buildEngine(ds *datagen.Dataset, workers int) (*cirank.Engine, error) {
	b := cirank.NewDBLPBuilder()
	if ds.Kind == "imdb" {
		b = cirank.NewIMDBBuilder()
	}
	if err := ds.Replay(b.InsertEntity, b.Relate); err != nil {
		return nil, err
	}
	cfg := cirank.DefaultConfig()
	cfg.Workers = workers
	return b.Build(cfg)
}

// printSuggestions prints n synthetic queries that have answers in ds.
func printSuggestions(w io.Writer, ds *datagen.Dataset, n int, seed int64) error {
	built, err := datagen.Build(ds)
	if err != nil {
		return err
	}
	qs, err := built.GenerateWorkload(datagen.SyntheticConfig(n, seed+9))
	if err != nil {
		return err
	}
	for _, q := range qs {
		fmt.Fprintf(w, "try: %s\n", strings.Join(q.Terms, " "))
	}
	return nil
}

// cli holds the per-query settings of one run.
type cli struct {
	eng     *cirank.Engine
	k       int
	opts    cirank.SearchOptions
	timeout time.Duration
	dot     string // Graphviz file for each query's top answer; "" for none
}

// run searches one line of query text and prints the ranked answers to w,
// marking with * the rows that match a query term. A line with no terms
// prints nothing.
func (s *cli) run(w io.Writer, text string) {
	terms := textindex.Tokenize(text)
	if len(terms) == 0 {
		return
	}
	ctx := context.Background()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	res, err := s.eng.SearchTermsContext(ctx, terms, s.k, s.opts)
	if err != nil {
		fmt.Fprintln(w, "error:", err)
		return
	}
	if res.Stats.Interrupted {
		fmt.Fprintf(w, "deadline %v hit; showing best answers found so far\n", s.timeout)
	}
	if s.dot != "" && len(res.Results) > 0 {
		if err := writeDotFile(s.dot, res.Results[0]); err != nil {
			fmt.Fprintln(os.Stderr, "dot:", err)
		}
	}
	fmt.Fprintf(w, "%d answers in %v (expanded %d candidates)\n", len(res.Results), res.Stats.Elapsed.Round(time.Microsecond), res.Stats.Expanded)
	for i, r := range res.Results {
		fmt.Fprintf(w, "#%d score=%.4g\n", i+1, r.Score)
		for _, row := range r.Rows {
			marker := "  "
			if row.Matched {
				marker = "* "
			}
			fmt.Fprintf(w, "   %s[%s %s] %s\n", marker, row.Table, row.Key, row.Text)
		}
	}
}

func writeDotFile(path string, r cirank.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = writeDot(f, r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeDot renders an answer as a Graphviz graph: one box per row, labeled
// with its table, key and text, the root drawn bold and the rows that match
// a query term filled.
func writeDot(w io.Writer, r cirank.Result) error {
	var sb strings.Builder
	sb.WriteString("graph jtt {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n")
	for i, row := range r.Rows {
		attrs := fmt.Sprintf("label=%q", fmt.Sprintf("[%s %s]\n%s", row.Table, row.Key, row.Text))
		if i == 0 {
			attrs += ", penwidth=2"
		}
		if row.Matched {
			attrs += ", style=filled, fillcolor=lightyellow"
		}
		fmt.Fprintf(&sb, "  n%d [%s];\n", i, attrs)
	}
	for _, e := range r.Edges {
		fmt.Fprintf(&sb, "  n%d -- n%d;\n", e[1], e[0])
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
