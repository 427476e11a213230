// Command cirank-experiments regenerates the evaluation figures of the
// CI-Rank paper (§VI) as text tables: the α and g parameter sweeps
// (Fig. 6–7), the effectiveness comparison against SPARK and BANKS
// (Fig. 8–9), the naive-vs-branch-and-bound timing (Fig. 10) and the star
// index timing studies (Fig. 11–12).
//
// Usage:
//
//	cirank-experiments -fig all
//	cirank-experiments -fig 8,9 -scale 2 -queries 40
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"cirank/internal/experiments"
)

func main() {
	var (
		figs    = flag.String("fig", "all", "comma-separated figure numbers (6-12) or 'all'")
		scale   = flag.Float64("scale", 1.0, "dataset scale multiplier")
		queries = flag.Int("queries", 20, "queries per workload")
		seed    = flag.Int64("seed", 1, "generation seed")
		k       = flag.Int("k", 5, "top-k for timing runs")
		diam    = flag.Int("diameter", 4, "answer diameter limit for effectiveness runs")
	)
	flag.Parse()

	want, err := parseFigs(*figs)
	if err != nil {
		fail(err)
	}

	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	cfg.QueryCount = *queries
	cfg.Seed = *seed
	cfg.K = *k
	cfg.Diameter = *diam

	fmt.Fprintf(os.Stderr, "preparing datasets (scale %.2g, seed %d)...\n", cfg.Scale, cfg.Seed)
	imdb, err := experiments.Prepare("imdb", cfg.Scale, cfg.Seed)
	if err != nil {
		fail(err)
	}
	dblp, err := experiments.Prepare("dblp", cfg.Scale, cfg.Seed)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "IMDB: %d nodes, %d edges; DBLP: %d nodes, %d edges\n",
		imdb.Built.G.NumNodes(), imdb.Built.G.NumEdges(),
		dblp.Built.G.NumNodes(), dblp.Built.G.NumEdges())

	type figJob struct {
		id  string
		run func() (*experiments.Table, error)
	}
	jobs := []figJob{
		{"6", func() (*experiments.Table, error) { return experiments.Fig6AlphaSweep(imdb, dblp, cfg) }},
		{"7", func() (*experiments.Table, error) { return experiments.Fig7GroupSweep(imdb, dblp, cfg) }},
		{"8", func() (*experiments.Table, error) { return experiments.Fig8MRRComparison(imdb, dblp, cfg) }},
		{"9", func() (*experiments.Table, error) { return experiments.Fig9PrecisionComparison(imdb, dblp, cfg) }},
		{"10", func() (*experiments.Table, error) { return experiments.Fig10NaiveVsBB(imdb, dblp, cfg) }},
		{"11", func() (*experiments.Table, error) { return experiments.Fig11IMDBIndexTime(imdb, cfg) }},
		{"12", func() (*experiments.Table, error) { return experiments.Fig12DBLPIndexTime(dblp, cfg) }},
		{"classes", func() (*experiments.Table, error) { return experiments.ClassBreakdown(dblp, cfg) }},
	}
	for _, j := range jobs {
		if !want[j.id] {
			continue
		}
		tab, err := j.run()
		if err != nil {
			fail(fmt.Errorf("figure %s: %w", j.id, err))
		}
		fmt.Println(tab)
	}
}

// figIDs lists every figure id -fig accepts.
var figIDs = []string{"6", "7", "8", "9", "10", "11", "12", "classes"}

// parseFigs turns the comma-separated -fig value into the set of figure ids
// to run. "all" selects every figure; any other id outside figIDs is an
// error, so a typo cannot silently drop a figure from the run.
func parseFigs(s string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		switch {
		case f == "all":
			for _, id := range figIDs {
				want[id] = true
			}
		case slices.Contains(figIDs, f):
			want[f] = true
		default:
			return nil, fmt.Errorf("unknown figure %q in -fig=%q (valid: 6-12, classes)", f, s)
		}
	}
	return want, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cirank-experiments:", err)
	os.Exit(1)
}
