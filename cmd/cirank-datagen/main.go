// Command cirank-datagen generates a synthetic IMDB-like or DBLP-like
// dataset (DESIGN.md §3), prints its shape and optionally a query workload
// with its ground truth.
//
// Usage:
//
//	cirank-datagen -dataset imdb -scale 2
//	cirank-datagen -dataset dblp -workload synthetic -queries 20
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cirank/internal/datagen"
)

func main() {
	var (
		dataset  = flag.String("dataset", "dblp", "dataset to generate: imdb or dblp")
		scale    = flag.Float64("scale", 1.0, "dataset scale multiplier")
		seed     = flag.Int64("seed", 1, "generation seed")
		workload = flag.String("workload", "", "also print a workload: synthetic or userlog")
		queries  = flag.Int("queries", 10, "workload query count")
	)
	flag.Parse()

	ds, err := datagen.Generate(*dataset, *scale, *seed)
	if err != nil {
		fail(err)
	}
	built, err := datagen.Build(ds)
	if err != nil {
		fail(err)
	}
	fmt.Printf("dataset=%s tuples=%d links=%d nodes=%d edges=%d\n",
		ds.Kind, ds.DB.NumTuples(), ds.DB.NumLinks(), built.G.NumNodes(), built.G.NumEdges())
	for _, tb := range ds.Schema.SortedTableNames() {
		fmt.Printf("  %-12s %d tuples\n", tb, ds.DB.TableSize(tb))
	}

	if *workload != "" {
		var wcfg datagen.WorkloadConfig
		switch *workload {
		case "synthetic":
			wcfg = datagen.SyntheticConfig(*queries, *seed+1000)
		case "userlog":
			wcfg = datagen.UserLogConfig(*queries, *seed+1000)
		default:
			fail(fmt.Errorf("unknown workload %q", *workload))
		}
		qs, err := built.GenerateWorkload(wcfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("workload (%s, %d queries):\n", *workload, len(qs))
		for i, q := range qs {
			var gold []string
			for _, v := range q.Gold.Nodes() {
				n := built.G.Node(v)
				gold = append(gold, fmt.Sprintf("%s/%s", n.Relation, n.Key))
			}
			fmt.Printf("  q%-3d %-18s terms=%q gold={%s}\n", i, q.Class, strings.Join(q.Terms, " "), strings.Join(gold, ", "))
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cirank-datagen:", err)
	os.Exit(1)
}
