// Command bench is the repository's benchmark: one invocation runs one
// workload against the system's public surface (the cirank facade, or
// internal/server over loopback HTTP), checks every answer against the
// committed golden rankings, and prints each metric by name with its unit.
// The last line of standard output is the JSON result BENCHMARK.json
// describes. README.md records why the workloads and metrics are what they
// are.
//
//	bash bench/run.sh --workload search-indexed --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans around the calls into each layer and prints the per-layer
// metrics instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// processStart anchors setup_s: everything between here and the first
// measured operation is set-up.
var processStart = time.Now()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke is the harness's own test mode, which no flag sets: a quarter of
	// the corpus scale and of the query set, one refresh repetition, one
	// pass at least. The golden rankings exist for the full size alone, so
	// a smoke run checks answers against the freshly built engine instead.
	smoke bool
	// workDir receives the run's snapshot files and, traced, the span dump.
	workDir      string
	updateGolden bool
}

func main() {
	var o options
	var trace, aa int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed of the operation order and the request stream")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite golden/<workload>.json from a fresh build and exit")
	flag.IntVar(&aa, "aa", 0, "run the suite as two interleaved sets of this many runs and compare their medians")
	flag.Parse()
	o.trace = trace != 0
	o.workDir = ".bench_build"

	if aa > 0 {
		if err := runAA(aa, o.seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if o.updateGolden {
		return
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns its result.
func run(ctx context.Context, o options) (result, error) {
	spec, ok := findWorkload(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("seconds must be positive, got %g", o.seconds)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	s, err := setUp(ctx, spec, o, dir)
	if err != nil {
		return result{}, err
	}
	if o.updateGolden {
		return result{}, s.writeGolden()
	}
	if o.trace {
		return s.runTraced(ctx, o)
	}
	return s.runEndToEnd(ctx, o)
}

// printResult prints every metric on its own line, then the JSON result.
func printResult(res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d, failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// finite maps the +Inf a failed operation sorts as to the largest value
// JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
