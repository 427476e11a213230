// Command cirank-loadgen drives the HTTP serving stack (internal/server)
// with the same Zipf-skewed AOL-style query stream the engine benchmarks
// replay, and reports what the serving layer — singleflight coalescing, the
// generation-keyed result cache, cost-based admission — adds on top of raw
// engine throughput. internal/servebench does the work, this command is the
// flag front end. It is an ad-hoc and open-loop tool; the serving numbers a
// change is judged on come from the bench/ harness (BENCHMARK.json).
//
// Usage:
//
//	cirank-loadgen
//	cirank-loadgen -clients 16 -duration 5s -out arms.jsonl
//	cirank-loadgen -arms custom -qps 500 -warm -reload-every 1s
//
// The default run measures the four tracked arms against one generated
// fixture (dataset → public build → snapshot → fresh server per arm):
//
//	serve-nocache  result cache and coalescing off; every request evaluates.
//	serve-cached   full serving stack, cache warmed by one unmeasured
//	               stream pass — the steady state of a long-running server.
//	serve-reload   full stack with snapshot hot reloads landing during the
//	               measured window; its Stale and Failed counts must be
//	               zero (the serving stack's correctness-under-churn
//	               guarantee, also enforced under -race by the servebench
//	               and server package tests).
//	serve-tenants  the snapshot served as three named tenants with the
//	               stream spread across them, hot reloads hitting only
//	               tenant t0 — Stale/Failed must stay zero on every tenant
//	               (StaleOther/FailedOther isolate the non-reloaded ones).
//
// -arms tenants runs just the mixed-tenant arm, sized by -tenants and
// -reload-tenant. -arms custom instead runs a single arm shaped by the
// remaining flags: -cache-off/-coalesce-off toggle the serving caches,
// -warm pre-runs the stream, -qps switches from closed-loop (each of
// -clients keeps one request in flight) to open-loop (requests start at the
// target rate no matter how slowly they answer, so queueing shows up as
// latency), -reload-every hot-reloads the snapshot at that period, and
// -tenants/-reload-tenant shape the multi-tenant split.
//
// -out receives one JSON object per arm, one per line: the arm's stage name
// followed by the fields of servebench.Result (latencies and Elapsed in
// nanoseconds).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"cirank/internal/searchbench"
	"cirank/internal/servebench"
)

// armResult is one line of -out.
type armResult struct {
	Stage string
	servebench.Result
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "cirank-loadgen: %v\n", err)
		os.Exit(1)
	}
}

// run holds the whole command so the temp-dir defer fires on every error
// path; main only maps the error to the exit status.
func run() error {
	var (
		out       = flag.String("out", "-", "output path for the per-arm JSON lines ('-' for stdout)")
		dataset   = flag.String("dataset", "dblp", "dataset to generate: imdb or dblp")
		scale     = flag.Float64("scale", 0.25, "dataset scale multiplier")
		seed      = flag.Int64("seed", -1, "generation seed (-1 picks the dataset's proven pair)")
		querySeed = flag.Int64("queryseed", -1, "workload seed (-1 picks the dataset's proven pair)")
		k         = flag.Int("k", 10, "answer count per query")
		clients   = flag.Int("clients", 8, "closed-loop client count (also sizes the transport in open loop)")
		duration  = flag.Duration("duration", 2*time.Second, "measured window per arm")
		arms      = flag.String("arms", "tracked", "tracked (the four standard arms), tenants (the mixed-tenant arm alone) or custom (one arm from the flags below)")

		stage       = flag.String("stage", "serve-custom", "custom arm: stage name in the output")
		cacheOff    = flag.Bool("cache-off", false, "custom arm: disable the result cache")
		coalesceOff = flag.Bool("coalesce-off", false, "custom arm: disable singleflight coalescing")
		warm        = flag.Bool("warm", false, "custom arm: replay the stream once, unmeasured, before the window")
		qps         = flag.Float64("qps", 0, "custom arm: open-loop target arrival rate (0 = closed loop)")
		reloadEvery = flag.Duration("reload-every", 0, "custom arm: hot-reload the snapshot at this period (0 = never)")
		timeout     = flag.Duration("timeout", 0, "custom arm: per-query timeout parameter sent to the server (0 = server default)")
		tenants     = flag.Int("tenants", 3, "tenants/custom arm: named tenant count the stream is spread across (1 = single-tenant)")
		reloadT     = flag.String("reload-tenant", "t0", "tenants/custom arm: the one tenant hot reloads target")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}

	defData, defQuery := searchbench.DefaultSeeds(*dataset)
	if *seed < 0 {
		*seed = defData
	}
	if *querySeed < 0 {
		*querySeed = defQuery
	}

	var armList []servebench.Arm
	switch *arms {
	case "tracked":
		armList = servebench.TrackedArms(*clients, *duration)
	case "tenants":
		armList = []servebench.Arm{{
			Stage:        "serve-tenants",
			Warm:         true,
			Clients:      *clients,
			Duration:     *duration,
			ReloadEvery:  *duration / 4,
			Tenants:      *tenants,
			ReloadTenant: *reloadT,
		}}
	case "custom":
		armList = []servebench.Arm{{
			Stage:        *stage,
			CacheOff:     *cacheOff,
			CoalesceOff:  *coalesceOff,
			Warm:         *warm,
			Clients:      *clients,
			TargetQPS:    *qps,
			Duration:     *duration,
			ReloadEvery:  *reloadEvery,
			Timeout:      *timeout,
			Tenants:      *tenants,
			ReloadTenant: *reloadT,
		}}
	default:
		return fmt.Errorf("bad -arms %q: want tracked, tenants or custom", *arms)
	}

	dir, err := os.MkdirTemp("", "cirank-loadgen-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	f, err := servebench.NewFixture(dir, *dataset, *scale, *seed, *querySeed, *k)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cirank-loadgen: %s scale %g: %d nodes, %d edges, %d distinct queries, stream of %d\n",
		*dataset, *scale, f.Nodes, f.Edges, len(f.Queries), len(f.Stream))

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, arm := range armList {
		fmt.Fprintf(os.Stderr, "cirank-loadgen: arm %s (%d clients, %s)\n", arm.Stage, arm.Clients, arm.Duration)
		res, err := f.Run(arm)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cirank-loadgen:   %.0f q/s, p50 %v, p99 %v, %d ok (%d cache, %d coalesced), %d rejected, %d failed, %d stale, %d reloads\n",
			res.QPS, time.Duration(res.P50Ns), time.Duration(res.P99Ns), res.OK, res.CacheHits, res.Coalesced,
			res.Rejected, res.Failed, res.Stale, res.Reloads)
		if err := enc.Encode(armResult{arm.Stage, res}); err != nil {
			return err
		}
	}
	if *out == "-" {
		_, err = os.Stdout.Write(buf.Bytes())
		return err
	}
	return os.WriteFile(*out, buf.Bytes(), 0o644)
}
