// Command cirank-server serves CI-Rank keyword search over HTTP: it builds
// a query engine — from a generated synthetic dataset, or zero-copy from a
// snapshot file — and exposes the internal/server endpoints until
// SIGINT/SIGTERM triggers a graceful drain.
//
// Usage:
//
//	cirank-server -dataset dblp -scale 1 -addr :8080
//	curl 'localhost:8080/v1/search?q=some+keywords&k=5&timeout=2s'
//	curl -X POST localhost:8080/v1/search -d '{"queries": [{"q": "ullman"}, {"q": "some keywords", "k": 3}]}'
//	curl localhost:8080/v1/healthz
//	curl localhost:8080/v1/metrics
//
// The versioned /v1 API (docs/api.md) is the contract and the only surface.
// The serving stack — singleflight coalescing, the generation-keyed result
// cache, cost-based admission — is tunable with -coalesce, -result-cache,
// -admission-budget and -max-batch.
//
// Snapshot workflow — build once offline, serve with instant startup, and
// hot-reload in place after writing a fresh snapshot to the same path:
//
//	cirank-server -dataset dblp -scale 4 -save-snapshot eng.snap
//	cirank-server -snapshot eng.snap -addr :8080
//	curl -X POST localhost:8080/v1/admin/reload
//
// Multi-tenant serving — one process, several named corpora, each behind
// its own result cache, coalescing group and weighted-fair admission share:
//
//	cirank-server -tenants tenants.json -addr :8080
//	curl 'localhost:8080/v1/search?q=ullman&tenant=books'
//	curl -X POST 'localhost:8080/v1/admin/reload?tenant=books'
//
// The -tenants file maps names to snapshots plus optional per-tenant
// overrides:
//
//	{"tenants": [
//	  {"name": "books", "snapshot": "books.snap", "admission_weight": 2},
//	  {"name": "papers", "snapshot": "papers.snap", "result_cache": 4096}
//	]}
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cirank"
	"cirank/internal/datagen"
	"cirank/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		dataset  = flag.String("dataset", "dblp", "dataset to generate: imdb or dblp")
		scale    = flag.Float64("scale", 1.0, "dataset scale multiplier")
		seed     = flag.Int64("seed", 1, "generation seed")
		k        = flag.Int("k", 5, "default answers per query")
		maxK     = flag.Int("maxk", 100, "largest k a request may ask for")
		timeout  = flag.Duration("timeout", 5*time.Second, "default per-query deadline")
		maxTime  = flag.Duration("maxtimeout", 30*time.Second, "cap on the per-query deadline")
		inflight = flag.Int("inflight", 0, "max concurrent queries (0 = 2x GOMAXPROCS)")
		maxExp   = flag.Int("maxexpansions", 200000, "branch-and-bound expansion cap per query (-1 = unlimited)")
		workers  = flag.Int("workers", 0, "goroutines for building the dataset engine's indexes (0 = GOMAXPROCS)")
		snapshot = flag.String("snapshot", "", "serve from this snapshot file (mmap-opened; enables POST /v1/admin/reload) instead of generating a dataset")
		tenants  = flag.String("tenants", "", "serve several named tenants from this JSON config (see the package docs; mutually exclusive with -snapshot)")
		saveSnap = flag.String("save-snapshot", "", "build the dataset engine, write a snapshot to this file, and exit")

		resultCache = flag.Int("result-cache", 0, "result-cache entries per generation (0 = default 1024, -1 = off)")
		coalesce    = flag.Bool("coalesce", true, "coalesce identical in-flight queries (singleflight)")
		admission   = flag.Int64("admission-budget", 0, "cost-based admission budget in posting-entry units (0 = derived from GOMAXPROCS)")
		maxBatch    = flag.Int("max-batch", 0, "max queries per POST /v1/search batch (0 = default 16)")
	)
	flag.Parse()

	if *saveSnap != "" {
		eng, err := buildEngine(*dataset, *scale, *seed, *workers)
		if err != nil {
			fail(err)
		}
		if err := saveSnapshot(eng, *saveSnap); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "cirank-server: snapshot of %d nodes, %d edges written to %s\n",
			eng.NumNodes(), eng.NumEdges(), *saveSnap)
		return
	}

	cfg := server.Config{
		DefaultK:        *k,
		MaxK:            *maxK,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTime,
		MaxInFlight:     *inflight,
		MaxExpansions:   *maxExp,
		SnapshotPath:    *snapshot,
		ResultCacheSize: *resultCache,
		CoalesceEnabled: server.Bool(*coalesce),
		AdmissionBudget: *admission,
		MaxBatch:        *maxBatch,
	}
	if *tenants != "" {
		if *snapshot != "" {
			fail(fmt.Errorf("-tenants is mutually exclusive with -snapshot"))
		}
		cfg.SnapshotPath = ""
		list, err := loadTenants(*tenants)
		if err != nil {
			fail(err)
		}
		cfg.Tenants = list
	} else {
		var (
			eng *cirank.Engine
			err error
		)
		if *snapshot != "" {
			eng, err = cirank.Open(*snapshot)
		} else {
			eng, err = buildEngine(*dataset, *scale, *seed, *workers)
		}
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "cirank-server: engine ready: %d nodes, %d edges\n", eng.NumNodes(), eng.NumEdges())
		fmt.Fprintf(os.Stderr, "cirank-server: build: %v\n", eng.BuildStats())
		cfg.Engine = eng
	}

	srv, err := server.New(cfg)
	if err != nil {
		fail(err)
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Serve until a termination signal, then drain in-flight queries: each
	// holds a context derived from its request, so Shutdown's deadline also
	// bounds how long a straggler may keep computing.
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "cirank-server: listening on %s\n", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fail(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "cirank-server: %v: draining...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *maxTime)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fail(fmt.Errorf("shutdown: %w", err))
		}
	}
	fmt.Fprintln(os.Stderr, "cirank-server: bye")
}

// buildEngine generates the requested dataset and replays it through the
// public builder, so the server exercises the same API an embedding
// application would. IndexDepth is 0: no search reads the star index, so
// neither the served engine nor a -save-snapshot file carries one.
func buildEngine(dataset string, scale float64, seed int64, workers int) (*cirank.Engine, error) {
	ds, err := datagen.Generate(dataset, scale, seed)
	if err != nil {
		return nil, err
	}
	b := cirank.NewDBLPBuilder()
	if ds.Kind == "imdb" {
		b = cirank.NewIMDBBuilder()
	}
	if err := ds.Replay(b.InsertEntity, b.Relate); err != nil {
		return nil, err
	}
	cfg := cirank.DefaultConfig()
	cfg.IndexDepth = 0
	cfg.Workers = workers
	return b.Build(cfg)
}

// tenantEntry is one tenant of the -tenants JSON config.
type tenantEntry struct {
	// Name is the tenant's wire name (the tenant request parameter).
	Name string `json:"name"`
	// Snapshot is the tenant's snapshot file. Hot reload re-opens the same
	// path.
	Snapshot string `json:"snapshot"`
	// ResultCache overrides -result-cache for this tenant (0 inherits,
	// negative disables).
	ResultCache int `json:"result_cache"`
	// AdmissionWeight is the tenant's weighted-fair share of the global
	// admission budget (0 means 1).
	AdmissionWeight int `json:"admission_weight"`
}

// loadTenants reads the -tenants config and opens every tenant's corpus;
// validation beyond opening (name shape, duplicates) is server.New's.
func loadTenants(path string) ([]server.TenantConfig, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		Tenants []tenantEntry `json:"tenants"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.Tenants) == 0 {
		return nil, fmt.Errorf("%s: no tenants configured", path)
	}
	var out []server.TenantConfig
	for _, e := range file.Tenants {
		if e.Snapshot == "" {
			return nil, fmt.Errorf("%s: tenant %q: snapshot is required", path, e.Name)
		}
		eng, err := cirank.Open(e.Snapshot)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %w", e.Name, err)
		}
		fmt.Fprintf(os.Stderr, "cirank-server: tenant %s ready: %d nodes, %d edges\n", e.Name, eng.NumNodes(), eng.NumEdges())
		out = append(out, server.TenantConfig{
			Name:            e.Name,
			Engine:          eng,
			SnapshotPath:    e.Snapshot,
			ResultCacheSize: e.ResultCache,
			AdmissionWeight: e.AdmissionWeight,
		})
	}
	return out, nil
}

// saveSnapshot writes the engine's v2 snapshot to path.
func saveSnapshot(eng *cirank.Engine, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := eng.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "cirank-server:", err)
	os.Exit(1)
}
