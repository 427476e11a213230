# Standard entry points; CI (.github/workflows/ci.yml) runs the same gates
# as separate jobs: lint -> test matrix, fuzz-smoke, coverage, bench-module,
# bench-smoke.
GO ?= go

# FUZZTIME bounds each fuzz target's budget in `make fuzz` (and the CI
# fuzz-smoke job); FUZZMINIMIZE keeps the fuzzer fuzzing instead of spending
# its budget minimizing interesting inputs.
FUZZTIME ?= 30s
FUZZMINIMIZE ?= 5x

.PHONY: all build test race vet lint fuzz diff cover bench bench-module bench-pairs bench-json bench-search bench-serve bench-shard bench-smoke check serve loadgen loadgen-tenants

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector; the concurrency tests
# (concurrency_test.go, internal/search/parallel_test.go, the cache tests)
# are written to put load on every shared structure.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint enforces the documentation contract: every exported identifier in
# the listed packages must carry a doc comment.
lint:
	$(GO) run ./cmd/doccheck internal/search internal/rwmp internal/pathindex internal/cache internal/server internal/servebench internal/shard internal/textindex internal/graph internal/buildbench internal/searchbench internal/relational internal/jtt internal/pagerank internal/eval internal/baseline internal/datagen internal/difftest internal/mmapio

# diff runs the differential correctness harness: every committed seed
# generates a random workload and cross-checks branch-and-bound against
# exhaustive enumeration, index bounds against brute-force ground truth,
# and every engine variant against the sequential baseline.
diff:
	$(GO) test -count=1 -run 'TestDifferential|TestRegression' ./internal/difftest

# fuzz runs each native fuzz target for FUZZTIME. The committed corpora
# under */testdata/fuzz are always replayed by plain `make test`; this
# target searches for new inputs. `go test -fuzz` takes one target per
# invocation, hence the repetition.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzTokenize$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/textindex
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotLoad$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) .
	$(GO) test -run '^$$' -fuzz '^FuzzQueryParse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) .
	$(GO) test -run '^$$' -fuzz '^FuzzServerSearchParams$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/server

# cover writes a full-repo coverage profile and prints the function table.
# CI compares the total against COVERAGE_BASELINE.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1

# serve runs the HTTP query service on a generated DBLP dataset.
# Try: curl 'localhost:8080/v1/search?q=some+keywords&k=5&timeout=2s'
serve:
	$(GO) run ./cmd/cirank-server -dataset dblp -addr :8080

# loadgen replays the skewed query stream against a live server in the
# four tracked arms (caches off / warmed / hot reloads mid-load / the
# stream spread over three named tenants with reloads hitting only t0)
# and prints the serve report without touching the tracked JSON. Use
# `make bench-serve` to refresh BENCH_serve.json.
loadgen:
	$(GO) run ./cmd/cirank-loadgen -out -

# loadgen-tenants runs just the mixed-tenant isolation arm: three named
# tenants over one snapshot, hot reloads targeting t0 only. stale/failed
# and stale_other/failed_other must all be zero — a nonzero count means a
# reload of one tenant leaked into another.
loadgen-tenants:
	$(GO) run ./cmd/cirank-loadgen -arms tenants -out -

# bench-module vets and tests the nested cirank/bench module — the
# BENCHMARK.json harness — which the ./... targets above do not reach.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-pairs is the evidence a performance claim needs: PAIRS interleaved
# parent/change runs of one bench/ workload, with medians, quartiles and the
# win count (see scripts/bench-pairs.sh for what counts as the parent).
WORKLOAD ?= search-large
PAIRS ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh $(WORKLOAD) $(PAIRS)

# bench runs the paper-figure benchmarks plus the worker-count grid.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-json regenerates the tracked performance trajectories: the
# offline-build grid (BENCH_build.json: scale x workers x stage, including
# the frozen map-based baseline), the engine-startup comparison
# (BENCH_load.json: cold build vs stream snapshot load vs zero-copy mmap
# open) and the online-search grid (BENCH_search.json: per-query p50/p99
# latency and allocations over a skewed query stream, live engine vs the
# frozen pre-rewrite allocator). Commit the results when the pipeline,
# snapshot format or search hot path changes.
bench-json:
	$(GO) run ./cmd/cirank-bench -out BENCH_build.json
	$(GO) run ./cmd/cirank-bench -mode load -out BENCH_load.json
	$(GO) run ./cmd/cirank-bench -mode search -out BENCH_search.json
	$(GO) run ./cmd/cirank-bench -mode serve -out BENCH_serve.json
	$(GO) run ./cmd/cirank-bench -mode shard -out BENCH_shard.json

# bench-shard refreshes only the scatter-gather trajectory: the shards x
# workers x k grid through the sharded coordinator (stage shardN), with the
# single-shard coordinator as the speedup_vs_shard1 reference. Rankings are
# byte-identical at every shard count; the grid tracks the throughput side.
bench-shard:
	$(GO) run ./cmd/cirank-bench -mode shard -out BENCH_shard.json

# bench-serve refreshes only the serving-stack trajectory: the four
# tracked arms (result cache and coalescing off, full stack warmed, hot
# reloads landing mid-load, the mixed-tenant split) through a live HTTP
# server. The serve-reload row's stale and failed columns must be zero in
# any committed report, and so must the serve-tenants row's stale_other
# and failed_other (reload isolation across tenants).
bench-serve:
	$(GO) run ./cmd/cirank-bench -mode serve -out BENCH_serve.json

# bench-search is the ad-hoc view of the online hot path: the BenchmarkSearch
# grid (scale x workers x k over the skewed stream, plus the frozen
# naive-alloc baseline) with allocation counts, without touching the tracked
# JSON. Use `make bench-json` to refresh BENCH_search.json.
bench-search:
	$(GO) test -run '^$$' -bench '^BenchmarkSearch$$' -benchmem .

# bench-smoke is the CI gate for the benchmark surface: every BenchmarkBuild
# and BenchmarkSearch cell runs once (catching bit-rot in the grids
# themselves), the build-determinism suites run under the race detector, and
# reduced grids are diffed against the committed BENCH_*.json baselines. The
# wall-clock diffs are warn-only (leading '-'): shared CI runners are too
# noisy to gate merges on wall-clock, but the delta tables in the log show
# drift early. The shard diff is the exception: exit code 3 means the halo
# duplication factor grew past the committed baseline — deterministic in
# (graph, plan), not noise — and fails the target; other nonzero exits are
# wall-clock deltas and stay warn-only.
bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkBuild$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkSearch$$' -benchtime 1x .
	$(GO) test -race -run 'TestBuild|TestScratch|TestEdgeOrder|TestWeightBinarySearch|TestSharded' ./internal/pathindex ./internal/textindex ./internal/graph .
	$(GO) run ./cmd/cirank-loadgen -duration 1s -clients 4 -out /dev/null
	$(GO) run ./cmd/cirank-loadgen -arms tenants -duration 1s -clients 4 -out /dev/null
	-$(GO) run ./cmd/cirank-bench -compare BENCH_build.json -scales 0.25 -workers 1,2 -out /dev/null
	-$(GO) run ./cmd/cirank-bench -mode load -compare BENCH_load.json -scales 0.25 -out /dev/null
	-$(GO) run ./cmd/cirank-bench -mode search -compare BENCH_search.json -scales 0.12 -benchtime 1x -out /dev/null
	-$(GO) run ./cmd/cirank-bench -mode serve -compare BENCH_serve.json -benchtime 1s -workers 4 -out /dev/null
	$(GO) run ./cmd/cirank-bench -mode shard -compare BENCH_shard.json -scales 0.25 -benchtime 1x -out /dev/null || { \
		rc=$$?; \
		if [ "$$rc" -eq 3 ]; then \
			echo "bench-smoke: halo duplication factor regressed past BENCH_shard.json" >&2; \
			exit 1; \
		fi; \
		echo "bench-smoke: shard bench compare exceeded wall-clock tolerance (warn-only)" >&2; \
	}

check: build vet lint race
