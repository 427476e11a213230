# Standard entry points; CI (.github/workflows/ci.yml) runs the same gates
# as separate jobs: lint -> test matrix, fuzz-smoke, coverage, bench-module,
# bench-smoke.
GO ?= go

# FUZZTIME bounds each fuzz target's budget in `make fuzz` (and the CI
# fuzz-smoke job); FUZZMINIMIZE keeps the fuzzer fuzzing instead of spending
# its budget minimizing interesting inputs.
FUZZTIME ?= 30s
FUZZMINIMIZE ?= 5x

.PHONY: all build test race vet lint fuzz diff cover bench bench-module bench-pairs bench-smoke check serve

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector; the concurrency tests
# (concurrency_test.go, internal/search/parallel_test.go, internal/server)
# are written to put load on every shared structure.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint enforces the documentation contract (every exported identifier in
# the listed packages must carry a doc comment) and fails on any function
# that no binary links and scripts/unlinked.allow does not name.
lint:
	$(GO) run ./cmd/doccheck internal/search internal/rwmp internal/pathindex internal/cache internal/server internal/textindex internal/graph internal/searchbench internal/relational internal/jtt internal/pagerank internal/eval internal/baseline internal/datagen internal/difftest internal/mmapio . internal/experiments
	bash scripts/unlinked.sh

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
	$(GO) test -run '^$$' -fuzz '^FuzzTextDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/textindex
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotLoad$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) .
	$(GO) test -run '^$$' -fuzz '^FuzzQueryParse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) .
	$(GO) test -run '^$$' -fuzz '^FuzzServerSearchParams$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzSupplyField$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/search
	$(GO) test -run '^$$' -fuzz '^FuzzChildBound$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/search
	$(GO) test -run '^$$' -fuzz '^FuzzMergePrice$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/search
	$(GO) test -run '^$$' -fuzz '^FuzzGraphBuild$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/graph

# cover writes a full-repo coverage profile and prints the function table.
# CI compares the total against COVERAGE_BASELINE.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1

# serve runs the HTTP query service on a generated DBLP dataset.
# Try: curl 'localhost:8080/v1/search?q=some+keywords&k=5&timeout=2s'
serve:
	$(GO) run ./cmd/cirank-server -dataset dblp -addr :8080

# bench-module vets and tests the nested cirank/bench module — the
# BENCHMARK.json harness — which the ./... targets above do not reach.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-pairs is the evidence a performance claim, or a no-regression claim,
# needs: PAIRS interleaved parent/change runs of one bench/ workload, with
# medians, quartiles, the win count and both verdicts (see
# scripts/bench-pairs.sh for the rules and for what counts as the parent).
WORKLOAD ?= search-large
PAIRS ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh $(WORKLOAD) $(PAIRS)

# bench runs the paper-figure benchmarks plus the search grid.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-smoke is the CI gate for the benchmark surface: every BenchmarkSearch
# cell runs once (catching bit-rot in the grid itself) and the
# build-determinism suites run under the race detector. Nothing here compares
# wall-clock numbers; that is bench-pairs' job.
bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkSearch$$' -benchtime 1x .
	$(GO) test -race -run 'TestBuild|TestScratch|TestEdgeOrder|TestWeightBinarySearch|TestWeightsReverseIndex' ./internal/pathindex ./internal/textindex ./internal/graph ./internal/relational ./internal/datagen .

check: build vet lint race
