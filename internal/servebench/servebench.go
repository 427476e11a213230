// Package servebench is the load harness behind cmd/cirank-loadgen: it
// drives the HTTP serving stack (internal/server) with the same Zipf-skewed
// AOL-style query stream the engine benchmarks replay
// (internal/searchbench), and measures what the serving layer — singleflight
// coalescing, the generation-keyed result cache, cost-based admission — adds
// on top of raw engine throughput.
//
// A Fixture is built once per dataset × scale: the dataset is generated,
// replayed through the public builder (the same path cmd/cirank-server
// takes), snapshotted, and every benchmark arm re-opens the snapshot
// zero-copy so arms never share mutable engine state. An Arm is one
// measured server configuration — cache off, cache warm, reloads landing
// mid-load — driven closed-loop (a fixed client count, each issuing the
// next query as soon as the last answers) or open-loop (a target arrival
// rate, latencies measured under overload realism).
//
// Every request is timed individually and checked for staleness: the
// harness tracks the highest generation whose reload has completed, and a
// response claiming an older generation than the floor observed before the
// request started is counted in Result.Stale. The tracked reload arm must
// report zero stale and zero failed requests — the serving stack's
// correctness-under-churn guarantee, enforced by this package's tests
// under the race detector.
//
// The numbers a change is judged on come from the bench/ harness
// (BENCHMARK.json: serve-zipf, serve-refresh); this package exists for the
// tier-1, race-gated serving invariants above and as the open-loop tool.
package servebench

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"cirank"
	"cirank/internal/datagen"
	"cirank/internal/searchbench"
)

// Fixture is one prepared serving workload: a snapshot of the built engine
// plus the query stream to replay against it. Arms open the snapshot
// independently, so a Fixture is safe to reuse across arms and goroutines.
type Fixture struct {
	// Dataset is "dblp" or "imdb".
	Dataset string
	// Scale is the dataset scale multiplier.
	Scale float64
	// DataSeed drove dataset generation, QuerySeed the query sampler and
	// stream skew.
	DataSeed, QuerySeed int64
	// SnapshotPath is the engine snapshot every arm serves from.
	SnapshotPath string
	// Queries are the distinct query strings (terms joined by spaces).
	Queries []string
	// Stream is the skewed replay order over Queries.
	Stream []int
	// Nodes and Edges describe the served graph.
	Nodes, Edges int

	// paths are the pre-rendered request URIs per distinct query, indexed
	// like Queries.
	paths []string
}

// NewFixture generates the dataset, builds the engine through the public
// builder (the same path cmd/cirank-server takes), snapshots it into dir,
// and derives the query stream. Identical arguments produce an identical
// fixture.
func NewFixture(dir, dataset string, scale float64, dataSeed, querySeed int64, k int) (*Fixture, error) {
	ds, err := datagen.Generate(dataset, scale, dataSeed)
	if err != nil {
		return nil, err
	}
	b := cirank.NewDBLPBuilder()
	if ds.Kind == "imdb" {
		b = cirank.NewIMDBBuilder()
	}

	// The workload generator needs the analysis graph; the serving engine
	// needs the same rows through the public builder. Both replay ds, so
	// the queries match the corpus byte for byte.
	built, err := datagen.Build(ds)
	if err != nil {
		return nil, err
	}
	nq, stream := searchbench.StreamPlan(querySeed)
	qs, err := built.GenerateWorkload(datagen.UserLogConfig(nq, querySeed))
	if err != nil {
		return nil, err
	}

	if err := ds.Replay(b.InsertEntity, b.Relate); err != nil {
		return nil, err
	}
	eng, err := b.Build(cirank.DefaultConfig())
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	path := filepath.Join(dir, fmt.Sprintf("%s-%g.snap", dataset, scale))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := eng.Save(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	fx := &Fixture{
		Dataset:      dataset,
		Scale:        scale,
		DataSeed:     dataSeed,
		QuerySeed:    querySeed,
		SnapshotPath: path,
		Stream:       stream,
		Nodes:        eng.NumNodes(),
		Edges:        eng.NumEdges(),
	}
	for _, q := range qs {
		query := strings.Join(q.Terms, " ")
		fx.Queries = append(fx.Queries, query)
		fx.paths = append(fx.paths, fmt.Sprintf("/v1/search?q=%s&k=%d", url.QueryEscape(query), k))
	}
	// The stream indexes the generated query list; a short workload (rare
	// at tiny scales) still replays correctly via the modulo below.
	if len(fx.Queries) == 0 {
		return nil, fmt.Errorf("servebench: workload generation produced no queries for %s scale %g", dataset, scale)
	}
	return fx, nil
}

// Path returns the request URI of the i-th stream entry.
func (f *Fixture) Path(i int) string {
	return f.paths[f.Stream[i%len(f.Stream)]%len(f.paths)]
}
