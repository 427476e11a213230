package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"cirank"
	"cirank/internal/cache"
	"cirank/internal/graph"
	"cirank/internal/mmapio"
	"cirank/internal/pagerank"
	"cirank/internal/pathindex"
	"cirank/internal/relational"
	"cirank/internal/rwmp"
	"cirank/internal/search"
	"cirank/internal/textindex"
)

// Per-layer metric units, as BENCHMARK.json lists them. A layer is a module
// of the repository; README.md says which end-to-end metric each should move.
var perLayerUnits = map[string]string{
	"cirank.replay_ms":        "ms",
	"cirank.build_ms":         "ms",
	"cirank.search_ms":        "ms",
	"cirank.materialize_ms":   "ms",
	"textindex.build_ms":      "ms",
	"textindex.lookup_us":     "us",
	"textindex.postings":      "count",
	"pagerank.compute_ms":     "ms",
	"pagerank.iterations":     "count",
	"rwmp.new_ms":             "ms",
	"rwmp.score_us":           "us",
	"pathindex.build_ms":      "ms",
	"pathindex.entries":       "count",
	"pathindex.bytes":         "bytes",
	"pathindex.lookups":       "count",
	"pathindex.lookup_ms":     "ms",
	"search.topk_ms":          "ms",
	"search.expanded":         "count",
	"search.generated":        "count",
	"search.answers":          "count",
	"search.useful_ratio":     "ratio",
	"search.truncated":        "count",
	"search.allocs_per_query": "count",
	"search.bytes_per_query":  "bytes",
	"jtt.key_ns":              "ns",
	"snapshot.save_ms":        "ms",
	"snapshot.bytes":          "bytes",
	"snapshot.open_ms":        "ms",
	"snapshot.first_query_ms": "ms",
	"snapshot.load_ms":        "ms",
	"snapshot.open_allocs":    "count",
	"mmapio.map_us":           "us",
	"server.hit_us":           "us",
	"server.miss_ms":          "ms",
	"server.overhead_ms":      "ms",
	"server.hit_rate":         "ratio",
	"server.coalesce_rate":    "ratio",
	"server.rejected":         "count",
	"server.stale":            "count",
	"server.reload_ms":        "ms",
	"server.resp_bytes":       "bytes",
	"cache.lru_get_ns":        "ns",
	"cache.lru_add_ns":        "ns",
	"runtime.gc_cycles":       "count",
	"runtime.gc_pause_ms":     "ms",
	"runtime.heap_peak_mb":    "MB",
	"host.calib_ms":           "ms",
	"trace.overhead_pct":      "%",
}

const (
	// tracedQueries bounds the queries a serve workload's traced run
	// decomposes; the search workloads decompose their whole query set.
	tracedQueries = 48
	// microReps repeats the sub-microsecond layer calls (scoring, canonical
	// keys) inside one span, so the clock's granularity does not dominate.
	microReps = 32
)

// timedIndex counts and times the lookups the search makes into the raw
// star index. Lookups run on the search's worker goroutines, so busy is
// summed busy time, which can exceed the wall time of the search.
type timedIndex struct {
	inner   pathindex.Index
	lookups atomic.Int64
	busyNS  atomic.Int64
}

func (x *timedIndex) DistanceLB(u, v graph.NodeID) int {
	t0 := time.Now()
	d := x.inner.DistanceLB(u, v)
	x.busyNS.Add(int64(time.Since(t0)))
	x.lookups.Add(1)
	return d
}

func (x *timedIndex) RetentionUB(u, v graph.NodeID) float64 {
	t0 := time.Now()
	r := x.inner.RetentionUB(u, v)
	x.busyNS.Add(int64(time.Since(t0)))
	x.lookups.Add(1)
	return r
}

// take returns and clears the counters.
func (x *timedIndex) take() (int64, time.Duration) {
	return x.lookups.Swap(0), time.Duration(x.busyNS.Swap(0))
}

// layerParts are the layers assembled by hand, as rwmp.New → search.New
// over the generator's graph, text index and importance vector: the same
// construction the engine does internally, but with every boundary exposed.
type layerParts struct {
	g        *graph.Graph
	ix       *textindex.Index
	model    *rwmp.Model
	searcher *search.Searcher
	// index is nil when the workload builds no star index.
	index *timedIndex
}

// probeBuild times the offline stages by calling each layer directly.
func (s *session) probeBuild(ctx context.Context, tr *tracer, v map[string]float64) (*layerParts, error) {
	g := s.built.G
	workers := runtime.GOMAXPROCS(0)

	id := tr.start("textindex.build", 0, 0)
	ix, err := textindex.BuildContext(ctx, g, workers)
	tr.end(id, int64(g.NumNodes()))
	if err != nil {
		return nil, err
	}

	// The build pipeline runs the sequential solver, so that importance
	// never depends on the CPU count; time what it runs.
	opts := pagerank.DefaultOptions()
	opts.Teleport = s.cfg.Teleport
	id = tr.start("pagerank.compute", 0, 0)
	pr, err := pagerank.Compute(g, opts)
	tr.end(id, int64(g.NumNodes()))
	if err != nil {
		return nil, err
	}
	v["pagerank.iterations"] = float64(pr.Iterations)

	id = tr.start("rwmp.new", 0, 0)
	model, err := rwmp.New(g, ix, pr.Scores, rwmp.Params{Alpha: s.cfg.Alpha, Group: s.cfg.Group})
	tr.end(id, int64(g.NumNodes()))
	if err != nil {
		return nil, err
	}
	parts := &layerParts{g: g, ix: ix, model: model, searcher: search.New(model)}

	if s.cfg.IndexDepth > 0 {
		isStar := relational.StarNodeSet(g, relational.StarTables(s.ds.Schema))
		id = tr.start("pathindex.build", 0, 0)
		star, err := pathindex.BuildStarContext(ctx, g, model.DampVector(), isStar, s.cfg.IndexDepth, workers)
		tr.end(id, int64(g.NumNodes()))
		if err != nil {
			return nil, err
		}
		mem := star.MemStats()
		v["pathindex.entries"] = float64(mem.Entries)
		v["pathindex.bytes"] = float64(mem.Bytes)
		parts.index = &timedIndex{inner: star}
	}
	return parts, nil
}

// probeSnapshot reports the refresh stages set-up already timed, and times
// the two snapshot read paths the refresh cycle does not take.
func (s *session) probeSnapshot(tr *tracer, v map[string]float64) error {
	v["cirank.replay_ms"] = s.refreshMedian(func(rt refreshTimes) float64 { return ms(rt.replay) })
	v["cirank.build_ms"] = s.refreshMedian(func(rt refreshTimes) float64 { return ms(rt.build) })
	v["snapshot.save_ms"] = s.refreshMedian(func(rt refreshTimes) float64 { return ms(rt.save) })
	v["snapshot.open_ms"] = s.refreshMedian(func(rt refreshTimes) float64 { return ms(rt.open) })
	v["snapshot.first_query_ms"] = s.refreshMedian(func(rt refreshTimes) float64 { return ms(rt.firstQuery) })
	v["snapshot.open_allocs"] = s.refreshMedian(func(rt refreshTimes) float64 { return float64(rt.openAllocs) })
	v["snapshot.bytes"] = float64(s.snapshotBytes)

	f, err := os.Open(s.snapshotPath)
	if err != nil {
		return err
	}
	id := tr.start("snapshot.load", 0, 0)
	eng, err := cirank.LoadEngine(f)
	tr.end(id, s.snapshotBytes)
	f.Close()
	if err != nil {
		return err
	}
	eng.Close()

	id = tr.start("mmapio.map", 0, 0)
	const maps = 20
	for i := 0; i < maps; i++ {
		m, err := mmapio.Map(s.snapshotPath)
		if err != nil {
			return err
		}
		if err := m.Close(); err != nil {
			return err
		}
	}
	tr.end(id, maps)
	return nil
}

// tracedTally accumulates what the decomposed queries observed.
type tracedTally struct {
	queries, attempted, failed int
	// tracedNS and plainNS are the facade call timed from outside with and
	// without span recording around it, over the same queries in
	// alternating order.
	tracedNS, plainNS                      time.Duration
	materialize                            time.Duration
	expanded, generated, answers, postings int
	truncated                              int
	allocs, bytes                          uint64
	lookups                                int64
	lookupBusy                             time.Duration
}

// tracedQuery answers one query three ways: through the facade without and
// with span recording (in an order that alternates by request), and layer
// by layer over the hand-assembled parts. All three must produce the
// expected ranking.
func (s *session) tracedQuery(ctx context.Context, tr *tracer, eng *cirank.Engine, parts *layerParts, req int64, qi int, tally *tracedTally) error {
	terms := s.queries[qi]
	check := func(digest string, err error) {
		tally.attempted++
		if err != nil || digest != s.want[qi] {
			tally.failed++
		}
	}
	// Both arms are timed from outside, so the traced one includes opening
	// and closing its spans.
	plain := func() {
		t0 := time.Now()
		op := searchOnce(ctx, eng, terms)
		tally.plainNS += time.Since(t0)
		check(op.digest, op.err)
	}
	if req%2 == 0 {
		plain()
	}
	t0 := time.Now()
	root := tr.start("query", 0, req)
	id := tr.start("cirank.search", root, req)
	op := searchOnce(ctx, eng, terms)
	tr.end(id, 1)
	tally.tracedNS += time.Since(t0)
	tally.materialize += op.took - op.stats.Elapsed
	check(op.digest, op.err)

	id = tr.start("textindex.lookup", root, req)
	var nodes []graph.NodeID
	for _, term := range terms {
		nodes = parts.ix.AppendMatchingNodes(nodes[:0], term)
		tally.postings += len(nodes)
	}
	tr.end(id, int64(len(terms)))

	opts := search.Options{K: topK, Diameter: diameter, MaxExpansions: maxExpansions, Workers: runtime.GOMAXPROCS(0)}
	if parts.index != nil {
		opts.Index = parts.index
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	id = tr.start("search.topk", root, req)
	answers, stats, err := parts.searcher.TopKContext(ctx, terms, opts)
	tr.end(id, int64(stats.Expanded))
	took := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	tally.allocs += after.Mallocs - before.Mallocs
	tally.bytes += after.TotalAlloc - before.TotalAlloc
	tally.expanded += stats.Expanded
	tally.generated += stats.Generated
	tally.answers += stats.Answers
	if stats.Truncated {
		tally.truncated++
	}
	if parts.index != nil {
		n, busy := parts.index.take()
		tr.add("pathindex.lookup", id, req, t0, min(busy, took), n)
		tally.lookups += n
		tally.lookupBusy += busy
	}

	id = tr.start("rwmp.score", root, req)
	for rep := 0; rep < microReps; rep++ {
		for _, a := range answers {
			parts.model.Score(a.Tree, terms)
		}
	}
	tr.end(id, int64(microReps*len(answers)))

	id = tr.start("jtt.key", root, req)
	var key []byte
	for rep := 0; rep < microReps; rep++ {
		for _, a := range answers {
			key = a.Tree.AppendCanonicalKey(key[:0])
		}
	}
	tr.end(id, int64(microReps*len(answers)))
	tr.end(root, 1)

	var d rankingDigest
	for _, a := range answers {
		for _, v := range a.Tree.Nodes() {
			n := parts.g.Node(v)
			d.row(n.Relation, n.Key)
		}
		d.score(a.Score)
	}
	check(d.sum(stats.Truncated), nil)
	if req%2 == 1 {
		plain()
	}
	tally.queries++
	return nil
}

// probeCache times the LRU under the serve workloads' result cache at that
// cache's capacity: hits on resident keys, and inserts that each evict.
func probeCache(tr *tracer) {
	lru := cache.New[string, int](serveCache)
	keys := make([]string, 2*serveCache)
	for i := range keys {
		keys[i] = fmt.Sprintf("g1|k=10|d=4|query number %d", i)
	}
	for i, k := range keys[:serveCache] {
		lru.Add(k, i)
	}
	const ops = 1 << 18
	id := tr.start("cache.lru_get", 0, 0)
	for i := 0; i < ops; i++ {
		lru.Get(keys[i%serveCache])
	}
	tr.end(id, ops)
	id = tr.start("cache.lru_add", 0, 0)
	for i := 0; i < ops; i++ {
		lru.Add(keys[i%len(keys)], i)
	}
	tr.end(id, ops)
}

var calibSink uint64

// calibrate times a fixed pure-Go kernel (the best of three runs). It moves
// with the machine, not with the code, so it explains drift between runs.
func calibrate() float64 {
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 1<<25; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		best = min(best, time.Since(t0))
	}
	return ms(best)
}

// runTraced is the second kind of run: it records spans around the calls
// into each layer and reports the per-layer metrics. End-to-end metrics
// always come from an untraced run.
func (s *session) runTraced(ctx context.Context, o options) (result, error) {
	tr := newTracer()
	v := make(map[string]float64, len(perLayerUnits))
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	calib := calibrate()

	parts, err := s.probeBuild(ctx, tr, v)
	if err != nil {
		return result{}, err
	}
	if err := s.probeSnapshot(tr, v); err != nil {
		return result{}, err
	}
	probeCache(tr)

	eng, err := cirank.Open(s.snapshotPath)
	if err != nil {
		return result{}, err
	}
	defer eng.Close()
	var tally tracedTally
	if s.spec.serve {
		half := o
		half.seconds = o.seconds / 2
		w, _, err := s.serve(ctx, half, tr)
		if err != nil {
			return result{}, err
		}
		tally.attempted, tally.failed = len(w.latencyMS), w.failed
		serveLayerMetrics(w, v)
		// Odd requests recorded spans, inside their timed interval; even
		// ones did not.
		if plain := median(w.hitMS[0]); plain > 0 {
			v["trace.overhead_pct"] = 100 * (median(w.hitMS[1]) - plain) / plain
		}
		for qi := 0; qi < tracedQueries && qi < len(s.queries); qi++ {
			if err := s.tracedQuery(ctx, tr, eng, parts, int64(streamLen+qi), qi, &tally); err != nil {
				return result{}, err
			}
		}
	} else {
		if err := s.warmUp(ctx, eng); err != nil {
			return result{}, err
		}
		rng := rand.New(rand.NewSource(o.seed))
		req := int64(0)
		for start := time.Now(); time.Since(start).Seconds() < o.seconds/2; {
			for _, qi := range rng.Perm(len(s.queries)) {
				if err := s.tracedQuery(ctx, tr, eng, parts, req, qi, &tally); err != nil {
					return result{}, err
				}
				req++
			}
		}
		v["trace.overhead_pct"] = 100 * float64(tally.tracedNS-tally.plainNS) / float64(tally.plainNS)
	}
	calib = (calib + calibrate()) / 2
	runtime.ReadMemStats(&mem1)

	totals := tr.totals()
	q := float64(tally.queries)
	v["cirank.search_ms"] = totals["cirank.search"].meanMS()
	v["cirank.materialize_ms"] = ms(tally.materialize) / q
	v["textindex.build_ms"] = totals["textindex.build"].meanMS()
	v["textindex.lookup_us"] = totals["textindex.lookup"].meanMS() * 1e3
	v["textindex.postings"] = float64(tally.postings) / q
	v["pagerank.compute_ms"] = totals["pagerank.compute"].meanMS()
	v["rwmp.new_ms"] = totals["rwmp.new"].meanMS()
	v["rwmp.score_us"] = totals["rwmp.score"].perUnitNS() / 1e3
	v["pathindex.build_ms"] = totals["pathindex.build"].meanMS()
	v["pathindex.lookups"] = float64(tally.lookups) / q
	v["pathindex.lookup_ms"] = ms(tally.lookupBusy) / q
	v["search.topk_ms"] = totals["search.topk"].meanMS()
	v["search.expanded"] = float64(tally.expanded) / q
	v["search.generated"] = float64(tally.generated) / q
	v["search.answers"] = float64(tally.answers) / q
	if tally.generated > 0 {
		v["search.useful_ratio"] = float64(tally.answers) / float64(tally.generated)
	}
	v["search.truncated"] = float64(tally.truncated)
	v["search.allocs_per_query"] = float64(tally.allocs) / q
	v["search.bytes_per_query"] = float64(tally.bytes) / q
	v["jtt.key_ns"] = totals["jtt.key"].perUnitNS()
	v["snapshot.load_ms"] = totals["snapshot.load"].meanMS()
	v["mmapio.map_us"] = totals["mmapio.map"].perUnitNS() / 1e3
	v["cache.lru_get_ns"] = totals["cache.lru_get"].perUnitNS()
	v["cache.lru_add_ns"] = totals["cache.lru_add"].perUnitNS()
	if miss := totals["server.miss"]; miss != nil {
		v["server.overhead_ms"] = ms(miss.self) / float64(miss.count)
	}
	v["runtime.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	v["runtime.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	v["runtime.heap_peak_mb"] = float64(mem1.HeapSys) / 1e6
	v["host.calib_ms"] = calib

	printLayerTable(totals)
	if err := tr.dump(filepath.Join(o.workDir, "trace-"+s.spec.name+".json")); err != nil {
		return result{}, err
	}
	res := result{Correct: tally.failed == 0, Attempted: tally.attempted, Failed: tally.failed, Metrics: map[string]metric{}}
	for name, unit := range perLayerUnits {
		res.Metrics[name] = metric{Value: v[name], Unit: unit}
	}
	return res, nil
}

// serveLayerMetrics fills the server layer's metrics from what the clients
// observed in the traced window.
func serveLayerMetrics(w *serveWindow, v map[string]float64) {
	ok := float64(len(w.latencyMS) - w.failed)
	// Hits that recorded a span carry the recording's time; leave them out.
	v["server.hit_us"] = median(w.hitMS[0]) * 1e3
	v["server.miss_ms"] = median(w.missMS)
	if ok > 0 {
		v["server.hit_rate"] = float64(len(w.hitMS[0])+len(w.hitMS[1])) / ok
		v["server.coalesce_rate"] = float64(w.coalesced) / ok
	}
	v["server.rejected"] = float64(w.rejected)
	v["server.stale"] = float64(w.stale)
	v["server.reload_ms"] = median(w.reloadMS)
	v["server.resp_bytes"] = float64(w.respBytes) / float64(len(w.latencyMS))
}

// printLayerTable prints, per span name, the call count, the total time and
// the self time (the span minus what its children cover).
func printLayerTable(totals map[string]*layerTotal) {
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-20s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, name := range names {
		lt := totals[name]
		fmt.Printf("%-20s %8d %12.3f %12.3f\n", name, lt.count, ms(lt.total), ms(lt.self))
	}
	fmt.Println(strings.Repeat("-", 55))
}
