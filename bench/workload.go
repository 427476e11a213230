package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"cirank"
	"cirank/internal/datagen"
)

// The corpus, the query set and the popularity ranking are fixed: the golden
// rankings pin them, and --seed only reorders the operations (search) or
// redraws the request stream (serve). A seed that changed which queries run
// would move every latency percentile by more than any bound.
const (
	dataSeed  = 1
	querySeed = 1
	rankSeed  = 7

	// topK, diameter and maxExpansions are the query parameters. The
	// expansion cap equals the product default; it is passed explicitly to
	// the facade, the server and the hand-assembled searcher of the traced
	// run, so that all three search under the same one.
	topK          = 10
	diameter      = 4
	maxExpansions = 200000

	// refreshReps is how often set-up repeats the build → save → open →
	// first-answer cycle; refresh_s is the median.
	refreshReps = 9
	// searchWarmup is how many queries run unmeasured before a search window.
	searchWarmup = 12
	// minPasses keeps a search window at two whole passes over the query
	// set however slow the machine: with 52 queries that is 104 samples,
	// the fewest that leave ten beyond the 90th percentile.
	minPasses = 2
	// serveWarmup is how many requests run unmeasured before a serve window.
	serveWarmup = 200
	// serveCache is the result cache capacity of the serve workloads, below
	// the distinct query count so the LRU evicts.
	serveCache = 64
	// streamLen is the length of the pre-drawn request stream; clients wrap
	// around if a window outlasts it.
	streamLen = 1 << 16
)

// workloadSpec describes one workload; BENCHMARK.json carries the reasons.
type workloadSpec struct {
	name    string
	dataset string
	scale   float64
	// noIndex builds without the star index, which is quadratic in the star
	// node count and so caps the reachable corpus size.
	noIndex bool
	// queries is the count asked of the query generator, before dedup.
	queries int
	serve   bool
	// refreshEvery makes client 0 rebuild, save and hot-reload the corpus
	// after this many of its own requests.
	refreshEvery int
}

var workloads = []workloadSpec{
	{name: "search-indexed", dataset: "dblp", scale: 2, queries: 56},
	{name: "search-large", dataset: "dblp", scale: 6, noIndex: true, queries: 56},
	{name: "serve-zipf", dataset: "imdb", scale: 2, queries: 384, serve: true},
	{name: "serve-refresh", dataset: "imdb", scale: 2, queries: 384, serve: true, refreshEvery: 300},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// session is one run's prepared state: the generated corpus, the query set,
// the reference rankings and the snapshot the measured engine is opened from.
type session struct {
	spec workloadSpec
	cfg  cirank.Config
	ds   *datagen.Dataset
	// built is datagen's own graph, text index and importance vector. The
	// query generator needs it; afterwards only a traced run keeps it, to
	// drive the layers directly.
	built *datagen.Built
	// queries are the distinct queries: in generation order for search
	// workloads, in popularity order (most popular first) for serve ones.
	queries [][]string
	// want holds the expected ranking digest per query.
	want []string
	fp   fingerprint

	snapshotPath  string
	snapshotBytes int64
	refreshes     []refreshTimes
}

// fingerprint identifies the generated inputs.
type fingerprint struct {
	Nodes         int    `json:"nodes"`
	Edges         int    `json:"edges"`
	Queries       int    `json:"queries"`
	QueriesSHA256 string `json:"queries_sha256"`
}

// setUp generates the corpus and queries, verifies them against the golden
// file, and runs the refresh repetitions that leave the snapshot behind.
func setUp(ctx context.Context, spec workloadSpec, o options, dir string) (*session, error) {
	s := &session{spec: spec, cfg: cirank.DefaultConfig(), snapshotPath: filepath.Join(dir, "corpus.snap")}
	if spec.noIndex {
		s.cfg.IndexDepth = 0
	}
	var err error
	scale, queries, refreshes := spec.scale, spec.queries, refreshReps
	if o.smoke {
		scale, queries, refreshes = scale/4, queries/4, 1
	}
	switch spec.dataset {
	case "dblp":
		s.ds, err = datagen.GenerateDBLP(datagen.DefaultDBLPConfig(dataSeed).Scale(scale))
	case "imdb":
		s.ds, err = datagen.GenerateIMDB(datagen.DefaultIMDBConfig(dataSeed).Scale(scale))
	default:
		err = fmt.Errorf("unknown dataset %q", spec.dataset)
	}
	if err != nil {
		return nil, err
	}
	s.built, err = datagen.Build(s.ds)
	if err != nil {
		return nil, err
	}
	qs, err := s.built.GenerateWorkload(datagen.UserLogConfig(queries, querySeed))
	if err != nil {
		return nil, err
	}
	s.queries = distinctQueries(qs)
	if len(s.queries) == 0 {
		return nil, fmt.Errorf("%s: the query generator produced no queries", spec.name)
	}
	if spec.serve {
		rng := rand.New(rand.NewSource(rankSeed))
		rng.Shuffle(len(s.queries), func(i, j int) { s.queries[i], s.queries[j] = s.queries[j], s.queries[i] })
	}
	s.fp = fingerprint{
		Nodes:         s.built.G.NumNodes(),
		Edges:         s.built.G.NumEdges(),
		Queries:       len(s.queries),
		QueriesSHA256: hashQueries(s.queries),
	}
	if !o.trace {
		// The generator's structures are not the system under test; drop
		// them so peak_rss_mb is the engine's memory, not the harness's.
		s.built = nil
		debug.FreeOSMemory()
	}

	fromGolden := !o.smoke && !o.updateGolden
	if fromGolden {
		if s.want, err = loadGolden(spec.name, s.fp); err != nil {
			return nil, err
		}
	}
	for rep := 0; rep < refreshes; rep++ {
		// Start every repetition from a collected heap, so that one
		// repetition's garbage is not collected on the next one's clock.
		runtime.GC()
		rt, err := s.refresh(ctx, !fromGolden && rep == 0)
		if err != nil {
			return nil, fmt.Errorf("%s: refresh %d: %w", spec.name, rep, err)
		}
		s.refreshes = append(s.refreshes, rt)
	}
	return s, nil
}

// distinctQueries drops repeated queries, keeping first occurrences.
func distinctQueries(qs []datagen.Query) [][]string {
	seen := make(map[string]bool, len(qs))
	var out [][]string
	for _, q := range qs {
		key := strings.Join(q.Terms, " ")
		if !seen[key] {
			seen[key] = true
			out = append(out, q.Terms)
		}
	}
	return out
}

func hashQueries(queries [][]string) string {
	h := sha256.New()
	for _, q := range queries {
		fmt.Fprintln(h, strings.Join(q, " "))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// newBuilder replays the dataset into a fresh public builder, the path
// cmd/cirank-server takes.
func (s *session) newBuilder() (*cirank.Builder, error) {
	var b *cirank.Builder
	if s.spec.dataset == "dblp" {
		b = cirank.NewDBLPBuilder()
	} else {
		b = cirank.NewIMDBBuilder()
	}
	if err := s.ds.Replay(b.InsertEntity, b.Relate); err != nil {
		return nil, err
	}
	return b, nil
}

// refreshTimes are the stages of one refresh repetition.
type refreshTimes struct {
	replay, build, save, open, firstQuery time.Duration
	// total is new-data-to-first-answer: build, save, open, first query
	// and close. Replay is excluded: the data is already in the builder
	// when a refresh starts.
	total      time.Duration
	openAllocs uint64
}

// refreshMedian is the median over set-up's refresh repetitions of one of
// their measurements.
func (s *session) refreshMedian(of func(refreshTimes) float64) float64 {
	vals := make([]float64, len(s.refreshes))
	for i, rt := range s.refreshes {
		vals[i] = of(rt)
	}
	return median(vals)
}

// buildAndSave replays the corpus, builds an engine and writes its snapshot
// to the served path through a temporary file and a rename, so a reader
// never sees a partial snapshot. It returns the built engine, which the
// caller closes.
func (s *session) buildAndSave(ctx context.Context, rt *refreshTimes) (*cirank.Engine, error) {
	t0 := time.Now()
	b, err := s.newBuilder()
	if err != nil {
		return nil, err
	}
	rt.replay = time.Since(t0)

	t0 = time.Now()
	eng, err := b.BuildContext(ctx, s.cfg)
	if err != nil {
		return nil, err
	}
	rt.build = time.Since(t0)

	t0 = time.Now()
	tmp, err := os.CreateTemp(filepath.Dir(s.snapshotPath), "corpus.tmp*")
	if err != nil {
		eng.Close()
		return nil, err
	}
	err = eng.Save(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.snapshotPath)
	}
	if err != nil {
		os.Remove(tmp.Name())
		eng.Close()
		return nil, err
	}
	rt.save = time.Since(t0)
	return eng, nil
}

// refresh runs one build → save → open → first answer → close cycle. With
// reference set it first ranks every query on the built engine, so that the
// measured (opened) engine is checked against an independent path when no
// golden file applies.
func (s *session) refresh(ctx context.Context, reference bool) (refreshTimes, error) {
	var rt refreshTimes
	built, err := s.buildAndSave(ctx, &rt)
	if err != nil {
		return rt, err
	}
	defer built.Close()
	if reference {
		s.want = make([]string, len(s.queries))
		for i, q := range s.queries {
			op := searchOnce(ctx, built, q)
			if op.err != nil {
				return rt, op.err
			}
			s.want[i] = op.digest
		}
	}

	allocs := mallocs()
	t0 := time.Now()
	eng, err := cirank.Open(s.snapshotPath)
	if err != nil {
		return rt, err
	}
	rt.open = time.Since(t0)
	rt.openAllocs = mallocs() - allocs

	op := searchOnce(ctx, eng, s.queries[0])
	rt.firstQuery = op.took
	t0 = time.Now()
	if err := eng.Close(); err != nil {
		return rt, err
	}
	rt.total = rt.build + rt.save + rt.open + rt.firstQuery + time.Since(t0)
	if op.err != nil {
		return rt, op.err
	}
	if op.digest != s.want[0] {
		return rt, fmt.Errorf("first answer from the opened snapshot differs from the expected ranking of %q", strings.Join(s.queries[0], " "))
	}
	st, err := os.Stat(s.snapshotPath)
	if err != nil {
		return rt, err
	}
	s.snapshotBytes = st.Size()
	return rt, nil
}

// zipfStream draws n query indices from a Zipf distribution with exponent
// 1 over distinct ranks (index 0 is the most popular), by inverting the
// cumulative weights. math/rand's Zipf needs an exponent above 1.
func zipfStream(seed int64, distinct, n int) []int32 {
	cum := make([]float64, distinct)
	total := 0.0
	for r := 0; r < distinct; r++ {
		total += 1 / float64(r+1)
		cum[r] = total
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, n)
	for i := range out {
		u := rng.Float64() * total
		out[i] = int32(math.Min(float64(sort.SearchFloat64s(cum, u)), float64(distinct-1)))
	}
	return out
}
