// Package cirank implements CI-Rank — ranking keyword search results over
// relational data by their collective importance (Yu & Shi, ICDE 2012).
//
// CI-Rank models a database as a weighted directed graph (tuples are nodes,
// foreign-key references are edge pairs), computes global node importance
// with a random walk, and ranks the joined tuple trees answering a keyword
// query with the Random Walk with Message Passing (RWMP) model: answers are
// scored by how many messages their keyword nodes exchange, so both the
// importance of every node in the answer — including the free "connector"
// nodes IR-style rankers ignore — and the cohesiveness of the answer's
// structure matter.
//
// Typical usage:
//
//	b := cirank.NewDBLPBuilder()
//	b.MustInsert("Author", "a1", "Yannis Papakonstantinou")
//	b.MustInsert("Author", "a2", "Jeffrey Ullman")
//	b.MustInsert("Paper", "p1", "The TSIMMIS Project")
//	b.MustRelate("written_by", "p1", "a1")
//	b.MustRelate("written_by", "p1", "a2")
//	eng, err := b.Build(cirank.DefaultConfig())
//	// ...
//	results, err := eng.Search("papakonstantinou ullman", 5)
//
// The packages under internal/ hold the building blocks (graph substrate,
// text index, PageRank, the RWMP model, the search algorithms, the path
// indexes, the baselines and the experiment harness); this package is the
// stable public surface.
package cirank

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/pagerank"
	"cirank/internal/relational"
	"cirank/internal/rwmp"
	"cirank/internal/search"
	"cirank/internal/textindex"
)

// Config controls engine construction. Start from DefaultConfig and adjust:
// Alpha and Teleport have no zero sentinel — Build rejects 0 (and any
// out-of-range value) with ErrBadConfig instead of guessing what was meant.
// The remaining fields keep documented zero sentinels: Group 0 means the
// paper's 20, FeedbackMix 0 disables feedback biasing, and Workers 0 means
// one worker per CPU.
type Config struct {
	// Alpha is the message-keeping probability of the dampening function,
	// in (0, 1]. DefaultConfig sets the paper's operating point, 0.15.
	// There is no zero sentinel: an explicit 0 is rejected at Build.
	Alpha float64
	// Group is the talk group size g of the dampening function
	// (0 means the paper's default, 20).
	Group float64
	// Teleport is the random-walk teleportation constant c, in (0, 1).
	// DefaultConfig sets the paper's 0.15. There is no zero sentinel: an
	// explicit 0 is rejected at Build.
	Teleport float64
	// IndexDepth is the horizon of the paper's §V-B star index, and the
	// engine ignores it: Build neither builds nor saves the index, because
	// no search reads it (the per-query supply fields of
	// internal/search/field.go bound supplements at least as tightly).
	// Fig. 11/12, the differential harness and search.Options.Index build
	// their own index from internal/pathindex. The field stays, with its
	// check that rejects a negative value, only because the benchmark
	// module under bench/ reads it to size the index its traced run
	// builds; it goes together with those readers.
	IndexDepth int
	// FeedbackMix routes this fraction of teleport mass through recorded
	// feedback (Builder.AddFeedback), biasing importance toward nodes
	// users clicked — the paper's user-preference adaptation (§VI-A,
	// §VIII). 0 disables feedback biasing even if feedback was recorded.
	FeedbackMix float64
	// Workers is the fan-out of the offline build pipeline (the sharded
	// text-index build, see Builder.BuildContext). 0 means auto — one
	// worker per available CPU (GOMAXPROCS); 1 forces the sequential paths;
	// negative values are rejected with ErrBadConfig. The built indexes are
	// identical for every worker count (certified by the determinism
	// suites); only build time changes. Queries take no part: each one runs
	// on the goroutine that calls Search, and serving gets its concurrency
	// from independent queries.
	Workers int
}

// DefaultConfig returns the paper's configuration: α = 0.15, g = 20 and
// c = 0.15. Its IndexDepth of 6, the largest diameter the paper evaluates,
// has no effect on the engine (see Config.IndexDepth).
func DefaultConfig() Config {
	return Config{Alpha: 0.15, Group: 20, Teleport: 0.15, IndexDepth: 6}
}

// withDefaults validates the config and fills the documented zero
// sentinels. Alpha and Teleport deliberately have none: a zero there is
// almost always a forgotten field, and silently rewriting it to the paper
// default used to mask the bug, so it is now rejected with ErrBadConfig.
func (c Config) withDefaults() (Config, error) {
	if c.Alpha <= 0 || c.Alpha > 1 {
		return c, fmt.Errorf("%w: Alpha must be in (0, 1], got %g (start from DefaultConfig for the paper's 0.15; an explicit 0 is not rewritten)", ErrBadConfig, c.Alpha)
	}
	if c.Teleport <= 0 || c.Teleport >= 1 {
		return c, fmt.Errorf("%w: Teleport must be in (0, 1), got %g (start from DefaultConfig for the paper's 0.15; an explicit 0 is not rewritten)", ErrBadConfig, c.Teleport)
	}
	if c.Group < 0 {
		return c, fmt.Errorf("%w: negative Group %g", ErrBadConfig, c.Group)
	}
	if c.Group == 0 {
		c.Group = 20
	}
	if c.IndexDepth < 0 {
		return c, fmt.Errorf("%w: negative IndexDepth %d", ErrBadConfig, c.IndexDepth)
	}
	if c.FeedbackMix < 0 || c.FeedbackMix > 1 {
		return c, fmt.Errorf("%w: FeedbackMix must be in [0, 1], got %g", ErrBadConfig, c.FeedbackMix)
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("%w: negative Workers %d", ErrBadConfig, c.Workers)
	}
	return c, nil
}

// SearchOptions tune one query.
type SearchOptions struct {
	// Diameter is the maximal answer-tree diameter D (default 4).
	Diameter int
	// MaxExpansions caps branch-and-bound work (default 200000; 0 keeps
	// the default, -1 removes the cap).
	MaxExpansions int
}

// Row is one tuple of a search result.
type Row struct {
	// Table is the tuple's table.
	Table string
	// Key is the tuple's primary key within Table.
	Key string
	// Text is the tuple's searchable text.
	Text string
	// Matched reports whether this tuple matches at least one query term
	// (a non-free node).
	Matched bool
}

// Result is one ranked answer: a joined tuple tree.
type Result struct {
	// Score is the answer's RWMP score (Eq. 4); results rank by it.
	Score float64
	// Rows are the answer's tuples; Rows[0] is the tree root.
	Rows []Row
	// Edges are the tree edges as index pairs into Rows (child, parent).
	Edges [][2]int

	// tree and nodes (parallel to Rows) let Explain recompute the answer's
	// message flows.
	tree  *jtt.Tree
	nodes []graph.NodeID
}

// Engine is an immutable, query-ready CI-Rank instance. It is safe for
// concurrent use: any number of goroutines may call Search and the other
// query methods simultaneously (searches share only immutable state and a
// scratch pool).
type Engine struct {
	g        *graph.Graph
	ix       *textindex.Index
	model    *rwmp.Model
	searcher *search.Searcher
	imp      []float64
	lookup   lookupFunc
	// mapEntries is the complete (table, key) → node mapping, including
	// every merged-away role key. Snapshots persist it so Importance keeps
	// resolving merged keys after a reload.
	mapEntries []relational.MappingEntry
	// buildStats records what the offline build pipeline did. Engines
	// loaded from a snapshot report zero stage timings with Source set to
	// how the data arrived (stream decode or mmap open).
	buildStats BuildStats
	// closer releases the snapshot mapping backing a zero-copy engine
	// (nil otherwise); closeOnce makes Close idempotent.
	closer    func() error
	closeOnce sync.Once
}

// Close releases the resources backing the engine — for engines returned by
// Open, the snapshot file's memory mapping. It must not be called while
// queries are in flight: a zero-copy engine reads the mapped file on every
// search, and unmapping under a live query is a crash, not an error. Close
// is idempotent and safe for concurrent use; engines built in process or
// loaded from an io.Reader hold no external resources, so their Close is a
// no-op returning nil.
func (e *Engine) Close() error {
	var err error
	e.closeOnce.Do(func() {
		if e.closer != nil {
			err = e.closer()
		}
	})
	return err
}

// BuildStats reports the offline build pipeline's per-stage wall-clock
// timings and fan-out. Engines loaded from a snapshot report zero stage
// timings — their expensive stages were skipped entirely — with Source
// recording how the data arrived.
func (e *Engine) BuildStats() BuildStats { return e.buildStats }

// TermSelectivity reports how many graph nodes' text contains term (the
// term's total posting-list length, case-insensitively). It is the
// selectivity signal the serving layer's cost-based admission uses: the sum
// over a query's terms bounds the candidate-root set branch-and-bound must
// consider, so it is a cheap, index-only proxy for the work a query will do
// before any of that work happens. Unknown terms report 0.
func (e *Engine) TermSelectivity(term string) int {
	return e.ix.DFTotal(term)
}

// SearchStats reports the work one query did, for observability and the
// serving layer's per-query diagnostics.
type SearchStats struct {
	// Expanded counts candidate trees popped and grown by the
	// branch-and-bound loop. Trees at the ⌈D/2⌉ depth limit can grow nothing
	// and are never queued, so each count is a real expansion, and it is
	// this count that SearchOptions.MaxExpansions caps.
	Expanded int
	// Generated counts the candidates the search created: built trees after
	// dedup, plus terminal children priced and registered without being
	// built.
	Generated int
	// Answers counts complete valid answers encountered before top-k
	// truncation.
	Answers int
	// Truncated reports that the MaxExpansions cap stopped the search
	// early; the results are the best found up to the cap.
	Truncated bool
	// Interrupted reports that the context expired or was cancelled
	// mid-search; the results are the best found up to that point.
	Interrupted bool
	// FrontierBound is the best Eq. 3 upper bound left in the search
	// frontier when the query stopped: every answer the search did not
	// return either scores strictly below the k-th returned answer or is
	// bounded by this value. 0 when the frontier was exhausted, +Inf when
	// no finite bound exists (the query was interrupted or candidates were
	// dropped at the expansion cap).
	FrontierBound float64
	// Elapsed is the query's wall-clock time inside the engine.
	Elapsed time.Duration
}

// Partial reports whether the query stopped before exhausting its search
// frontier (by cap or cancellation), so the ranking carries no optimality
// guarantee.
func (s SearchStats) Partial() bool { return s.Truncated || s.Interrupted }

// SearchResult is a ranked answer list together with the query's stats.
type SearchResult struct {
	// Results are the ranked answers, best first.
	Results []Result
	// Stats describes the work done to produce them.
	Stats SearchStats
}

// Search tokenizes the query string and returns the top-k answers. AND
// semantics apply: every answer covers all query words; a query word with
// no matching tuple yields no answers. Search is uncancellable and discards
// the query stats; SearchContext is the full-fidelity form.
func (e *Engine) Search(query string, k int) ([]Result, error) {
	res, err := e.SearchContext(context.Background(), query, k)
	return res.Results, err
}

// SearchContext tokenizes the query string and runs it under ctx with
// default options. See SearchTermsContext for the cancellation contract.
func (e *Engine) SearchContext(ctx context.Context, query string, k int) (SearchResult, error) {
	return e.SearchTermsContext(ctx, textindex.Tokenize(query), k, SearchOptions{})
}

// SearchTerms runs a query given pre-split terms and explicit options. It
// is uncancellable and discards the query stats; SearchTermsContext is the
// full-fidelity form.
func (e *Engine) SearchTerms(terms []string, k int, opts SearchOptions) ([]Result, error) {
	res, err := e.SearchTermsContext(context.Background(), terms, k, opts)
	return res.Results, err
}

// searchOptions validates k and opts and resolves them into internal search
// options with the documented defaults filled.
func (e *Engine) searchOptions(k int, opts SearchOptions) (search.Options, error) {
	if k < 1 {
		return search.Options{}, fmt.Errorf("%w (got %d)", ErrBadK, k)
	}
	if opts.MaxExpansions < -1 {
		return search.Options{}, fmt.Errorf("%w: MaxExpansions %d (use -1 to remove the cap)", ErrBadOptions, opts.MaxExpansions)
	}
	sopts := search.Options{
		K:             k,
		Diameter:      opts.Diameter,
		MaxExpansions: opts.MaxExpansions,
	}
	if sopts.Diameter == 0 {
		sopts.Diameter = 4
	}
	switch {
	case sopts.MaxExpansions == 0:
		sopts.MaxExpansions = 200000
	case sopts.MaxExpansions < 0:
		sopts.MaxExpansions = 0
	}
	return sopts, nil
}

// SearchTermsContext runs a query given pre-split terms and explicit
// options, bounded by ctx. A context that is already done on entry yields
// an error wrapping ErrDeadline (and the context's own error) with no work
// done; a context that expires mid-search stops the query promptly at its
// next cancellation point and returns the best answers found so far with
// Stats.Interrupted set and a nil error. When the context never fires the
// ranking is byte-identical to SearchTerms.
// Invalid arguments are reported through the sentinel errors ErrBadK,
// ErrEmptyQuery and ErrBadOptions.
func (e *Engine) SearchTermsContext(ctx context.Context, terms []string, k int, opts SearchOptions) (SearchResult, error) {
	sopts, err := e.searchOptions(k, opts)
	if err != nil {
		return SearchResult{}, err
	}
	start := time.Now()
	answers, stats, err := e.searcher.TopKContext(ctx, terms, sopts)
	if err != nil {
		return SearchResult{}, err
	}
	res := SearchResult{
		Results: make([]Result, len(answers)),
		Stats: SearchStats{
			Expanded:      stats.Expanded,
			Generated:     stats.Generated,
			Answers:       stats.Answers,
			Truncated:     stats.Truncated,
			Interrupted:   stats.Interrupted,
			FrontierBound: stats.FrontierBound,
			Elapsed:       time.Since(start),
		},
	}
	for i, a := range answers {
		res.Results[i] = e.result(a, terms)
	}
	return res, nil
}

// result converts a search answer to the public form.
func (e *Engine) result(a search.Answer, terms []string) Result {
	nodes := a.Tree.Nodes()
	// Root first, rest in ascending order.
	ordered := make([]graph.NodeID, 0, len(nodes))
	ordered = append(ordered, a.Tree.Root())
	for _, v := range nodes {
		if v != a.Tree.Root() {
			ordered = append(ordered, v)
		}
	}
	indexOf := make(map[graph.NodeID]int, len(ordered))
	res := Result{Score: a.Score, tree: a.Tree, nodes: ordered}
	for i, v := range ordered {
		indexOf[v] = i
		n := e.g.Node(v)
		res.Rows = append(res.Rows, Row{
			Table:   n.Relation,
			Key:     n.Key,
			Text:    n.Text,
			Matched: e.ix.QueryMatchCount(v, terms) > 0,
		})
	}
	for _, edge := range a.Tree.Edges() {
		res.Edges = append(res.Edges, [2]int{indexOf[edge.Child], indexOf[edge.Parent]})
	}
	return res
}

// Importance returns the global importance value of the tuple (table, key),
// and whether the tuple exists. Useful for diagnostics and feedback tools.
func (e *Engine) Importance(table, key string) (float64, bool) {
	id, ok := e.mappingLookup(table, key)
	if !ok {
		return 0, false
	}
	return e.imp[id], true
}

// NumNodes reports the size of the engine's data graph.
func (e *Engine) NumNodes() int { return e.g.NumNodes() }

// NumEdges reports the number of directed edges in the data graph.
func (e *Engine) NumEdges() int { return e.g.NumEdges() }

func (e *Engine) mappingLookup(table, key string) (graph.NodeID, bool) {
	if e.lookup == nil {
		return 0, false
	}
	return e.lookup(table, key)
}

// lookup resolves tuples to nodes; injected by Builder.Build.
type lookupFunc func(table, key string) (graph.NodeID, bool)

// buildCancelled wraps a context error so callers can errors.Is it against
// context.Canceled / context.DeadlineExceeded.
func buildCancelled(err error) error {
	return fmt.Errorf("cirank: build cancelled: %w", err)
}

// buildEngine assembles an Engine from prepared parts, running the offline
// pipeline as a stage DAG under ctx. After graph construction (done by the
// caller), the text index and PageRank have no data dependency on one
// another, so they run concurrently; the text index fans out internally
// across the resolved worker count. PageRank itself stays sequential so
// importance values — and with them every downstream score — never depend
// on the machine's CPU count. Per-stage timings accumulate into stats.
func buildEngine(ctx context.Context, g *graph.Graph, mp *relational.Mapping, cfg Config, feedback map[graph.NodeID]float64, stats *BuildStats) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	stats.Workers = workers

	var (
		ix    *textindex.Index
		ixErr error
		done  = make(chan struct{})
	)
	go func() {
		defer close(done)
		t0 := time.Now()
		ix, ixErr = textindex.BuildContext(ctx, g, workers)
		stats.TextIndex = StageStats{Duration: time.Since(t0), Workers: workers, Items: g.NumNodes()}
	}()

	// PageRank, on this goroutine while the text index builds.
	prOpts := pagerank.DefaultOptions()
	prOpts.Teleport = cfg.Teleport
	if cfg.FeedbackMix > 0 && len(feedback) > 0 {
		prOpts.Personalization = feedback
		prOpts.PersonalizationMix = cfg.FeedbackMix
	}
	t0 := time.Now()
	pr, prErr := pagerank.Compute(g, prOpts)
	stats.PageRank = StageStats{Duration: time.Since(t0), Workers: 1, Items: g.NumNodes()}
	<-done
	if prErr != nil {
		return nil, prErr
	}
	if ixErr != nil {
		if err := ctx.Err(); err != nil {
			return nil, buildCancelled(err)
		}
		return nil, ixErr
	}
	if err := ctx.Err(); err != nil {
		return nil, buildCancelled(err)
	}
	model, err := rwmp.New(g, ix, pr.Scores, rwmp.Params{Alpha: cfg.Alpha, Group: cfg.Group})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		g:          g,
		ix:         ix,
		model:      model,
		searcher:   search.New(model),
		imp:        pr.Scores,
		lookup:     func(table, key string) (graph.NodeID, bool) { return mp.NodeOf(table, key) },
		mapEntries: mp.Entries(),
	}
	stats.Source = SourceBuild
	return e, nil
}
