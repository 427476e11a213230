// Package server is the HTTP/JSON serving layer over a cirank.Engine,
// built to survive heavy skewed traffic rather than just answer requests:
// identical in-flight queries coalesce into one evaluation (singleflight),
// complete results are cached in a bounded generation-keyed cache, and
// admission is cost-based — the server estimates a query's work from its
// terms' posting-list selectivity and sheds load with 429 + Retry-After when
// the in-flight cost budget is exhausted, instead of counting every request
// as one flat semaphore slot.
//
// The HTTP surface is versioned. /v1/ is the stable, documented API
// (docs/api.md) with a uniform JSON envelope carrying schema, generation,
// results, stats and structured errors:
//
//	GET  /v1/search?q=<keywords>&k=5&diameter=4&timeout=2s
//	POST /v1/search              {"queries": [{"q": ...}, ...]}  (batched)
//	GET  /v1/healthz
//	GET  /v1/metrics
//	POST /v1/admin/reload        (only with Config.SnapshotPath set)
//
// Every query runs under a deadline from its timeout parameter
// (default/cap from Config), so a runaway branch-and-bound query stops at
// its next cancellation point and returns the best answers found so far
// with stats.interrupted set, instead of burning a worker until completion.
//
// The server never touches a bare engine: requests borrow the current one
// from a Provider for exactly their own duration, and every result —
// cached, coalesced or fresh — is keyed by the borrowed generation.
// /v1/admin/reload re-opens the configured snapshot, validates it, atomically
// swaps it in and discards the result cache; queries already running
// continue against the engine they started with, a result computed against
// generation g can only ever reach a request that leased generation g, and
// no request ever fails because a reload happened mid-flight.
//
// One process can serve many corpora at once: Config.Tenants registers a
// named engine per tenant, each behind its own provider, result cache,
// singleflight group and admission slice (registry.go). The tenant request
// parameter selects the corpus (defaulting to the sole tenant), /v1/healthz
// reports a block per tenant, /v1/metrics labels the
// per-tenant series, and the global admission budget is split by a
// weighted-fair policy so one tenant's heavy queries cannot starve another.
// The tenant set is fixed when New runs; each tenant hot-reloads
// independently (/v1/admin/reload?tenant=<name>).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"cirank"
	"cirank/internal/textindex"
)

// Config sizes a Server. The zero value of every field except Engine takes
// a sensible serving default; invalid values are rejected at New with
// errors wrapping ErrBadConfig.
type Config struct {
	// Engine is the query-ready engine to serve. Exactly one of Engine and
	// Tenants must be set.
	Engine *cirank.Engine
	// DefaultK is the answer count when the request has no k parameter
	// (default 5).
	DefaultK int
	// MaxK bounds the k parameter (default 100); larger requests get 400.
	MaxK int
	// DefaultDiameter is the answer-tree diameter limit when the request
	// has no diameter parameter (default 4).
	DefaultDiameter int
	// MaxDiameter bounds the diameter parameter (default 6); larger
	// requests get 400.
	MaxDiameter int
	// DefaultTimeout is the per-query deadline when the request has no
	// timeout parameter (default 5s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the timeout parameter (default 30s); larger requests
	// are clamped, keeping one slow client from parking admission budget.
	MaxTimeout time.Duration
	// MaxExpansions caps branch-and-bound work per query (default 200000;
	// -1 removes the cap, leaving the timeout as the only bound).
	MaxExpansions int
	// Tenants, when non-empty, serves several named corpora from one
	// process: each entry gets its own provider, result cache, singleflight
	// group and weighted-fair admission share (see TenantConfig). Mutually
	// exclusive with Engine/SnapshotPath, which are the single-tenant
	// shorthand: configuring them is equivalent to one Tenants entry named
	// DefaultTenantName.
	Tenants []TenantConfig
	// SnapshotPath, when non-empty, enables POST /v1/admin/reload: the
	// handler opens this snapshot file with cirank.Open and hot-swaps the
	// resulting engine in, discarding the result cache. Empty leaves the
	// endpoint unregistered (404).
	SnapshotPath string
	// ReloadDrainTimeout bounds how long a reload waits for queries
	// borrowed from the replaced engine to finish before answering (default
	// 5s). The swap itself is immediate regardless; a response with
	// drained=false only means old queries were still running when the
	// handler answered.
	ReloadDrainTimeout time.Duration

	// The serving knobs: how the server behaves under heavy traffic.

	// ResultCacheSize bounds the generation-keyed result cache: at most
	// this many complete query outcomes are retained, LRU-evicted (default
	// 1024). Negative disables result caching entirely.
	ResultCacheSize int
	// AdmissionBudget is the cost-based admission limit: the total
	// estimated cost (1 + posting-list lengths of the query's terms, see
	// Engine.TermSelectivity) of concurrently evaluating queries stays
	// under this budget, and over-budget arrivals get 429 + Retry-After.
	// An idle server admits any single query regardless of its cost.
	// Default 4096 × GOMAXPROCS; negative is rejected.
	AdmissionBudget int64
	// MaxInFlight additionally caps the number of concurrently evaluating
	// queries regardless of their cost (default 2×GOMAXPROCS) — floods of
	// near-zero-cost queries are bounded by concurrency, expensive ones by
	// budget. Cache hits and coalesced followers consume neither.
	MaxInFlight int
	// MaxBatch bounds the queries accepted in one POST /v1/search batch
	// (default 16); larger batches get 400.
	MaxBatch int
}

// withDefaults validates the config and fills the zero fields, normalizing
// the single-tenant shorthand (Engine/SnapshotPath) into a one-entry
// Tenants list named DefaultTenantName. Every failure wraps ErrBadConfig.
func (c Config) withDefaults() (Config, error) {
	if len(c.Tenants) > 0 {
		if c.Engine != nil || c.SnapshotPath != "" {
			return c, fmt.Errorf("%w: Tenants is mutually exclusive with Engine and SnapshotPath", ErrBadConfig)
		}
	} else if c.Engine == nil {
		return c, fmt.Errorf("%w: Engine or Tenants is required", ErrBadConfig)
	}
	if c.DefaultK == 0 {
		c.DefaultK = 5
	}
	if c.MaxK == 0 {
		c.MaxK = 100
	}
	if c.DefaultDiameter == 0 {
		c.DefaultDiameter = 4
	}
	if c.MaxDiameter == 0 {
		c.MaxDiameter = 6
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.ResultCacheSize == 0 {
		c.ResultCacheSize = 1024
	}
	if c.AdmissionBudget == 0 {
		c.AdmissionBudget = 4096 * int64(runtime.GOMAXPROCS(0))
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 16
	}
	for name, v := range map[string]int{
		"DefaultK": c.DefaultK, "MaxK": c.MaxK,
		"DefaultDiameter": c.DefaultDiameter, "MaxDiameter": c.MaxDiameter,
		"MaxInFlight": c.MaxInFlight, "MaxBatch": c.MaxBatch,
	} {
		if v < 0 {
			return c, fmt.Errorf("%w: negative %s %d", ErrBadConfig, name, v)
		}
	}
	if c.AdmissionBudget < 0 {
		return c, fmt.Errorf("%w: negative AdmissionBudget %d", ErrBadConfig, c.AdmissionBudget)
	}
	if c.DefaultTimeout < 0 || c.MaxTimeout < 0 || c.ReloadDrainTimeout < 0 {
		return c, fmt.Errorf("%w: negative timeout", ErrBadConfig)
	}
	if c.ReloadDrainTimeout == 0 {
		c.ReloadDrainTimeout = 5 * time.Second
	}
	if c.MaxExpansions < -1 {
		return c, fmt.Errorf("%w: MaxExpansions %d (use -1 to remove the cap)", ErrBadConfig, c.MaxExpansions)
	}
	// Normalize to the tenant form: the single-tenant shorthand becomes one
	// entry named DefaultTenantName, then every tenant — explicit or
	// synthesized — passes the same validation (name shape, weights).
	tenants := c.Tenants
	if len(tenants) == 0 {
		tenants = []TenantConfig{{
			Name:         DefaultTenantName,
			Engine:       c.Engine,
			SnapshotPath: c.SnapshotPath,
		}}
	}
	normalized := make([]TenantConfig, len(tenants))
	seen := make(map[string]bool, len(tenants))
	for i, tc := range tenants {
		ntc, err := c.normalizeTenant(tc)
		if err != nil {
			return c, err
		}
		if seen[ntc.Name] {
			return c, fmt.Errorf("%w: duplicate tenant name %q", ErrBadConfig, ntc.Name)
		}
		seen[ntc.Name] = true
		normalized[i] = ntc
	}
	c.Tenants = normalized
	return c, nil
}

// Server serves keyword-search queries over a hot-swappable engine. It is
// safe for concurrent use; construct with New and mount Handler on an
// http.Server.
type Server struct {
	cfg Config
	// reg is the tenant registry: every named corpus with its own
	// provider, cache, flight group and admission slice (registry.go). The
	// server never stores a bare engine.
	reg registry
	// reloadMu serializes reloads across tenants: loading a snapshot is
	// expensive and concurrent reloads would race to be "the" new
	// generation.
	reloadMu sync.Mutex
	m        metrics
	mux      *http.ServeMux
}

// New validates the config and assembles a Server over the tenant set it
// names, which stays fixed for the server's life. The server's Providers
// take over the engines' lifecycles: each engine is closed when swapped out
// by a reload (after its in-flight queries drain) or by Server.Close.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg,
		mux: http.NewServeMux(),
		reg: registry{byName: make(map[string]*tenant, len(cfg.Tenants))},
	}
	var totalWeight int64
	for _, tc := range cfg.Tenants {
		totalWeight += int64(tc.AdmissionWeight)
	}
	reloadConfigured := false
	for _, tc := range cfg.Tenants {
		t := s.newTenant(tc, totalWeight)
		s.reg.byName[t.name] = t
		s.reg.sorted = append(s.reg.sorted, t)
		if tc.SnapshotPath != "" {
			reloadConfigured = true
		}
	}
	sort.Slice(s.reg.sorted, func(i, j int) bool { return s.reg.sorted[i].name < s.reg.sorted[j].name })
	s.mux.HandleFunc("/v1/search", s.handleV1Search)
	s.mux.HandleFunc("/v1/healthz", s.handleV1Healthz)
	s.mux.HandleFunc("/v1/metrics", s.handleMetricsExposition)
	if reloadConfigured {
		s.mux.HandleFunc("/v1/admin/reload", s.handleV1Reload)
	}
	return s, nil
}

// Close retires every tenant's current engine: in-flight queries finish
// against the generations they leased, new ones get 503, and each engine is
// closed once its leases drain.
func (s *Server) Close() {
	for _, t := range s.reg.sorted {
		t.provider.Close()
	}
}

// Handler returns the server's HTTP handler, for mounting on an
// http.Server (whose Shutdown gives the graceful-drain story; see
// cmd/cirank-server).
func (s *Server) Handler() http.Handler { return s.mux }

// Row is one tuple of an answer in a search response.
type Row struct {
	// Table names the tuple's table.
	Table string `json:"table"`
	// Key is the tuple's primary key within Table.
	Key string `json:"key"`
	// Text is the tuple's searchable text.
	Text string `json:"text"`
	// Matched reports whether the tuple matches at least one query term.
	Matched bool `json:"matched"`
}

// Answer is one ranked result in a search response.
type Answer struct {
	// Score is the answer's collective importance (Eq. 4).
	Score float64 `json:"score"`
	// Rows are the answer's tuples; Rows[0] is the tree root.
	Rows []Row `json:"rows"`
	// Edges are the answer tree's edges as index pairs into Rows
	// (child, parent).
	Edges [][2]int `json:"edges"`
}

// healthTargets resolves which tenants a healthz probe reports: the one the
// tenant parameter names, or every tenant when it is absent.
func (s *Server) healthTargets(r *http.Request) ([]*tenant, *apiError) {
	name := r.URL.Query().Get("tenant")
	if name == "" {
		return s.reg.sorted, nil
	}
	t, apiErr := s.resolveTenant(name)
	if apiErr != nil {
		return nil, apiErr
	}
	return []*tenant{t}, nil
}

// recordSuccess updates the global and per-tenant counters for one 200
// answer.
func (s *Server) recordSuccess(t *tenant, out queryOutcome) {
	s.m.ok.Add(1)
	t.ok.Add(1)
	if out.res.Stats.Interrupted {
		s.m.interrupted.Add(1)
	}
	if out.res.Stats.Truncated {
		s.m.truncated.Add(1)
	}
	s.m.expanded.Add(int64(out.res.Stats.Expanded))
	s.m.observe(out.res.Stats.Elapsed)
}

// searchParams are the validated inputs of one query.
type searchParams struct {
	query   string
	tenant  string
	terms   []string
	k       int
	timeout time.Duration
	opts    cirank.SearchOptions
}

// parseSearchParams validates the query string against the server limits.
// It returns a non-empty message (for a 400) on invalid input.
func (s *Server) parseSearchParams(r *http.Request) (searchParams, string) {
	return s.validateParams(r.URL.Query().Get)
}

// validateParams builds searchParams from a string-keyed parameter lookup
// (the HTTP query string, or a batch entry rendered to the same keys),
// enforcing the server limits. An empty value means "parameter absent".
func (s *Server) validateParams(get func(string) string) (searchParams, string) {
	p := searchParams{
		query:   get("q"),
		tenant:  get("tenant"),
		k:       s.cfg.DefaultK,
		timeout: s.cfg.DefaultTimeout,
		opts: cirank.SearchOptions{
			Diameter:      s.cfg.DefaultDiameter,
			MaxExpansions: s.cfg.MaxExpansions,
		},
	}
	p.terms = textindex.Tokenize(p.query)
	if len(p.terms) == 0 {
		return p, "missing or empty q parameter"
	}
	if v := get("k"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 1 {
			return p, fmt.Sprintf("bad k %q: want a positive integer", v)
		}
		if k > s.cfg.MaxK {
			return p, fmt.Sprintf("k %d exceeds the limit %d", k, s.cfg.MaxK)
		}
		p.k = k
	}
	if v := get("diameter"); v != "" {
		d, err := strconv.Atoi(v)
		if err != nil || d < 1 {
			return p, fmt.Sprintf("bad diameter %q: want a positive integer", v)
		}
		if d > s.cfg.MaxDiameter {
			return p, fmt.Sprintf("diameter %d exceeds the limit %d", d, s.cfg.MaxDiameter)
		}
		p.opts.Diameter = d
	}
	if v := get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return p, fmt.Sprintf("bad timeout %q: want a positive Go duration like 500ms or 2s", v)
		}
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout // clamp: the server owns its worst case
		}
		p.timeout = d
	}
	// /v1 keeps accepting and validating workers — batch decoding rejects
	// unknown fields, so dropping it would fail valid requests — but a query
	// runs on one goroutine, so nothing reads the value.
	if v := get("workers"); v != "" {
		if n, err := strconv.Atoi(v); err != nil || n < 0 {
			return p, fmt.Sprintf("bad workers %q: want a non-negative integer", v)
		}
	}
	return p, ""
}

// wireAnswers converts engine results to their wire form.
func wireAnswers(res cirank.SearchResult) []Answer {
	out := make([]Answer, len(res.Results))
	for i, a := range res.Results {
		ans := Answer{Score: a.Score, Rows: make([]Row, len(a.Rows)), Edges: a.Edges}
		for j, row := range a.Rows {
			ans.Rows[j] = Row{Table: row.Table, Key: row.Key, Text: row.Text, Matched: row.Matched}
		}
		out[i] = ans
	}
	return out
}

// reload re-opens the tenant's configured snapshot, hot-swaps its engine and
// returns the success envelope of POST /v1/admin/reload, discarding the
// tenant's result cache — other tenants' caches, flights and generations are
// untouched. Reloads are serialized; checksum and structural validation
// happen inside cirank.Open, so a corrupt file never becomes a serving
// engine: nothing is swapped unless it opened.
func (s *Server) reload(t *tenant) (V1ReloadResponse, *apiError) {
	if t.snapshotPath == "" {
		return V1ReloadResponse{}, &apiError{status: http.StatusBadRequest, code: codeBadRequest,
			msg: fmt.Sprintf("tenant %q serves no snapshot; reload is not configured for it", t.name)}
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	eng, err := cirank.Open(t.snapshotPath)
	if err != nil {
		s.m.reloadsFailed.Add(1)
		if errors.Is(err, cirank.ErrBadSnapshot) {
			return V1ReloadResponse{}, &apiError{status: http.StatusUnprocessableEntity, code: codeBadSnapshot, msg: err.Error()}
		}
		return V1ReloadResponse{}, &apiError{status: http.StatusInternalServerError, code: codeInternal, msg: err.Error()}
	}
	nodes, edges, source := eng.NumNodes(), eng.NumEdges(), eng.BuildStats().Source
	gen, wait := t.provider.Swap(eng)
	// Stale generations are unreachable by key construction (every cache
	// key embeds the leasing request's generation); dropping the tenant's
	// cache here releases their memory at the swap instead of waiting for
	// eviction.
	if t.cache != nil {
		t.cache.swap()
	}
	drained := wait(s.cfg.ReloadDrainTimeout)
	s.m.reloadsOK.Add(1)
	return V1ReloadResponse{
		Schema:     APISchema,
		Generation: gen,
		Tenant:     t.name,
		Status:     "ok",
		Nodes:      nodes,
		Edges:      edges,
		Source:     source,
		Drained:    drained,
	}, nil
}

// handleMetricsExposition emits the Prometheus text exposition of
// /v1/metrics.
func (s *Server) handleMetricsExposition(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.writeTo(w, s.scrape())
}

// writeJSON writes a JSON response with the given status code.
func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}
