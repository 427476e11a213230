package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestV1SearchEnvelope: GET /v1/search answers the documented envelope —
// schema, generation, ranked results and stats with the serving source —
// and a repeat of the same query is served from the result cache.
func TestV1SearchEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: smallEngine(t)})
	var res V1SearchResponse
	getJSON(t, ts.URL+"/v1/search?q=papakonstantinou+ullman&k=3", http.StatusOK, &res)
	if res.Schema != APISchema {
		t.Errorf("schema = %q, want %q", res.Schema, APISchema)
	}
	if res.Generation != 1 {
		t.Errorf("generation = %d, want 1", res.Generation)
	}
	if len(res.Results) == 0 {
		t.Fatal("no results for a query with known answers")
	}
	if res.Stats.Source != ServedEngine {
		t.Errorf("first request source = %q, want %q", res.Stats.Source, ServedEngine)
	}
	if res.K != 3 || len(res.Terms) != 2 {
		t.Errorf("echo fields: k=%d terms=%v", res.K, res.Terms)
	}

	var again V1SearchResponse
	getJSON(t, ts.URL+"/v1/search?q=papakonstantinou+ullman&k=3", http.StatusOK, &again)
	if again.Stats.Source != ServedCache {
		t.Errorf("repeat request source = %q, want %q", again.Stats.Source, ServedCache)
	}
	if again.Generation != 1 {
		t.Errorf("cached generation = %d, want 1", again.Generation)
	}
	// The cached answer must be the evaluated answer.
	if len(again.Results) != len(res.Results) || again.Results[0].Score != res.Results[0].Score {
		t.Errorf("cached results differ from evaluated: %v vs %v", again.Results, res.Results)
	}
	// Same terms, different k: a different key, so an engine evaluation.
	var other V1SearchResponse
	getJSON(t, ts.URL+"/v1/search?q=papakonstantinou+ullman&k=2", http.StatusOK, &other)
	if other.Stats.Source != ServedEngine {
		t.Errorf("different-k request source = %q, want %q", other.Stats.Source, ServedEngine)
	}
}

// TestV1ErrorEnvelope pins the structured error body of the /v1 surface.
func TestV1ErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: smallEngine(t), MaxK: 10})
	for _, tc := range []struct {
		name, path string
		status     int
		code       string
	}{
		{"empty q", "/v1/search?q=", http.StatusBadRequest, "bad_request"},
		{"k over limit", "/v1/search?q=ullman&k=11", http.StatusBadRequest, "bad_request"},
		{"bad timeout", "/v1/search?q=ullman&timeout=fast", http.StatusBadRequest, "bad_request"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e V1ErrorResponse
			getJSON(t, ts.URL+tc.path, tc.status, &e)
			if e.Schema != APISchema {
				t.Errorf("schema = %q, want %q", e.Schema, APISchema)
			}
			if e.Error.Code != tc.code {
				t.Errorf("code = %q, want %q", e.Error.Code, tc.code)
			}
			if e.Error.Message == "" {
				t.Error("empty error message")
			}
			if e.Generation != 1 {
				t.Errorf("generation = %d, want 1", e.Generation)
			}
		})
	}
	// Method dispatch: DELETE is neither single nor batch.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/search", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/search: status %d, want 405", resp.StatusCode)
	}
	var e V1ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != "method_not_allowed" {
		t.Errorf("code = %q, want method_not_allowed", e.Error.Code)
	}
}

// TestV1Coalescing: an identical query arriving while the first is still
// evaluating rides its flight instead of evaluating again, and is labelled
// source=coalesced.
func TestV1Coalescing(t *testing.T) {
	// Cache off isolates coalescing; the dense uncapped query runs until
	// its 500ms deadline, guaranteeing the second request arrives in flight.
	s, ts := newTestServer(t, Config{
		Engine:          denseEngine(t, 120),
		MaxExpansions:   -1,
		ResultCacheSize: -1,
	})
	const q = "/v1/search?q=alpha+beta&k=10&timeout=500ms"
	var wg sync.WaitGroup
	var leader V1SearchResponse
	wg.Add(1)
	go func() {
		defer wg.Done()
		getJSON(t, ts.URL+q, http.StatusOK, &leader)
	}()
	// Wait until the leader's evaluation is holding its admission slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.m.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader evaluation never started")
		}
		time.Sleep(time.Millisecond)
	}
	var follower V1SearchResponse
	getJSON(t, ts.URL+q, http.StatusOK, &follower)
	wg.Wait()
	if follower.Stats.Source != ServedCoalesced {
		t.Fatalf("follower source = %q, want %q", follower.Stats.Source, ServedCoalesced)
	}
	if leader.Stats.Source != ServedEngine {
		t.Errorf("leader source = %q, want %q", leader.Stats.Source, ServedEngine)
	}
	if s.m.flightLeaders.Load() != 1 || s.m.coalesced.Load() != 1 {
		t.Errorf("coalesce counters = %d leaders / %d followers, want 1/1",
			s.m.flightLeaders.Load(), s.m.coalesced.Load())
	}
	// ResultCacheSize -1 leaves no cache to serve from.
	if soleTenant(t, s).cache != nil {
		t.Error("ResultCacheSize -1 still built a result cache")
	}
	// Both clients saw the same interrupted best-so-far answer set.
	if !follower.Stats.Interrupted {
		t.Error("follower missed the leader's interrupted flag")
	}
	if len(follower.Results) != len(leader.Results) {
		t.Errorf("follower got %d results, leader %d", len(follower.Results), len(leader.Results))
	}
}

// TestV1InterruptedNotCached: partial (deadline-interrupted) results never
// enter the result cache — the next identical request evaluates again.
func TestV1InterruptedNotCached(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: denseEngine(t, 120), MaxExpansions: -1})
	const q = "/v1/search?q=alpha+beta&k=10&timeout=300ms"
	var first, second V1SearchResponse
	getJSON(t, ts.URL+q, http.StatusOK, &first)
	if !first.Stats.Interrupted {
		t.Skip("dense query finished before the deadline; cannot exercise the partial path")
	}
	getJSON(t, ts.URL+q, http.StatusOK, &second)
	if second.Stats.Source == ServedCache {
		t.Fatal("interrupted result was served from the result cache")
	}
}

// TestV1Batch: POST /v1/search answers every entry of a batch in one round
// trip, per-entry failures included, and batch-level validation rejects
// oversized or malformed bodies.
func TestV1Batch(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: smallEngine(t), MaxBatch: 4})
	body := `{"queries": [
		{"q": "ullman", "k": 2},
		{"q": "papakonstantinou ullman"},
		{"q": "", "k": 1},
		{"q": "ullman", "k": 9999}
	]}`
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200", resp.StatusCode)
	}
	var batch V1BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if batch.Schema != APISchema || batch.Generation != 1 {
		t.Errorf("batch envelope schema=%q generation=%d", batch.Schema, batch.Generation)
	}
	if len(batch.Results) != 4 {
		t.Fatalf("%d batch results, want 4", len(batch.Results))
	}
	if batch.Results[0].Error != nil || len(batch.Results[0].Results) == 0 {
		t.Errorf("entry 0 = %+v, want results", batch.Results[0])
	}
	if batch.Results[0].K != 2 || batch.Results[0].Generation != 1 || batch.Results[0].Stats == nil {
		t.Errorf("entry 0 envelope fields = %+v", batch.Results[0])
	}
	if batch.Results[1].Error != nil || len(batch.Results[1].Terms) != 2 {
		t.Errorf("entry 1 = %+v, want a two-term success", batch.Results[1])
	}
	for _, i := range []int{2, 3} {
		if batch.Results[i].Error == nil || batch.Results[i].Error.Code != "bad_request" {
			t.Errorf("entry %d = %+v, want a bad_request error", i, batch.Results[i])
		}
		if batch.Results[i].Results != nil {
			t.Errorf("entry %d carries results next to an error", i)
		}
	}

	for name, body := range map[string]string{
		"oversized": `{"queries": [{"q":"a"},{"q":"b"},{"q":"c"},{"q":"d"},{"q":"e"}]}`,
		"empty":     `{"queries": []}`,
		"malformed": `{"queries": `,
		"unknown":   `{"silly": 1}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var e V1ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if e.Error.Code != "bad_batch" {
				t.Errorf("code = %q, want bad_batch", e.Error.Code)
			}
		})
	}
}

// TestV1BatchCoalescesWithinBatch: duplicate entries in one batch share one
// evaluation — the serving stack applies within a batch exactly as across
// requests.
func TestV1BatchCoalescesWithinBatch(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: smallEngine(t)})
	body := `{"queries": [{"q": "ullman", "k": 2}, {"q": "ullman", "k": 2}, {"q": "ullman", "k": 2}]}`
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var batch V1BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	evaluated := 0
	for i, r := range batch.Results {
		if r.Error != nil {
			t.Fatalf("entry %d failed: %+v", i, r.Error)
		}
		if r.Stats.Source == ServedEngine {
			evaluated++
		}
	}
	// Exactly one entry hit the engine; the duplicates coalesced onto its
	// flight or hit the result cache it filled, depending on scheduling.
	if evaluated != 1 {
		t.Errorf("%d engine evaluations for 3 identical entries, want 1", evaluated)
	}
	if got := s.m.ok.Load(); got != 3 {
		t.Errorf("ok counter = %d, want 3", got)
	}
}

// TestV1Healthz pins the versioned health envelope.
func TestV1Healthz(t *testing.T) {
	eng := smallEngine(t)
	s, ts := newTestServer(t, Config{Engine: eng})
	var h V1HealthResponse
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &h)
	if h.Schema != APISchema || h.Status != "ok" || h.Generation != 1 {
		t.Errorf("health envelope = %+v", h)
	}
	if h.Nodes != eng.NumNodes() || h.Edges != eng.NumEdges() {
		t.Errorf("health %+v, want nodes=%d edges=%d", h, eng.NumNodes(), eng.NumEdges())
	}
	s.Close()
	getJSON(t, ts.URL+"/v1/healthz", http.StatusServiceUnavailable, &h)
	if h.Status != "closed" || h.Schema != APISchema {
		t.Errorf("closed health = %+v", h)
	}
}

// TestUnversionedPathsAreGone: the pre-v1 paths answer the mux's plain 404
// with no deprecation marking, while their /v1 twins serve.
func TestUnversionedPathsAreGone(t *testing.T) {
	_, _, url := snapshotServer(t, smallEngine(t), Config{})
	do := func(method, path string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, url+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/search?q=ullman"},
		{http.MethodGet, "/healthz"},
		{http.MethodGet, "/metrics"},
		{http.MethodPost, "/admin/reload"},
	} {
		resp := do(tc.method, tc.path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
		if resp.Header.Get("Deprecation") != "" || resp.Header.Get("Link") != "" {
			t.Errorf("%s %s: a removed path still carries deprecation headers", tc.method, tc.path)
		}
		if resp := do(tc.method, "/v1"+tc.path); resp.StatusCode != http.StatusOK {
			t.Errorf("%s /v1%s: status %d, want 200", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestV1Metrics: the serving-stack counters — coalesce roles, result-cache
// outcomes, admission decisions, in-flight cost — appear in the exposition.
func TestV1Metrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: smallEngine(t)})
	var res V1SearchResponse
	getJSON(t, ts.URL+"/v1/search?q=ullman", http.StatusOK, &res)
	getJSON(t, ts.URL+"/v1/search?q=ullman", http.StatusOK, &res) // cache hit
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := raw.String()
	for _, want := range []string{
		`cirank_coalesce_total{role="leader"} 1`,
		`cirank_coalesce_total{role="follower"} 0`,
		`cirank_result_cache_total{result="hit"} 1`,
		`cirank_result_cache_total{result="miss"} 1`,
		`cirank_admission_total{result="admitted"} 1`,
		`cirank_admission_total{result="rejected"} 0`,
		"cirank_inflight_cost 0",
		`cirank_queries_total{status="ok"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestQueryKey pins the key's discriminating fields: the generation and
// every response-affecting option separate keys; identical queries share
// one.
func TestQueryKey(t *testing.T) {
	const g1 = uint64(1)
	base := searchParams{
		terms:   []string{"a", "b"},
		k:       5,
		timeout: time.Second,
	}
	if queryKey(g1, base) != queryKey(g1, base) {
		t.Error("identical queries produced different keys")
	}
	mutations := map[string]func() string{
		"generation": func() string { return queryKey(2, base) },
		"k":          func() string { p := base; p.k = 6; return queryKey(g1, p) },
		"terms":      func() string { p := base; p.terms = []string{"a", "c"}; return queryKey(g1, p) },
		"term order": func() string { p := base; p.terms = []string{"b", "a"}; return queryKey(g1, p) },
		"timeout":    func() string { p := base; p.timeout = 2 * time.Second; return queryKey(g1, p) },
		"diameter":   func() string { p := base; p.opts.Diameter = 3; return queryKey(g1, p) },
		"expansions": func() string { p := base; p.opts.MaxExpansions = 7; return queryKey(g1, p) },
	}
	ref := queryKey(g1, base)
	seen := map[string]string{ref: "base"}
	for name, mutate := range mutations {
		k := mutate()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s collides with %s", name, prev)
		}
		seen[k] = name
	}
	// workers is accepted but reaches nothing, so it must not split keys.
	s, err := New(Config{Engine: smallEngine(t)})
	if err != nil {
		t.Fatal(err)
	}
	parsed := func(workers string) searchParams {
		fields := map[string]string{"q": "a b", "workers": workers}
		p, msg := s.validateParams(func(key string) string { return fields[key] })
		if msg != "" {
			t.Fatalf("workers=%q rejected: %s", workers, msg)
		}
		return p
	}
	if queryKey(g1, parsed("")) != queryKey(g1, parsed("2")) {
		t.Error("workers=2 produced a different key from no workers parameter")
	}
	// Terms containing the separator cannot smuggle a collision: the count
	// of separators differs.
	a := searchParams{terms: []string{"x\x1fy"}, k: 1, timeout: time.Second}
	b := searchParams{terms: []string{"x", "y"}, k: 1, timeout: time.Second}
	if queryKey(g1, a) == queryKey(g1, b) {
		t.Error("separator-bearing term collides with a two-term query")
	}
}

// TestServerConfigSentinel: every config validation failure wraps
// ErrBadConfig, so embedders classify misconfiguration with errors.Is.
func TestServerConfigSentinel(t *testing.T) {
	eng := smallEngine(t)
	for name, cfg := range map[string]Config{
		"nil engine":               {},
		"negative MaxK":            {Engine: eng, MaxK: -1},
		"negative MaxInFlight":     {Engine: eng, MaxInFlight: -1},
		"negative MaxBatch":        {Engine: eng, MaxBatch: -1},
		"negative AdmissionBudget": {Engine: eng, AdmissionBudget: -1},
		"negative timeout":         {Engine: eng, DefaultTimeout: -time.Second},
		"MaxExpansions below -1":   {Engine: eng, MaxExpansions: -2},
	} {
		_, err := New(cfg)
		if err == nil {
			t.Errorf("%s accepted", name)
			continue
		}
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: error %v does not wrap ErrBadConfig", name, err)
		}
	}
	// Defaults land where documented.
	cfg, err := Config{Engine: eng}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ResultCacheSize != 1024 || cfg.MaxBatch != 16 || cfg.AdmissionBudget <= 0 {
		t.Errorf("serving defaults = cache %d, batch %d, budget %d",
			cfg.ResultCacheSize, cfg.MaxBatch, cfg.AdmissionBudget)
	}
}

// TestFlightGroup unit-tests the coalescing primitive with a controlled
// slow function: followers share the leader's outcome, keys do not cross,
// and a follower whose context dies stops waiting.
func TestFlightGroup(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	started := make(chan struct{})
	var leaderOut queryOutcome
	done := make(chan struct{})
	go func() {
		defer close(done)
		out, coalesced, err := g.Do(context.Background(), "k1", func() (queryOutcome, error) {
			close(started)
			<-release
			return queryOutcome{generation: 7}, nil
		})
		if coalesced || err != nil {
			t.Errorf("leader: coalesced=%t err=%v", coalesced, err)
		}
		leaderOut = out
	}()
	<-started

	// A different key does not coalesce.
	out, coalesced, err := g.Do(context.Background(), "k2", func() (queryOutcome, error) {
		return queryOutcome{generation: 8}, nil
	})
	if coalesced || err != nil || out.generation != 8 {
		t.Errorf("other key: out=%+v coalesced=%t err=%v", out, coalesced, err)
	}

	// A follower on the live key rides the flight. The ready channel plus a
	// beat of real time gets the goroutine into Do's lookup before the leader
	// is released; if it loses that race anyway it leads a second flight and
	// the error below names the scheduling, not a coalescing bug.
	followerDone := make(chan struct{})
	followerReady := make(chan struct{})
	go func() {
		defer close(followerDone)
		close(followerReady)
		out, coalesced, err := g.Do(context.Background(), "k1", func() (queryOutcome, error) {
			t.Error("follower ran the function")
			return queryOutcome{}, nil
		})
		if !coalesced || err != nil || out.generation != 7 {
			t.Errorf("follower: out=%+v coalesced=%t err=%v", out, coalesced, err)
		}
	}()
	<-followerReady
	time.Sleep(20 * time.Millisecond)

	// A follower with a dead context stops waiting instead of hanging.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, coalesced, err := g.Do(ctx, "k1", nil); !coalesced || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled follower: coalesced=%t err=%v", coalesced, err)
	}

	close(release)
	<-done
	<-followerDone
	if leaderOut.generation != 7 {
		t.Errorf("leader outcome %+v", leaderOut)
	}

	// After the flight lands, the key is free: the next caller leads.
	out, coalesced, err = g.Do(context.Background(), "k1", func() (queryOutcome, error) {
		return queryOutcome{generation: 9}, nil
	})
	if coalesced || err != nil || out.generation != 9 {
		t.Errorf("post-flight call: out=%+v coalesced=%t err=%v", out, coalesced, err)
	}
}

// TestResultCacheSwap: swap discards every entry (the hot-reload memory
// release) while the hit/miss counters keep accumulating.
func TestResultCacheSwap(t *testing.T) {
	rc := newResultCache(8)
	rc.add("a", queryOutcome{generation: 1})
	if _, ok := rc.get("a"); !ok {
		t.Fatal("miss after add")
	}
	rc.swap()
	if _, ok := rc.get("a"); ok {
		t.Fatal("hit after swap")
	}
	hits, misses := rc.stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1 hit, 1 miss", hits, misses)
	}
}

// TestAdmissionUnit drives the controller's three regimes directly:
// concurrency cap, cost budget, and the idle-server override.
func TestAdmissionUnit(t *testing.T) {
	a := admission{maxConcurrent: 2}
	a.budget.Store(10)
	if !a.tryAcquire(100) {
		t.Fatal("idle server rejected an over-budget query")
	}
	if a.tryAcquire(1) {
		t.Fatal("budget exhausted but a second query admitted")
	}
	a.release(100)
	if !a.tryAcquire(4) || !a.tryAcquire(4) {
		t.Fatal("two in-budget queries rejected")
	}
	if a.tryAcquire(1) {
		t.Fatal("concurrency cap 2 exceeded")
	}
	a.release(4)
	if !a.tryAcquire(6) {
		t.Fatal("freed capacity not admitted")
	}
	if a.tryAcquire(1) {
		t.Fatal("budget 4+6=10 full but another query admitted")
	}
	a.release(4)
	a.release(6)
	if got := a.cost.Load(); got != 0 {
		t.Errorf("cost after full release = %d", got)
	}
	if adm, rej := a.admitted.Load(), a.rejected.Load(); adm != 4 || rej != 3 {
		t.Errorf("counters = %d admitted / %d rejected, want 4/3", adm, rej)
	}
}

// TestQueryCost pins the cost model: one base unit plus each distinct
// term's posting-list length.
func TestQueryCost(t *testing.T) {
	eng := smallEngine(t)
	sel := eng.TermSelectivity("ullman")
	if sel < 1 {
		t.Fatalf("selectivity of a known term = %d", sel)
	}
	if got := queryCost(eng, []string{"ullman"}); got != 1+int64(sel) {
		t.Errorf("cost = %d, want %d", got, 1+int64(sel))
	}
	if got := queryCost(eng, []string{"ullman", "ullman"}); got != 1+int64(sel) {
		t.Errorf("duplicate term double-charged: %d", got)
	}
	if got := queryCost(eng, []string{"zzz-unknown"}); got != 1 {
		t.Errorf("unknown term cost = %d, want the base unit", got)
	}
	both := queryCost(eng, []string{"ullman", "database"})
	if both <= queryCost(eng, []string{"ullman"}) {
		t.Errorf("adding a matching term did not raise the cost: %d", both)
	}
}
