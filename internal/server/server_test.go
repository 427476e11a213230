package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cirank"
)

// smallEngine builds a tiny bibliography engine through the public API: two
// authors, two papers, one shared coauthorship — enough for a ranked
// multi-term answer.
func smallEngine(t testing.TB) *cirank.Engine {
	t.Helper()
	b := cirank.NewDBLPBuilder()
	b.MustInsert("Author", "a1", "jeffrey ullman")
	b.MustInsert("Author", "a2", "yannis papakonstantinou")
	b.MustInsert("Paper", "p1", "object exchange across heterogeneous information sources")
	b.MustInsert("Paper", "p2", "database systems the complete book")
	b.MustRelate("written_by", "p1", "a1")
	b.MustRelate("written_by", "p1", "a2")
	b.MustRelate("written_by", "p2", "a1")
	eng, err := b.Build(cirank.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// denseEngine mirrors the cancellation fixture of the facade tests: a
// layered complete-bipartite graph whose uncapped frontier outlives any
// test deadline. The tests pass m = 120: about 15.6M trees uncancelled, well
// past 5 s on a 2-core x86-64 VM, where m = 40 finishes in about 0.5 s —
// too close to the 300–700 ms deadlines here.
func denseEngine(t *testing.T, m int) *cirank.Engine {
	t.Helper()
	b, err := cirank.NewBuilder(
		[]string{"Node"},
		[]cirank.Relationship{{Name: "link", From: "Node", To: "Node"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("n%d", i) }
	for i := 0; i < 3; i++ {
		b.MustInsert("Node", key(i), "alpha")
	}
	for i := 3; i < 6; i++ {
		b.MustInsert("Node", key(i), "beta")
	}
	for i := 6; i < 6+3*m; i++ {
		b.MustInsert("Node", key(i), fmt.Sprintf("free%d", i))
	}
	// A direct alpha–beta edge guarantees a best-so-far answer exists from
	// the first expansion batch, however early the deadline fires.
	b.MustRelate("link", key(0), key(3))
	layer := func(l int) []int {
		out := make([]int, m)
		for i := range out {
			out[i] = 6 + l*m + i
		}
		return out
	}
	for _, v := range layer(0) {
		for a := 0; a < 3; a++ {
			b.MustRelate("link", key(a), key(v))
		}
	}
	for _, u := range layer(0) {
		for _, v := range layer(1) {
			b.MustRelate("link", key(u), key(v))
		}
	}
	for _, u := range layer(1) {
		for _, v := range layer(2) {
			b.MustRelate("link", key(u), key(v))
		}
	}
	for _, v := range layer(2) {
		for bb := 3; bb < 6; bb++ {
			b.MustRelate("link", key(v), key(bb))
		}
	}
	cfg := cirank.DefaultConfig()
	cfg.IndexDepth = 0
	eng, err := b.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// soleTenant returns the one tenant of a single-tenant test server.
func soleTenant(t testing.TB, s *Server) *tenant {
	t.Helper()
	tn, ok := s.reg.sole()
	if !ok {
		t.Fatal("server does not have exactly one tenant")
	}
	return tn
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

// TestSearchRoundTrip is the integration test: a /v1/search request
// returns ranked JSON answers with populated stats.
func TestSearchRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: smallEngine(t)})
	var res V1SearchResponse
	getJSON(t, ts.URL+"/v1/search?q=papakonstantinou+ullman&k=3", http.StatusOK, &res)
	if len(res.Terms) != 2 {
		t.Fatalf("terms = %v", res.Terms)
	}
	if res.K != 3 {
		t.Errorf("k = %d, want 3", res.K)
	}
	if len(res.Results) == 0 {
		t.Fatal("no results for a query with known answers")
	}
	for i := 1; i < len(res.Results); i++ {
		if res.Results[i].Score > res.Results[i-1].Score {
			t.Errorf("results not ranked: score[%d]=%g > score[%d]=%g",
				i, res.Results[i].Score, i-1, res.Results[i-1].Score)
		}
	}
	top := res.Results[0]
	if len(top.Rows) == 0 {
		t.Fatal("top answer has no rows")
	}
	matched := 0
	for _, r := range top.Rows {
		if r.Table == "" || r.Key == "" {
			t.Errorf("row missing table/key: %+v", r)
		}
		if r.Matched {
			matched++
		}
	}
	if matched == 0 {
		t.Error("top answer has no matched rows")
	}
	if len(top.Rows) > 1 && len(top.Edges) != len(top.Rows)-1 {
		t.Errorf("top answer: %d rows but %d edges, want a tree", len(top.Rows), len(top.Edges))
	}
	st := res.Stats
	if st.Expanded <= 0 || st.Generated <= 0 || st.Answers <= 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if st.Truncated || st.Interrupted {
		t.Errorf("complete query flagged partial: %+v", st)
	}
}

// TestSearchBadRequests pins the 400-family validation surface.
func TestSearchBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: smallEngine(t), MaxK: 10, MaxDiameter: 6})
	for _, tc := range []struct {
		name, query string
	}{
		{"missing q", "/v1/search"},
		{"blank q", "/v1/search?q=%20%20"},
		{"bad k", "/v1/search?q=ullman&k=zero"},
		{"zero k", "/v1/search?q=ullman&k=0"},
		{"k over limit", "/v1/search?q=ullman&k=11"},
		{"negative diameter", "/v1/search?q=ullman&diameter=-1"},
		{"diameter over limit", "/v1/search?q=ullman&diameter=7"},
		{"bad timeout", "/v1/search?q=ullman&timeout=fast"},
		{"negative workers", "/v1/search?q=ullman&workers=-1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e V1ErrorResponse
			getJSON(t, ts.URL+tc.query, http.StatusBadRequest, &e)
			if e.Error.Code != codeBadRequest || e.Error.Message == "" {
				t.Errorf("400 with error %+v, want code %q and a message", e.Error, codeBadRequest)
			}
		})
	}
	// POST is the batch form; any other method is refused.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/search?q=ullman", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/search: status %d, want 405", resp.StatusCode)
	}
}

// TestAdmissionControl: with the concurrency cap saturated, /v1/search answers
// 429 + Retry-After immediately instead of queueing.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: smallEngine(t), MaxInFlight: 2})
	// Occupy both evaluation slots directly — deterministic saturation, no
	// goroutine timing games.
	if !soleTenant(t, s).adm.tryAcquire(1) || !soleTenant(t, s).adm.tryAcquire(1) {
		t.Fatal("could not occupy the admission slots")
	}
	resp, err := http.Get(ts.URL + "/v1/search?q=ullman")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Freeing one slot restores service.
	soleTenant(t, s).adm.release(1)
	var res V1SearchResponse
	getJSON(t, ts.URL+"/v1/search?q=ullman", http.StatusOK, &res)
	if len(res.Results) == 0 {
		t.Error("no results after slot freed")
	}
	soleTenant(t, s).adm.release(1)
}

// TestAdmissionCostBudget: expensive queries are priced by posting-list
// selectivity — with the budget consumed by one in-flight query, a second
// is shed, while an idle server admits any query regardless of cost.
func TestAdmissionCostBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: smallEngine(t), AdmissionBudget: 3, MaxInFlight: 16})
	// An idle server admits even an over-budget query.
	if !soleTenant(t, s).adm.tryAcquire(100) {
		t.Fatal("idle server rejected an expensive query")
	}
	// The budget is now exhausted: any further query is shed.
	resp, err := http.Get(ts.URL + "/v1/search?q=ullman")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget server: status %d, want 429", resp.StatusCode)
	}
	soleTenant(t, s).adm.release(100)
	// Cache hits bypass admission entirely: warm the cache, re-saturate,
	// and the same query must still answer 200.
	var res V1SearchResponse
	getJSON(t, ts.URL+"/v1/search?q=ullman", http.StatusOK, &res)
	if !soleTenant(t, s).adm.tryAcquire(100) {
		t.Fatal("idle server rejected an expensive query")
	}
	getJSON(t, ts.URL+"/v1/search?q=ullman", http.StatusOK, &res)
	soleTenant(t, s).adm.release(100)
}

// TestSearchTimeout: an uncapped query on a dense engine returns well under
// its uncancelled runtime once the per-request timeout fires, as a 200 with
// stats.interrupted — the serving layer's best-so-far contract.
func TestSearchTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: denseEngine(t, 120), MaxExpansions: -1})
	start := time.Now()
	var res V1SearchResponse
	// 500ms leaves room for the first answers to land under -race.
	getJSON(t, ts.URL+"/v1/search?q=alpha+beta&k=10&timeout=500ms", http.StatusOK, &res)
	elapsed := time.Since(start)
	if !res.Stats.Interrupted {
		t.Fatalf("stats %+v: uncapped dense query finished before the 500ms deadline", res.Stats)
	}
	if elapsed > 5*time.Second {
		t.Errorf("timed-out query took %v end to end", elapsed)
	}
	if len(res.Results) == 0 {
		t.Error("interrupted query returned no best-so-far answers")
	}
}

// TestTimeoutClamp: a timeout above MaxTimeout is clamped, not rejected.
func TestTimeoutClamp(t *testing.T) {
	s, err := New(Config{Engine: smallEngine(t), MaxTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/search?q=ullman&timeout=1h", nil)
	p, msg := s.parseSearchParams(req)
	if msg != "" {
		t.Fatalf("clamped timeout rejected: %s", msg)
	}
	if p.timeout != 200*time.Millisecond {
		t.Errorf("timeout = %v, want the 200ms cap", p.timeout)
	}
}

// TestWorkersParamIsClamped: workers is outside input, and every requested
// worker costs a bound scratch in the engine's pooled query scratch. A
// request for a billion of them must be served like any other — same answer
// as workers=1, a few MB at most — on the GET and the batch path alike.
func TestWorkersParamIsClamped(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: smallEngine(t), ResultCacheSize: -1})
	var one, huge V1SearchResponse
	getJSON(t, ts.URL+"/v1/search?q=ullman&k=1&workers=1", http.StatusOK, &one)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	getJSON(t, ts.URL+"/v1/search?q=ullman&k=1&workers=1000000000", http.StatusOK, &huge)
	resp, err := http.Post(ts.URL+"/v1/search", "application/json",
		strings.NewReader(`{"queries": [{"q": "ullman", "k": 1, "workers": 1000000000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var batch V1BatchResponse
	err = json.NewDecoder(resp.Body).Decode(&batch)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}

	one.Stats.ElapsedMS, huge.Stats.ElapsedMS = 0, 0
	if !reflect.DeepEqual(one, huge) {
		t.Errorf("workers=1000000000 answered\n%+v\nworkers=1 answered\n%+v", huge, one)
	}
	if len(batch.Results) != 1 || batch.Results[0].Error != nil ||
		!reflect.DeepEqual(batch.Results[0].Results, one.Results) {
		t.Errorf("batch entry with workers=1000000000 = %+v, want the workers=1 results", batch.Results)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 8<<20 {
		t.Errorf("two requests with workers=1000000000 allocated %d bytes, want a few MB at most", delta)
	}
}

// TestHealthz: the probe reports the engine's graph size.
func TestHealthz(t *testing.T) {
	eng := smallEngine(t)
	_, ts := newTestServer(t, Config{Engine: eng})
	var h V1HealthResponse
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &h)
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if h.Nodes != eng.NumNodes() || h.Edges != eng.NumEdges() {
		t.Errorf("health %+v, want nodes=%d edges=%d", h, eng.NumNodes(), eng.NumEdges())
	}
}

// TestMetrics: after traffic, /v1/metrics exposes the per-outcome counters,
// cache stats and the latency histogram in Prometheus text format.
func TestMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: smallEngine(t)})
	var res V1SearchResponse
	getJSON(t, ts.URL+"/v1/search?q=ullman", http.StatusOK, &res)
	getJSON(t, ts.URL+"/v1/search?q=", http.StatusBadRequest, nil)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`cirank_queries_total{status="ok"} 1`,
		`cirank_queries_total{status="bad_request"} 1`,
		`cirank_queries_total{status="rejected"} 0`,
		`cirank_result_cache_total{result="miss"} 1`,
		"cirank_inflight_queries 0",
		`cirank_query_duration_seconds_bucket{le="+Inf"} 1`,
		"cirank_query_duration_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

// TestConfigValidation pins the server-side config errors.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil engine accepted")
	}
	eng := smallEngine(t)
	for name, cfg := range map[string]Config{
		"negative MaxK":          {Engine: eng, MaxK: -1},
		"negative MaxInFlight":   {Engine: eng, MaxInFlight: -1},
		"negative timeout":       {Engine: eng, DefaultTimeout: -time.Second},
		"MaxExpansions below -1": {Engine: eng, MaxExpansions: -2},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
