package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"cirank"
	"cirank/internal/datagen"
)

// twoTenantServer serves two named corpora — "books" over the small DBLP
// engine, "papers" over an ullman variant — with per-tenant caching on.
func twoTenantServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Tenants = append(cfg.Tenants,
		TenantConfig{Name: "books", Engine: smallEngine(t)},
		TenantConfig{Name: "papers", Engine: ullmanVariant(t, 3)},
	)
	s, ts := newTestServer(t, cfg)
	return s, ts.URL
}

// TestTenantConfigValidation covers the multi-tenant config failure modes:
// every rejection wraps ErrBadConfig and names the offending tenant.
func TestTenantConfigValidation(t *testing.T) {
	eng := func() *cirank.Engine { return smallEngine(t) }
	cases := map[string]Config{
		"zero tenants":      {},
		"empty tenant list": {Tenants: []TenantConfig{}},
		"tenants+engine": {Engine: eng(),
			Tenants: []TenantConfig{{Name: "a", Engine: eng()}}},
		"tenants+snapshot": {SnapshotPath: "x.snap",
			Tenants: []TenantConfig{{Name: "a", Engine: eng()}}},
		"duplicate names": {Tenants: []TenantConfig{
			{Name: "a", Engine: eng()}, {Name: "a", Engine: eng()}}},
		"empty name":    {Tenants: []TenantConfig{{Engine: eng()}}},
		"bad name rune": {Tenants: []TenantConfig{{Name: "a b", Engine: eng()}}},
		"leading dash":  {Tenants: []TenantConfig{{Name: "-a", Engine: eng()}}},
		"name too long": {Tenants: []TenantConfig{
			{Name: strings.Repeat("x", 65), Engine: eng()}}},
		"no engine": {Tenants: []TenantConfig{{Name: "a"}}},
		"negative weight": {Tenants: []TenantConfig{
			{Name: "a", Engine: eng(), AdmissionWeight: -1}}},
	}
	for name, cfg := range cases {
		if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: error %v does not wrap ErrBadConfig", name, err)
		}
	}
}

// TestTenantResolution pins the single-owner resolution contract: explicit
// names route, the parameter is required once more
// than one tenant is registered, and unknown names are typed 404s.
func TestTenantResolution(t *testing.T) {
	_, url := twoTenantServer(t, Config{})

	// Explicit names route to their corpus, and the envelope echoes the
	// resolved tenant.
	var res V1SearchResponse
	getJSON(t, url+"/v1/search?q=ullman&tenant=books", http.StatusOK, &res)
	if res.Tenant != "books" || len(res.Results) == 0 {
		t.Errorf("tenant=books: tenant %q, %d results", res.Tenant, len(res.Results))
	}
	getJSON(t, url+"/v1/search?q=ullman&tenant=papers", http.StatusOK, &res)
	if res.Tenant != "papers" {
		t.Errorf("tenant=papers resolved to %q", res.Tenant)
	}

	// With two tenants registered the parameter is required...
	var fail V1ErrorResponse
	getJSON(t, url+"/v1/search?q=ullman", http.StatusBadRequest, &fail)
	if fail.Error.Code != codeBadRequest {
		t.Errorf("missing tenant param: code %q", fail.Error.Code)
	}
	// ...and an unknown name is a typed 404, on every surface that resolves.
	for _, path := range []string{"/v1/search?q=ullman&tenant=nope", "/v1/healthz?tenant=nope"} {
		getJSON(t, url+path, http.StatusNotFound, &fail)
		if fail.Error.Code != codeUnknownTenant {
			t.Errorf("%s: code %q, want %q", path, fail.Error.Code, codeUnknownTenant)
		}
	}
}

// TestTenantBatchRouting checks one batch can straddle tenants: each entry
// resolves its own corpus and reports the tenant it ran against.
func TestTenantBatchRouting(t *testing.T) {
	_, url := twoTenantServer(t, Config{})
	body := `{"queries":[{"q":"ullman","tenant":"books"},{"q":"ullman","tenant":"papers"},{"q":"ullman","tenant":"nope"}]}`
	resp, err := http.Post(url+"/v1/search", "application/json", strings.NewReader(body))
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
	if len(batch.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(batch.Results))
	}
	if batch.Results[0].Tenant != "books" || batch.Results[1].Tenant != "papers" {
		t.Errorf("batch tenants = %q, %q", batch.Results[0].Tenant, batch.Results[1].Tenant)
	}
	if batch.Results[2].Error == nil || batch.Results[2].Error.Code != codeUnknownTenant {
		t.Errorf("batch unknown tenant entry: %+v", batch.Results[2].Error)
	}
}

// TestTenantHealthz pins the healthz tenant blocks: all tenants without a
// selector, one with, and top-level sums over the probed blocks.
func TestTenantHealthz(t *testing.T) {
	s, url := twoTenantServer(t, Config{})

	var health V1HealthResponse
	getJSON(t, url+"/v1/healthz", http.StatusOK, &health)
	if len(health.Tenants) != 2 || health.Tenants[0].Name != "books" || health.Tenants[1].Name != "papers" {
		t.Fatalf("healthz tenants = %+v", health.Tenants)
	}
	wantNodes := health.Tenants[0].Nodes + health.Tenants[1].Nodes
	if health.Nodes != wantNodes {
		t.Errorf("top-level nodes = %d, want the tenant sum %d", health.Nodes, wantNodes)
	}
	if health.Generation != s.generation() {
		t.Errorf("top-level generation = %d, want composite %d", health.Generation, s.generation())
	}
	for _, b := range health.Tenants {
		if b.Generation != 1 || b.Weight != 1 || b.AdmissionBudget <= 0 {
			t.Errorf("tenant block %+v", b)
		}
	}

	// A selector narrows the probe to one block, mirrored at the top level.
	getJSON(t, url+"/v1/healthz?tenant=papers", http.StatusOK, &health)
	if len(health.Tenants) != 1 || health.Tenants[0].Name != "papers" {
		t.Fatalf("healthz?tenant=papers blocks = %+v", health.Tenants)
	}
	if health.Nodes != health.Tenants[0].Nodes || health.Generation != 1 {
		t.Errorf("selected-tenant top level = %d nodes gen %d", health.Nodes, health.Generation)
	}
}

// TestTenantReloadIsolation is the tentpole invariant in miniature: reloading
// one tenant bumps only its generation and drops only its result cache — the
// other tenant's cache keeps answering hits across the swap.
func TestTenantReloadIsolation(t *testing.T) {
	dir := t.TempDir()
	path := saveSnapshot(t, ullmanVariant(t, 4), dir)
	opened, err := cirank.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{ResultCacheSize: 64, Tenants: []TenantConfig{
		{Name: "books", Engine: smallEngine(t)},
		{Name: "papers", Engine: opened, SnapshotPath: path},
	}})
	url := ts.URL

	// Warm both tenants' caches: one evaluation, one hit each.
	for _, tenant := range []string{"books", "papers"} {
		for i := 0; i < 2; i++ {
			getJSON(t, url+"/v1/search?q=ullman&tenant="+tenant, http.StatusOK, nil)
		}
	}
	books, _ := s.reg.get("books")
	papers, _ := s.reg.get("papers")
	if hits, _ := books.cache.stats(); hits != 1 {
		t.Fatalf("books cache hits before reload = %d, want 1", hits)
	}

	// A tenant without a snapshot path cannot reload; the configured one can.
	postJSON(t, url+"/v1/admin/reload?tenant=books", http.StatusBadRequest, nil)
	var fail V1ErrorResponse
	resp, err := http.Post(url+"/v1/admin/reload?tenant=nope", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&fail); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || fail.Error.Code != codeUnknownTenant {
		t.Fatalf("reload unknown tenant: status %d code %q", resp.StatusCode, fail.Error.Code)
	}

	var rel V1ReloadResponse
	postJSON(t, url+"/v1/admin/reload?tenant=papers", http.StatusOK, &rel)
	if rel.Tenant != "papers" || rel.Generation != 2 {
		t.Fatalf("reload response %+v", rel)
	}
	if b, p := books.provider.Generation(), papers.provider.Generation(); b != 1 || p != 2 {
		t.Errorf("generations after reload = %d/%d, want 1/2", b, p)
	}

	// The reloaded tenant's cache was dropped; the neighbour's still hits.
	getJSON(t, url+"/v1/search?q=ullman&tenant=papers", http.StatusOK, nil)
	getJSON(t, url+"/v1/search?q=ullman&tenant=books", http.StatusOK, nil)
	if hits, _ := books.cache.stats(); hits != 2 {
		t.Errorf("books cache hits after the neighbour's reload = %d, want 2", hits)
	}
	var res V1SearchResponse
	getJSON(t, url+"/v1/search?q=ullman&tenant=papers", http.StatusOK, &res)
	if res.Generation != 2 {
		t.Errorf("papers served generation %d after reload", res.Generation)
	}
}

// TestWeightedFairShares pins the budget split: AdmissionBudget × weight /
// Σweights with a floor of 1 — and saturating one tenant's share sheds only
// that tenant's queries.
func TestWeightedFairShares(t *testing.T) {
	s, url := func() (*Server, string) {
		s, ts := newTestServer(t, Config{AdmissionBudget: 8, MaxInFlight: 64,
			Tenants: []TenantConfig{
				{Name: "books", Engine: smallEngine(t), AdmissionWeight: 1},
				{Name: "papers", Engine: ullmanVariant(t, 3), AdmissionWeight: 3},
			}})
		return s, ts.URL
	}()
	books, _ := s.reg.get("books")
	papers, _ := s.reg.get("papers")
	if b, p := books.adm.budget, papers.adm.budget; b != 2 || p != 6 {
		t.Fatalf("fair shares = %d/%d, want 2/6", b, p)
	}

	// Saturate books' share: its queries shed with its own Retry-After hint,
	// papers keeps answering.
	if !books.adm.tryAcquire(100) {
		t.Fatal("idle tenant rejected a query")
	}
	resp, err := http.Get(url + "/v1/search?q=ullman&tenant=books")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated tenant: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 Retry-After = %q", ra)
	}
	getJSON(t, url+"/v1/search?q=ullman&tenant=papers", http.StatusOK, nil)
	books.adm.release(100)
}

// TestTenantReloadDrainClose follows one tenant's single provider through its
// whole life: a reload swaps at once and reports drained=false while a lease
// on the old generation is out, the borrowed engine keeps answering, the
// release closes it, and Server.Close then closes the provider for good.
func TestTenantReloadDrainClose(t *testing.T) {
	_, s, url := snapshotServer(t, smallEngine(t), Config{ReloadDrainTimeout: 20 * time.Millisecond})
	tn, _ := s.reg.get(DefaultTenantName)

	old := tn.provider.Acquire()
	var rel V1ReloadResponse
	postJSON(t, url+"/v1/admin/reload", http.StatusOK, &rel)
	if rel.Generation != 2 || rel.Drained {
		t.Fatalf("reload under a lease: %+v, want generation 2 and drained=false", rel)
	}
	if old.Generation() != 1 {
		t.Errorf("outstanding lease moved to generation %d", old.Generation())
	}
	if _, err := old.Engine().Search("ullman", 1); err != nil {
		t.Errorf("borrowed engine unusable after the swap: %v", err)
	}
	if n := tn.provider.Leases(); n != 0 {
		t.Errorf("new generation reports %d leases before any request", n)
	}
	old.Release()

	postJSON(t, url+"/v1/admin/reload", http.StatusOK, &rel)
	if rel.Generation != 3 || !rel.Drained {
		t.Fatalf("idle reload: %+v, want generation 3 and drained=true", rel)
	}
	s.Close()
	if tn.provider.Acquire() != nil {
		t.Error("Acquire succeeded on a closed server's provider")
	}
}

// TestProviderClose pins close under an outstanding lease: Acquire returns
// nil at once, the leased engine keeps answering, and the handle's done
// closes (and its engine with it) only at the last Release.
func TestProviderClose(t *testing.T) {
	p := NewProvider(smallEngine(t))
	l := p.Acquire()
	done := p.cur.Load().done
	p.Close()
	if p.Acquire() != nil {
		t.Fatal("Acquire succeeded on a closed provider")
	}
	select {
	case <-done:
		t.Fatal("engine retired under an outstanding lease")
	default:
	}
	if _, err := l.Engine().Search("ullman", 1); err != nil {
		t.Fatalf("leased engine unusable during close drain: %v", err)
	}
	l.Release()
	select {
	case <-done:
	default:
		t.Fatal("the last release did not retire the engine")
	}
}

// TestProviderCloseAcquireRace hammers Acquire/Release against Swap and
// Close from many goroutines — the refcount transitions this exercises are
// exactly the ones -race must find if the lifecycle has a hole.
func TestProviderCloseAcquireRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		p := NewProvider(smallEngine(t))
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					l := p.Acquire()
					if l == nil {
						return // closed under us: the expected end state
					}
					if l.Generation() == 0 {
						t.Error("lease with generation 0")
					}
					l.Release()
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p.Swap(smallEngine(t))
			p.Close()
		}()
		close(start)
		wg.Wait()
		if l := p.Acquire(); l != nil {
			t.Fatal("Acquire succeeded after Close")
		}
	}
}

// TestProviderAcquireSkipsRetiredHandle pins the step of Acquire that the
// race above only rarely reaches: the current handle it loads was retired in
// the meantime — its count at zero, its engine and done closed. Acquire must
// undo its increment without closing the handle a second time and retry
// until a live handle is current, then lease that one.
func TestProviderAcquireSkipsRetiredHandle(t *testing.T) {
	retired := &engineHandle{engine: smallEngine(t), generation: 1, done: make(chan struct{})}
	retired.engine.Close()
	close(retired.done)
	live := &engineHandle{engine: smallEngine(t), generation: 2, done: make(chan struct{})}
	live.refs.Store(1)
	p := &Provider{}
	p.cur.Store(retired)
	go func() {
		// Acquire spins on the retired handle until this store, so the wait
		// only makes sure it meets that handle; no outcome depends on it.
		time.Sleep(20 * time.Millisecond)
		p.cur.Store(live)
	}()
	l := p.Acquire()
	if l == nil || l.Generation() != 2 {
		t.Fatalf("Acquire leased %+v, want the live generation 2", l)
	}
	if n := retired.refs.Load(); n != 0 {
		t.Errorf("retired handle left at %d references", n)
	}
	l.Release()
	if n := live.refs.Load(); n != 1 {
		t.Errorf("live handle at %d references after the lease, want the provider's 1", n)
	}
}

// TestTenantMetricsLabels spot-checks the tenant-labeled series of a
// two-tenant exposition: per-tenant outcome counters and fair-share gauges,
// with the unlabeled series still carrying the process-wide sums.
func TestTenantMetricsLabels(t *testing.T) {
	_, url := twoTenantServer(t, Config{AdmissionBudget: 8})
	getJSON(t, url+"/v1/search?q=ullman&tenant=books", http.StatusOK, nil)
	getJSON(t, url+"/v1/search?q=ullman&tenant=papers", http.StatusOK, nil)
	getJSON(t, url+"/v1/search?q=ullman&tenant=papers", http.StatusOK, nil)
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	resp.Body.Close()
	for _, want := range []string{
		`cirank_tenant_queries_total{tenant="books",status="ok"} 1`,
		`cirank_tenant_queries_total{tenant="papers",status="ok"} 2`,
		`cirank_tenant_generation{tenant="books"} 1`,
		`cirank_tenant_admission_weight{tenant="papers"} 1`,
		`cirank_tenant_admission_budget{tenant="books"} 4`,
		`cirank_queries_total{status="ok"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTenantRankingParity pins the sharing-is-invisible guarantee: for the
// same queries, every tenant of a multi-tenant server answers rankings
// byte-identical to a dedicated single-tenant server over the same corpus.
// The corpus and its queries are the generated DBLP workload, built the way
// cmd/cirank-server builds it.
func TestTenantRankingParity(t *testing.T) {
	ds, err := datagen.Generate("dblp", 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	built, err := datagen.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := built.GenerateWorkload(datagen.UserLogConfig(24, 13))
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 {
		t.Fatal("the workload generated no queries")
	}
	build := func() *cirank.Engine {
		b := cirank.NewDBLPBuilder()
		if err := ds.Replay(b.InsertEntity, b.Relate); err != nil {
			t.Fatal(err)
		}
		eng, err := b.Build(cirank.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	_, single := newTestServer(t, Config{Engine: build()})
	_, multi := newTestServer(t, Config{Tenants: []TenantConfig{
		{Name: "t0", Engine: build()},
		{Name: "t1", Engine: build()},
		{Name: "t2", Engine: build()},
	}})

	// results extracts the ranked answers' raw bytes: the part of the
	// envelope that must match exactly (stats carry timings, the envelope a
	// tenant name).
	results := func(target string) string {
		resp, err := http.Get(target)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", target, resp.StatusCode)
		}
		var env struct {
			Results json.RawMessage `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return string(env.Results)
	}
	answered := 0
	for i, q := range qs {
		path := fmt.Sprintf("/v1/search?q=%s&k=5", url.QueryEscape(strings.Join(q.Terms, " ")))
		want := results(single.URL + path)
		if want != "[]" {
			answered++
		}
		for _, tenant := range []string{"t0", "t1", "t2"} {
			if got := results(multi.URL + path + "&tenant=" + tenant); got != want {
				t.Fatalf("query %d: tenant %s rankings diverged from the dedicated server\nwant %s\ngot  %s",
					i, tenant, want, got)
			}
		}
	}
	if answered == 0 {
		t.Fatalf("none of the %d queries found an answer; the parity check compared nothing", len(qs))
	}
	t.Logf("%d of %d queries answered identically on every tenant", answered, len(qs))
}
