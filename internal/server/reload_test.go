package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cirank"
)

// saveSnapshot writes eng's snapshot into dir and returns the path.
func saveSnapshot(t testing.TB, eng *cirank.Engine, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "eng.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// snapshotServer saves eng, opens it zero-copy, and serves it with
// /v1/admin/reload wired to the snapshot path.
func snapshotServer(t *testing.T, eng *cirank.Engine, cfg Config) (string, *Server, string) {
	t.Helper()
	path := saveSnapshot(t, eng, t.TempDir())
	opened, err := cirank.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = opened
	cfg.SnapshotPath = path
	s, ts := newTestServer(t, cfg)
	return path, s, ts.URL
}

func postJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d, want %d (%s)", url, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
}

// TestProviderLeaseLifecycle pins the provider's reference-counting
// contract: leases outlive swaps, the old generation drains only after its
// last release, and a closed provider refuses new leases.
func TestProviderLeaseLifecycle(t *testing.T) {
	p := NewProvider(smallEngine(t))
	l := p.Acquire()
	if l == nil {
		t.Fatal("Acquire on a fresh provider returned nil")
	}
	if l.Generation() != 1 || p.Generation() != 1 {
		t.Fatalf("generations %d/%d, want 1/1", l.Generation(), p.Generation())
	}

	gen, wait := p.Swap(smallEngine(t))
	if gen != 2 || p.Generation() != 2 {
		t.Fatalf("generation after swap = %d/%d, want 2", gen, p.Generation())
	}
	// The outstanding lease keeps generation 1 alive: the drain cannot
	// complete yet, but the lease's engine must still answer.
	if wait(10 * time.Millisecond) {
		t.Fatal("drain reported complete while a lease was outstanding")
	}
	if _, err := l.Engine().Search("ullman", 1); err != nil {
		t.Fatalf("leased engine unusable after swap: %v", err)
	}
	l.Release()
	if !wait(time.Second) {
		t.Fatal("drain did not complete after the last release")
	}

	l2 := p.Acquire()
	if l2 == nil || l2.Generation() != 2 {
		t.Fatalf("Acquire after swap = %+v, want generation 2", l2)
	}
	l2.Release()

	p.Close()
	p.Close() // idempotent
	if l := p.Acquire(); l != nil {
		t.Fatal("Acquire after Close returned a lease")
	}
	// Swapping into a closed provider must retire the incoming engine, not
	// resurrect the provider.
	gen, wait = p.Swap(smallEngine(t))
	if gen != 2 {
		t.Fatalf("generation after swap-into-closed = %d, want 2", gen)
	}
	if !wait(time.Second) {
		t.Fatal("swap into a closed provider did not report drained")
	}
	if l := p.Acquire(); l != nil {
		t.Fatal("swap into a closed provider resurrected it")
	}
}

// TestReloadEndpoint drives the full hot-reload path: a successful swap
// bumps the generation, a corrupt snapshot is rejected with 422 while the
// old engine keeps serving, and the next valid snapshot recovers.
func TestReloadEndpoint(t *testing.T) {
	path, _, url := snapshotServer(t, smallEngine(t), Config{})

	var health V1HealthResponse
	getJSON(t, url+"/v1/healthz", http.StatusOK, &health)
	if health.Generation != 1 || health.Source != cirank.SourceMmap {
		t.Fatalf("initial health = %+v, want generation 1, source mmap", health)
	}

	var rel V1ReloadResponse
	postJSON(t, url+"/v1/admin/reload", http.StatusOK, &rel)
	if rel.Status != "ok" || rel.Generation != 2 || rel.Source != cirank.SourceMmap {
		t.Fatalf("reload response = %+v", rel)
	}
	if !rel.Drained {
		t.Errorf("idle reload did not report drained")
	}

	// GET is not allowed.
	resp, err := http.Get(url + "/v1/admin/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/admin/reload: status %d, want 405", resp.StatusCode)
	}

	// A corrupt snapshot must be rejected without touching the serving
	// engine: typed 422, generation unchanged, search still answering.
	if err := os.WriteFile(path, []byte("CIEN garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var fail V1ErrorResponse
	postJSON(t, url+"/v1/admin/reload", http.StatusUnprocessableEntity, &fail)
	if fail.Error.Code != codeBadSnapshot || fail.Error.Message == "" {
		t.Errorf("422 response carries error %+v, want code %q and a message", fail.Error, codeBadSnapshot)
	}
	getJSON(t, url+"/v1/healthz", http.StatusOK, &health)
	if health.Generation != 2 {
		t.Fatalf("generation after failed reload = %d, want 2", health.Generation)
	}
	var res V1SearchResponse
	getJSON(t, url+"/v1/search?q=ullman", http.StatusOK, &res)
	if len(res.Results) == 0 {
		t.Fatal("old engine stopped answering after a failed reload")
	}

	// A bigger snapshot at the same path swaps in and is visible in the
	// health report.
	bigger := func() *cirank.Engine {
		b := cirank.NewDBLPBuilder()
		b.MustInsert("Author", "a1", "jeffrey ullman")
		b.MustInsert("Author", "a2", "yannis papakonstantinou")
		b.MustInsert("Author", "a3", "hector garcia molina")
		b.MustInsert("Paper", "p1", "object exchange across heterogeneous information sources")
		b.MustRelate("written_by", "p1", "a1")
		b.MustRelate("written_by", "p1", "a2")
		b.MustRelate("written_by", "p1", "a3")
		eng, err := b.Build(cirank.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}()
	if p := saveSnapshot(t, bigger, filepath.Dir(path)); p != path {
		t.Fatalf("snapshot rewritten to %s, want %s", p, path)
	}
	postJSON(t, url+"/v1/admin/reload", http.StatusOK, &rel)
	if rel.Generation != 3 || rel.Nodes != bigger.NumNodes() {
		t.Fatalf("reload after rewrite = %+v, want generation 3 with %d nodes", rel, bigger.NumNodes())
	}

	// The metrics endpoint accounts both outcomes and the live generation.
	mresp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`cirank_reloads_total{status="ok"} 2`,
		`cirank_reloads_total{status="error"} 1`,
		"cirank_engine_generation 3",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// reloadRejects renames a committed snapshot fixture onto the serving path:
// POST /v1/admin/reload must answer 422 bad_snapshot with a message naming
// why (want), and the old engine must keep serving generation 1.
func reloadRejects(t *testing.T, fixture, want string) {
	t.Helper()
	path, _, url := snapshotServer(t, smallEngine(t), Config{})
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	var fail V1ErrorResponse
	postJSON(t, url+"/v1/admin/reload", http.StatusUnprocessableEntity, &fail)
	if fail.Error.Code != codeBadSnapshot || !strings.Contains(fail.Error.Message, want) {
		t.Errorf("422 response carries error %+v, want code %q and a message containing %q", fail.Error, codeBadSnapshot, want)
	}
	if fail.Generation != 1 {
		t.Errorf("generation after the rejected reload = %d, want 1", fail.Generation)
	}
	var res V1SearchResponse
	getJSON(t, url+"/v1/search?q=ullman", http.StatusOK, &res)
	if res.Generation != 1 || len(res.Results) == 0 {
		t.Errorf("after the rejected reload: generation %d, %d results; want the old engine answering", res.Generation, len(res.Results))
	}
}

// TestReloadRejectsShardSnapshot: a file left behind by the retired shard
// engines (here shard 0 of 2 as commit e40efd4 saved it) holds a subgraph, not
// a corpus.
func TestReloadRejectsShardSnapshot(t *testing.T) {
	reloadRejects(t, "../../testdata/shard0_e40efd4.snap", "shard snapshots are no longer supported")
}

// TestReloadRejectsOneWaySnapshot: a snapshot that is valid but for one edge
// without its reverse must not load, or the engine would rank over a graph
// its search does not handle.
func TestReloadRejectsOneWaySnapshot(t *testing.T) {
	reloadRejects(t, "../../testdata/oneway_edge.snap", "has no reverse")
}

// TestShardParamIsIgnored: ?shard= selected one partition of a sharded tenant
// until scatter-gather was retired. It is now an unknown parameter like any
// other: the reload covers the tenant's one engine and the envelope carries no
// shard field.
func TestShardParamIsIgnored(t *testing.T) {
	_, _, url := snapshotServer(t, smallEngine(t), Config{})
	var rel map[string]any
	postJSON(t, url+"/v1/admin/reload?shard=1", http.StatusOK, &rel)
	if rel["generation"] != float64(2) || rel["status"] != "ok" {
		t.Errorf("reload with ?shard=1 answered %v, want a whole-engine reload to generation 2", rel)
	}
	if _, ok := rel["shard"]; ok {
		t.Errorf("reload envelope still carries a shard field: %v", rel)
	}
	var res V1SearchResponse
	getJSON(t, url+"/v1/search?q=ullman&shard=7", http.StatusOK, &res)
	if res.Generation != 2 || len(res.Results) == 0 {
		t.Errorf("search with ?shard=7: generation %d, %d results", res.Generation, len(res.Results))
	}
}

// TestReloadNotConfigured checks the endpoint stays unregistered without a
// snapshot path.
func TestReloadNotConfigured(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: smallEngine(t)})
	resp, err := http.Post(ts.URL+"/v1/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/admin/reload without SnapshotPath: status %d, want 404", resp.StatusCode)
	}
}

// ullmanVariant builds the small bibliography engine plus extra distinct
// "ullman"-matching authors, so the answer count of the probe query
// identifies which corpus a response was really computed against.
func ullmanVariant(t testing.TB, extra int) *cirank.Engine {
	t.Helper()
	b := cirank.NewDBLPBuilder()
	b.MustInsert("Author", "a1", "jeffrey ullman")
	b.MustInsert("Author", "a2", "yannis papakonstantinou")
	b.MustInsert("Paper", "p1", "object exchange across heterogeneous information sources")
	b.MustInsert("Paper", "p2", "database systems the complete book")
	b.MustRelate("written_by", "p1", "a1")
	b.MustRelate("written_by", "p1", "a2")
	b.MustRelate("written_by", "p2", "a1")
	for i := 0; i < extra; i++ {
		b.MustInsert("Author", fmt.Sprintf("ax%d", i), fmt.Sprintf("ullman variant%d", i))
	}
	eng, err := b.Build(cirank.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// trySaveSnapshot writes eng's snapshot at path atomically (temp file +
// rename), so an engine still mmap-serving the old file keeps its pages —
// the inode survives the replace. Safe to call from non-test goroutines.
func trySaveSnapshot(eng *cirank.Engine, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := eng.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// TestReloadUnderQueryLoad is the zero-failed-requests, zero-stale-results
// guarantee of the serving stack: /v1 queries — cache hits, coalesced
// followers and fresh evaluations alike — hammer the server from several
// goroutines while reloads alternate between two distinguishable corpora.
// Every request must succeed, every response's claimed generation must be at
// least the last reload completed before the request started, and every
// response's content must match the corpus of the generation it claims —
// a stale cache or flight entry surviving a swap would trip one of the two.
//
// The tenants case serves three named corpora and reloads only the first
// while the queriers spread over all three: the other two must answer every
// request from generation 1 with their own corpus, and their caches must
// keep hitting — a reload leaks into no neighbour.
func TestReloadUnderQueryLoad(t *testing.T) {
	t.Run("single", func(t *testing.T) { reloadUnderQueryLoad(t, false) })
	t.Run("tenants", func(t *testing.T) { reloadUnderQueryLoad(t, true) })
}

func reloadUnderQueryLoad(t *testing.T, multi bool) {
	const (
		queriers         = 6
		queriesPerWorker = 50
		reloads          = 10
		probe            = "/v1/search?q=ullman&k=10"
	)
	probeCount := func(eng *cirank.Engine) int {
		res, err := eng.Search("ullman", 10)
		if err != nil {
			t.Fatal(err)
		}
		return len(res)
	}
	// Generation g of the reloaded tenant serves corpus A (1 probe answer)
	// when g is odd, corpus B (3 probe answers) when even.
	engA, engB := ullmanVariant(t, 0), ullmanVariant(t, 2)
	wantCount := map[uint64]int{1: probeCount(engA), 0: probeCount(engB)}

	// tenants[0] is the reloaded one; every other tenant keeps the corpus
	// whose probe answer count it records.
	type probed struct {
		name, query string
		count       int
	}
	path := saveSnapshot(t, engA, t.TempDir())
	opened, err := cirank.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxInFlight: 64}
	tenants := []probed{{name: DefaultTenantName, query: probe}}
	reloadURL := "/v1/admin/reload"
	if multi {
		cfg.Tenants = []TenantConfig{{Name: "t0", Engine: opened, SnapshotPath: path}}
		tenants[0] = probed{name: "t0", query: probe + "&tenant=t0"}
		for i, extra := range []int{1, 3} {
			eng := ullmanVariant(t, extra)
			name := fmt.Sprintf("t%d", i+1)
			cfg.Tenants = append(cfg.Tenants, TenantConfig{Name: name, Engine: eng})
			tenants = append(tenants, probed{name, probe + "&tenant=" + name, probeCount(eng)})
		}
		reloadURL += "?tenant=t0"
	} else {
		cfg.Engine, cfg.SnapshotPath = opened, path
	}
	seen := map[int]bool{wantCount[0]: true, wantCount[1]: true}
	for _, tn := range tenants[1:] {
		seen[tn.count] = true
	}
	if len(seen) != len(tenants)+1 {
		t.Fatalf("corpora not distinguishable by probe answer count: %v", seen)
	}
	s, ts := newTestServer(t, cfg)
	url := ts.URL

	// lastCompleted is the highest generation whose reload has answered; a
	// request started after that answer must never see an older generation.
	var lastCompleted atomic.Uint64
	lastCompleted.Store(1)

	var wg sync.WaitGroup
	errc := make(chan error, queriers*queriesPerWorker+reloads)
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesPerWorker; i++ {
				tn := tenants[(w+i)%len(tenants)]
				floor := lastCompleted.Load()
				resp, err := http.Get(url + tn.query)
				if err != nil {
					errc <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("tenant %s: search during reload: status %d (%s)", tn.name, resp.StatusCode, body)
					return
				}
				var res V1SearchResponse
				if err := json.Unmarshal(body, &res); err != nil {
					errc <- fmt.Errorf("tenant %s: search during reload: decode: %v", tn.name, err)
					return
				}
				switch {
				case tn.name != tenants[0].name:
					if res.Generation != 1 || len(res.Results) != tn.count {
						errc <- fmt.Errorf("tenant %s: generation %d (source %s) answered %d results, want generation 1 with %d — a neighbour's reload leaked in",
							tn.name, res.Generation, res.Stats.Source, len(res.Results), tn.count)
						return
					}
				case res.Generation < floor:
					errc <- fmt.Errorf("stale generation: response claims %d, but reload to %d had completed before the request started", res.Generation, floor)
					return
				case len(res.Results) != wantCount[res.Generation%2]:
					errc <- fmt.Errorf("stale content: generation %d (source %s) answered %d results, its corpus has %d",
						res.Generation, res.Stats.Source, len(res.Results), wantCount[res.Generation%2])
					return
				}
				switch res.Stats.Source {
				case ServedEngine, ServedCache, ServedCoalesced:
				default:
					errc <- fmt.Errorf("unknown serving source %q", res.Stats.Source)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			gen := uint64(i + 2) // the generation this reload creates
			next := engA
			if gen%2 == 0 {
				next = engB
			}
			if err := trySaveSnapshot(next, path); err != nil {
				errc <- fmt.Errorf("reload %d: rewrite snapshot: %v", i, err)
				return
			}
			resp, err := http.Post(url+reloadURL, "application/json", nil)
			if err != nil {
				errc <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("reload %d: status %d (%s)", i, resp.StatusCode, body)
				return
			}
			var rel V1ReloadResponse
			if err := json.Unmarshal(body, &rel); err != nil {
				errc <- fmt.Errorf("reload %d: decode: %v", i, err)
				return
			}
			if rel.Generation != gen {
				errc <- fmt.Errorf("reload %d: generation %d, want %d", i, rel.Generation, gen)
				return
			}
			lastCompleted.Store(rel.Generation)
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The storm must have exercised every cache, and the books must balance:
	// every OK answer came from exactly one serving layer.
	var hits int64
	for i, tn := range tenants {
		got, ok := s.reg.get(tn.name)
		if !ok {
			t.Fatalf("tenant %s missing after the storm", tn.name)
		}
		gen, wantGen := got.provider.Generation(), uint64(1)
		if i == 0 {
			wantGen = reloads + 1
		}
		if gen != wantGen {
			t.Errorf("tenant %s: final generation = %d, want %d", tn.name, gen, wantGen)
		}
		h, misses := got.cache.stats()
		hits += h
		if h == 0 {
			t.Errorf("tenant %s: no result-cache hits across the storm", tn.name)
		}
		// Without a reload a querier misses a tenant's cache at most once:
		// its first answer from that tenant left the entry behind.
		if i > 0 && misses > queriers {
			t.Errorf("tenant %s: %d cache misses, want at most %d — its cache stopped hitting during a neighbour's reloads", tn.name, misses, queriers)
		}
	}
	served := hits + s.m.coalesced.Load() + s.m.flightLeaders.Load()
	if ok := s.m.ok.Load(); ok != queriers*queriesPerWorker || served != ok {
		t.Errorf("accounting: ok=%d (want %d), cache+coalesced+leaders=%d", ok, queriers*queriesPerWorker, served)
	}
	t.Logf("storm served %d cache hits, %d coalesced, %d evaluations across %d reloads",
		hits, s.m.coalesced.Load(), s.m.flightLeaders.Load(), reloads)
}

// TestCoalescedReloadStraddle pins the coalescing×reload interaction
// deterministically: a follower rides a slow in-flight evaluation, a reload
// swaps the engine mid-flight, and both leader and follower still answer —
// labelled with the generation they actually leased, never the new one —
// while the next request evaluates fresh against the new generation.
func TestCoalescedReloadStraddle(t *testing.T) {
	_, s, url := snapshotServer(t, denseEngine(t, 120), Config{MaxExpansions: -1})
	const q = "/v1/search?q=alpha+beta&k=10&timeout=700ms"

	var wg sync.WaitGroup
	responses := make([]V1SearchResponse, 2)
	fetchErrs := make([]error, 2)
	start := func(i int, ready chan<- struct{}) {
		defer wg.Done()
		if ready != nil {
			close(ready)
		}
		resp, err := http.Get(url + q)
		if err != nil {
			fetchErrs[i] = err
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fetchErrs[i] = fmt.Errorf("status %d (%s)", resp.StatusCode, body)
			return
		}
		fetchErrs[i] = json.Unmarshal(body, &responses[i])
	}
	wg.Add(1)
	go start(0, nil)
	deadline := time.Now().Add(5 * time.Second)
	for s.m.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader evaluation never started")
		}
		time.Sleep(time.Millisecond)
	}
	ready := make(chan struct{})
	wg.Add(1)
	go start(1, ready)
	// Give the follower a beat to join the flight, then swap the engine out
	// from under it.
	<-ready
	time.Sleep(100 * time.Millisecond)
	var rel V1ReloadResponse
	postJSON(t, url+"/v1/admin/reload", http.StatusOK, &rel)
	if rel.Generation != 2 {
		t.Fatalf("reload generation = %d, want 2", rel.Generation)
	}
	wg.Wait()

	for i, err := range fetchErrs {
		if err != nil {
			t.Fatalf("request %d failed across the reload: %v", i, err)
		}
	}
	for i, res := range responses {
		if res.Generation != 1 {
			t.Errorf("request %d: generation %d, want 1 — a mid-flight reload relabelled a result", i, res.Generation)
		}
		if len(res.Results) == 0 {
			t.Errorf("request %d: no results from the straddling flight", i)
		}
	}
	if s.m.coalesced.Load() != 1 || s.m.flightLeaders.Load() != 1 {
		t.Errorf("coalesce counters = %d leaders / %d followers, want 1/1",
			s.m.flightLeaders.Load(), s.m.coalesced.Load())
	}
	// The new generation answers fresh: its key space is disjoint from every
	// pre-reload cache or flight entry.
	var after V1SearchResponse
	getJSON(t, url+q, http.StatusOK, &after)
	if after.Generation != 2 {
		t.Errorf("post-reload generation = %d, want 2", after.Generation)
	}
	if after.Stats.Source != ServedEngine {
		t.Errorf("post-reload source = %q, want %q — a stale serving-layer entry crossed the reload", after.Stats.Source, ServedEngine)
	}
}

// TestServerClose checks the shutdown path: after Server.Close, searches
// and health checks answer 503 instead of panicking on a retired engine.
func TestServerClose(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: smallEngine(t)})
	var res V1SearchResponse
	getJSON(t, ts.URL+"/v1/search?q=ullman", http.StatusOK, &res)
	s.Close()
	resp, err := http.Get(ts.URL + "/v1/search?q=ullman")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("search after Close: status %d, want 503", resp.StatusCode)
	}
	var health V1HealthResponse
	getJSON(t, ts.URL+"/v1/healthz", http.StatusServiceUnavailable, &health)
	if health.Status != "closed" {
		t.Fatalf("health after Close = %+v, want status closed", health)
	}
}
