package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cirank"
)

// shardedEngines partitions a freshly built engine for serving tests.
func shardedEngines(t testing.TB, count int) []*cirank.Engine {
	t.Helper()
	shards, err := cirank.ShardEngines(ullmanVariant(t, 3), count, 0)
	if err != nil {
		t.Fatal(err)
	}
	return shards
}

// TestShardedServerParity checks the serving stack answers a sharded corpus
// identically to the unsharded one: same results, same composite generation,
// over every search surface.
func TestShardedServerParity(t *testing.T) {
	_, single := newTestServer(t, Config{Engine: ullmanVariant(t, 3)})
	_, sharded := newTestServer(t, Config{Shards: shardedEngines(t, 2)})
	for _, q := range []string{
		"/v1/search?q=ullman&k=10",
		"/v1/search?q=papakonstantinou+ullman&k=3",
		"/v1/search?q=heterogeneous+sources",
		"/v1/search?q=ullman&k=10&workers=4",
	} {
		var want, got V1SearchResponse
		getJSON(t, single.URL+q, http.StatusOK, &want)
		getJSON(t, sharded.URL+q, http.StatusOK, &got)
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Errorf("%s: sharded results diverge from single-engine\nsharded: %+v\nsingle:  %+v", q, got.Results, want.Results)
		}
		if got.Generation != want.Generation || got.K != want.K || !reflect.DeepEqual(got.Terms, want.Terms) {
			t.Errorf("%s: envelope fields diverge: %+v vs %+v", q, got, want)
		}
	}
}

// TestShardedHealthz pins the shard-aware health report: composite
// generation, whole-corpus totals, and one entry per shard with its own
// generation, source and an idle lease count of zero.
func TestShardedHealthz(t *testing.T) {
	ref := ullmanVariant(t, 3)
	_, ts := newTestServer(t, Config{Shards: shardedEngines(t, 2)})
	var health V1HealthResponse
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &health)
	if health.Generation != 1 || health.Status != "ok" {
		t.Fatalf("sharded health = %+v, want generation 1 ok", health)
	}
	if health.Nodes != ref.NumNodes() || health.Edges != ref.NumEdges() {
		t.Errorf("health totals %d/%d, want whole corpus %d/%d",
			health.Nodes, health.Edges, ref.NumNodes(), ref.NumEdges())
	}
	if len(health.Shards) != 2 {
		t.Fatalf("health reports %d shards, want 2", len(health.Shards))
	}
	haloEdges := 0
	for i, sh := range health.Shards {
		if sh.Index != i || sh.Generation != 1 || sh.Source != cirank.SourceBuild {
			t.Errorf("shard %d entry = %+v", i, sh)
		}
		if sh.Leases != 0 {
			t.Errorf("idle shard %d reports %d leases", i, sh.Leases)
		}
		haloEdges += sh.Edges
	}
	if haloEdges < ref.NumEdges() {
		t.Errorf("shard edges sum to %d, below the corpus total %d", haloEdges, ref.NumEdges())
	}
	// The unsharded probe body stays shard-free.
	_, plain := newTestServer(t, Config{Engine: ullmanVariant(t, 3)})
	var plainHealth V1HealthResponse
	getJSON(t, plain.URL+"/v1/healthz", http.StatusOK, &plainHealth)
	if plainHealth.Shards != nil {
		t.Errorf("unsharded health grew a shards array: %+v", plainHealth.Shards)
	}
}

// TestShardedMetrics checks the per-shard gauges appear in the exposition,
// and stay absent on an unsharded server.
func TestShardedMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: shardedEngines(t, 2)})
	getJSON(t, ts.URL+"/v1/search?q=ullman", http.StatusOK, nil)
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`cirank_shard_generation{tenant="default",shard="0"} 1`,
		`cirank_shard_generation{tenant="default",shard="1"} 1`,
		`cirank_shard_leases{tenant="default",shard="0"} 0`,
		"cirank_engine_generation 1",
		`cirank_tenant_generation{tenant="default"} 1`,
		`cirank_tenant_queries_total{tenant="default",status="ok"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("sharded metrics missing %q", want)
		}
	}
	_, plain := newTestServer(t, Config{Engine: smallEngine(t)})
	resp, err = http.Get(plain.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "cirank_shard_generation") {
		t.Error("unsharded metrics grew shard gauges")
	}
}

// TestShardedConfigValidation covers the sharded config failure modes.
func TestShardedConfigValidation(t *testing.T) {
	shards := shardedEngines(t, 2)
	if _, err := New(Config{Engine: smallEngine(t), Shards: shards}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Engine+Shards accepted: %v", err)
	}
	if _, err := New(Config{Shards: []*cirank.Engine{shards[1], shards[0]}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("out-of-order shard set accepted: %v", err)
	}
	// DefaultShardRadius is 3: diameters beyond 2·3 are outside the
	// exactness horizon and must be rejected at config time, not per query.
	if _, err := New(Config{Shards: shardedEngines(t, 2), MaxDiameter: 8}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("over-horizon MaxDiameter accepted: %v", err)
	}
}

// shardedSnapshotServer saves a shard set, reopens it zero-copy and serves
// it with the reload endpoints wired to the base path.
func shardedSnapshotServer(t *testing.T, count int) (string, *Server, string) {
	t.Helper()
	shards := shardedEngines(t, count)
	base := filepath.Join(t.TempDir(), "set.snap")
	if err := cirank.SaveShardSet(shards, base); err != nil {
		t.Fatal(err)
	}
	se, err := cirank.OpenShardSet(base)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Shards: se.Engines(), SnapshotPath: base, MaxInFlight: 64})
	return base, s, ts.URL
}

// TestShardedReloadEndpoint drives per-shard and whole-set hot reloads: the
// composite generation advances by one per swapped shard, a misplaced shard
// file is rejected without touching the serving set, and the shard selector
// is validated.
func TestShardedReloadEndpoint(t *testing.T) {
	base, _, url := shardedSnapshotServer(t, 2)

	var rel V1ReloadResponse
	postJSON(t, url+"/v1/admin/reload?shard=1", http.StatusOK, &rel)
	if rel.Generation != 2 || rel.Shard == nil || *rel.Shard != 1 {
		t.Fatalf("single-shard reload = %+v, want generation 2 shard 1", rel)
	}
	var health V1HealthResponse
	getJSON(t, url+"/v1/healthz", http.StatusOK, &health)
	if health.Generation != 2 || health.Shards[0].Generation != 1 || health.Shards[1].Generation != 2 {
		t.Fatalf("after shard-1 reload: %+v", health)
	}

	// Whole-set reload swaps every shard: composite 2 -> 4.
	rel = V1ReloadResponse{}
	postJSON(t, url+"/v1/admin/reload", http.StatusOK, &rel)
	if rel.Generation != 4 || rel.Shard != nil {
		t.Fatalf("whole-set reload = %+v, want generation 4", rel)
	}
	getJSON(t, url+"/v1/healthz", http.StatusOK, &health)
	if health.Shards[0].Generation != 2 || health.Shards[1].Generation != 3 {
		t.Fatalf("after whole-set reload: %+v", health)
	}

	// A shard-0 file served at shard 1's path identifies itself and is
	// rejected; the set keeps serving. Replace via temp + rename — the
	// serving engine mmaps the old inode, which must stay intact.
	shard0, err := os.ReadFile(cirank.ShardSnapshotPath(base, 0))
	if err != nil {
		t.Fatal(err)
	}
	tmp := cirank.ShardSnapshotPath(base, 1) + ".tmp"
	if err := os.WriteFile(tmp, shard0, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, cirank.ShardSnapshotPath(base, 1)); err != nil {
		t.Fatal(err)
	}
	var fail V1ErrorResponse
	resp, err := http.Post(url+"/v1/admin/reload?shard=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("misplaced shard file: status %d (%s)", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &fail); err != nil || fail.Error.Code != codeBadSnapshot {
		t.Fatalf("misplaced shard file error = %s", raw)
	}
	getJSON(t, url+"/v1/search?q=ullman", http.StatusOK, nil)

	// Shard selector validation.
	postJSON(t, url+"/v1/admin/reload?shard=7", http.StatusBadRequest, nil)
	_, _, plainURL := snapshotServer(t, smallEngine(t), Config{})
	resp, err = http.Post(plainURL+"/v1/admin/reload?shard=0", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("shard selector on unsharded server: status %d, want 400", resp.StatusCode)
	}
}

// TestShardedReloadUnderQueryLoad is the sharded zero-failed, zero-stale
// guarantee: queries hammer a two-shard server while shard 1 hot-swaps
// repeatedly. The swapped snapshot holds the same corpus, so every response
// — whatever generation vector it leased — must carry the identical ranking;
// any cross-generation mixing, stale cache entry or mid-swap failure trips
// the checks. Run under -race this also certifies the multi-provider lease
// discipline.
func TestShardedReloadUnderQueryLoad(t *testing.T) {
	const (
		queriers         = 6
		queriesPerWorker = 40
		reloads          = 12
	)
	base, s, url := shardedSnapshotServer(t, 2)

	var want V1SearchResponse
	getJSON(t, url+"/v1/search?q=ullman&k=10", http.StatusOK, &want)
	if len(want.Results) == 0 {
		t.Fatal("reference query answered nothing")
	}

	var lastCompleted atomic.Uint64
	lastCompleted.Store(1)
	var wg sync.WaitGroup
	errc := make(chan error, queriers*queriesPerWorker+reloads)
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesPerWorker; i++ {
				floor := lastCompleted.Load()
				resp, err := http.Get(url + "/v1/search?q=ullman&k=10")
				if err != nil {
					errc <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("search during shard reload: status %d (%s)", resp.StatusCode, body)
					return
				}
				var res V1SearchResponse
				if err := json.Unmarshal(body, &res); err != nil {
					errc <- fmt.Errorf("decode: %v", err)
					return
				}
				if res.Generation < floor {
					errc <- fmt.Errorf("stale generation: response claims %d after reload to %d completed", res.Generation, floor)
					return
				}
				if !reflect.DeepEqual(res.Results, want.Results) {
					errc <- fmt.Errorf("generation %d answered a different ranking for an unchanged corpus", res.Generation)
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
			resp, err := http.Post(url+"/v1/admin/reload?shard=1", "application/json", nil)
			if err != nil {
				errc <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("shard reload %d: status %d (%s)", i, resp.StatusCode, body)
				return
			}
			var rel V1ReloadResponse
			if err := json.Unmarshal(body, &rel); err != nil {
				errc <- fmt.Errorf("shard reload %d: decode: %v", i, err)
				return
			}
			if rel.Generation != uint64(i+2) {
				errc <- fmt.Errorf("shard reload %d: composite generation %d, want %d", i, rel.Generation, i+2)
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

	var health V1HealthResponse
	getJSON(t, url+"/v1/healthz", http.StatusOK, &health)
	if health.Generation != reloads+1 {
		t.Errorf("final composite generation = %d, want %d", health.Generation, reloads+1)
	}
	if health.Shards[0].Generation != 1 || health.Shards[1].Generation != uint64(reloads+1) {
		t.Errorf("final shard generations = %d/%d, want 1/%d",
			health.Shards[0].Generation, health.Shards[1].Generation, reloads+1)
	}
	ok := s.m.ok.Load()
	if wantOK := int64(queriers*queriesPerWorker + 1); ok != wantOK {
		t.Errorf("ok responses = %d, want %d", ok, wantOK)
	}
	_ = base
}
