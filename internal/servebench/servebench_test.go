package servebench

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cirank"
	"cirank/internal/server"
)

// testFixture builds one small shared fixture; building a dataset and
// snapshot per test would dominate the package's runtime.
func testFixture(t *testing.T) *Fixture {
	t.Helper()
	f, err := NewFixture(t.TempDir(), "dblp", 0.1, 2, 13, 5)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFixtureDeterministic(t *testing.T) {
	a := testFixture(t)
	b := testFixture(t)
	if len(a.Queries) == 0 || len(a.Stream) == 0 {
		t.Fatalf("empty fixture: %d queries, %d stream entries", len(a.Queries), len(a.Stream))
	}
	if len(a.Queries) != len(b.Queries) || len(a.Stream) != len(b.Stream) {
		t.Fatalf("fixture shape diverged: %d/%d queries, %d/%d stream", len(a.Queries), len(b.Queries), len(a.Stream), len(b.Stream))
	}
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatalf("query %d diverged: %q vs %q", i, a.Queries[i], b.Queries[i])
		}
	}
	for i := range a.Stream {
		if a.Stream[i] != b.Stream[i] {
			t.Fatalf("stream entry %d diverged: %d vs %d", i, a.Stream[i], b.Stream[i])
		}
	}
	if p := a.Path(0); p == "" || p[0] != '/' {
		t.Fatalf("Path(0) = %q", p)
	}
}

// TestArmInvariants runs the three single-tenant tracked arms briefly and
// checks the properties their names promise: the baseline arm never reports
// cache or coalesce service, the warmed arm serves mostly from cache, and the
// reload arm — reloading while clients hammer the server — finishes with zero
// stale and zero failed requests. CI runs this under -race, which is the
// serving stack's churn-safety proof at the HTTP boundary.
func TestArmInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real load for ~1.5s")
	}
	f := testFixture(t)

	base, err := f.Run(Arm{Stage: "serve-nocache", CacheOff: true, CoalesceOff: true, Clients: 4, Duration: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if base.OK == 0 {
		t.Fatal("baseline arm completed zero requests")
	}
	if base.CacheHits != 0 || base.Coalesced != 0 {
		t.Fatalf("cache-off arm reported cacheHits=%d coalesced=%d", base.CacheHits, base.Coalesced)
	}
	if base.Failed != 0 || base.Stale != 0 {
		t.Fatalf("baseline arm failed=%d stale=%d", base.Failed, base.Stale)
	}

	warm, err := f.Run(Arm{Stage: "serve-cached", Warm: true, Clients: 4, Duration: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if warm.OK == 0 {
		t.Fatal("warmed arm completed zero requests")
	}
	if warm.CacheHits == 0 {
		t.Fatal("warmed arm recorded zero cache hits; the warm pass did not populate the result cache")
	}
	if warm.Failed != 0 || warm.Stale != 0 {
		t.Fatalf("warmed arm failed=%d stale=%d", warm.Failed, warm.Stale)
	}

	reload, err := f.Run(Arm{Stage: "serve-reload", Warm: true, Clients: 4, Duration: 600 * time.Millisecond, ReloadEvery: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if reload.OK == 0 {
		t.Fatal("reload arm completed zero requests")
	}
	if reload.Reloads == 0 {
		t.Fatal("reload arm completed zero reloads; ReloadEvery plumbing is broken")
	}
	// The tracked guarantee: reloads landing mid-load never surface as
	// failures or stale-generation answers.
	if reload.Failed != 0 {
		t.Fatalf("reload arm: %d failed requests during hot reloads", reload.Failed)
	}
	if reload.Stale != 0 {
		t.Fatalf("reload arm: %d stale-generation responses during hot reloads", reload.Stale)
	}
}

func TestTrackedArms(t *testing.T) {
	arms := TrackedArms(8, 2*time.Second)
	if len(arms) != 4 {
		t.Fatalf("got %d arms", len(arms))
	}
	stages := map[string]Arm{}
	for _, a := range arms {
		stages[a.Stage] = a
		if a.Clients != 8 || a.Duration != 2*time.Second {
			t.Errorf("arm %s sizing wrong: %+v", a.Stage, a)
		}
	}
	if a := stages["serve-nocache"]; !a.CacheOff || !a.CoalesceOff || a.Warm {
		t.Errorf("serve-nocache misconfigured: %+v", a)
	}
	if a := stages["serve-cached"]; a.CacheOff || a.CoalesceOff || !a.Warm || a.ReloadEvery != 0 {
		t.Errorf("serve-cached misconfigured: %+v", a)
	}
	if a := stages["serve-reload"]; !a.Warm || a.ReloadEvery <= 0 {
		t.Errorf("serve-reload misconfigured: %+v", a)
	}
	if a := stages["serve-tenants"]; !a.Warm || a.ReloadEvery <= 0 || a.Tenants < 2 || a.ReloadTenant != "t0" {
		t.Errorf("serve-tenants misconfigured: %+v", a)
	}
}

// TestTenantArmIsolation drives the mixed-tenant arm under churn and checks
// the tentpole guarantee at the HTTP boundary: hot-swapping one tenant
// surfaces zero stale-generation and zero failed answers on the others. CI
// runs this under -race, making it the multi-tenant churn-safety proof.
func TestTenantArmIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real load for ~1s")
	}
	f := testFixture(t)
	res, err := f.Run(Arm{Stage: "serve-tenants", Warm: true, Clients: 6,
		Duration: 600 * time.Millisecond, ReloadEvery: 150 * time.Millisecond,
		Tenants: 3, ReloadTenant: "t0"})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK == 0 {
		t.Fatal("tenant arm completed zero requests")
	}
	if res.Reloads == 0 {
		t.Fatal("tenant arm completed zero reloads; the targeted reload plumbing is broken")
	}
	if res.Failed != 0 || res.Stale != 0 {
		t.Fatalf("tenant arm failed=%d stale=%d under churn", res.Failed, res.Stale)
	}
	if res.FailedOther != 0 || res.StaleOther != 0 {
		t.Fatalf("reload isolation violated: %d failed, %d stale on non-reloaded tenants",
			res.FailedOther, res.StaleOther)
	}
}

// TestTenantRankingParity pins the sharing-is-invisible guarantee: for the
// same query stream, every tenant of a multi-tenant server answers rankings
// byte-identical to a dedicated single-tenant server over the same snapshot.
func TestTenantRankingParity(t *testing.T) {
	f := testFixture(t)
	open := func() *cirank.Engine {
		eng, err := cirank.Open(f.SnapshotPath)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	newServer := func(cfg server.Config) *httptest.Server {
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		return ts
	}
	single := newServer(server.Config{Engine: open()})
	multi := newServer(server.Config{Tenants: []server.TenantConfig{
		{Name: "t0", Engine: open()},
		{Name: "t1", Engine: open()},
		{Name: "t2", Engine: open()},
	}})

	// results extracts the ranked answers' raw bytes — the part of the
	// envelope that must match exactly (stats carry timings, the envelope a
	// tenant name).
	results := func(ts *httptest.Server, path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var env struct {
			Results json.RawMessage `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return string(env.Results)
	}
	n := len(f.Queries)
	if n > 25 {
		n = 25
	}
	for i := 0; i < n; i++ {
		path := f.Path(i)
		want := results(single, path)
		for _, tenant := range []string{"t0", "t1", "t2"} {
			if got := results(multi, path+"&tenant="+tenant); got != want {
				t.Fatalf("query %d: tenant %s rankings diverged from the dedicated server\nwant %s\ngot  %s",
					i, tenant, want, got)
			}
		}
	}
}
