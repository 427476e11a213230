package servebench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cirank"
	"cirank/internal/server"
)

// Arm is one measured server configuration under one load shape.
type Arm struct {
	// Stage names the arm in cirank-loadgen's output ("serve-nocache",
	// "serve-cached", "serve-reload", ...).
	Stage string
	// CacheOff disables the result cache; CoalesceOff disables
	// singleflight. Both off is the baseline arm: every request evaluates.
	CacheOff, CoalesceOff bool
	// Warm replays the whole stream once, unmeasured, before the clock
	// starts — the steady state of a long-running server. Without it the
	// measured window starts cold.
	Warm bool
	// Clients is the closed-loop concurrency: each client issues its next
	// query the moment the previous one answers.
	Clients int
	// TargetQPS switches to open-loop: requests start at this rate
	// regardless of completions (Clients then only sizes the transport).
	TargetQPS float64
	// Duration is the measured window.
	Duration time.Duration
	// ReloadEvery, when positive, hot-reloads the snapshot at this period
	// during the measured window.
	ReloadEvery time.Duration
	// Timeout is the per-query timeout parameter sent to the server
	// (zero = the server default).
	Timeout time.Duration
	// Tenants, when above 1, serves the snapshot as that many named tenants
	// ("t0" … "tN-1") in one server — each with its own engine, result
	// cache, flight group and fair admission share — and round-robins the
	// stream across them by request index.
	Tenants int
	// ReloadTenant names the tenant the reload goroutine hot-swaps on a
	// multi-tenant arm (default "t0"). Only that tenant's generation floor
	// ever moves, so a stale or failed answer from any other tenant is a
	// reload-isolation violation, counted in Result.StaleOther/FailedOther.
	ReloadTenant string
}

// TrackedArms returns the standard arm set cirank-loadgen runs by default:
// baseline without the serving stack's caches, the full stack warmed, the
// full stack with reloads landing mid-load, and the mixed-tenant stream with
// reloads hot-swapping exactly one tenant.
func TrackedArms(clients int, duration time.Duration) []Arm {
	return []Arm{
		{Stage: "serve-nocache", CacheOff: true, CoalesceOff: true, Clients: clients, Duration: duration},
		{Stage: "serve-cached", Warm: true, Clients: clients, Duration: duration},
		{Stage: "serve-reload", Warm: true, Clients: clients, Duration: duration, ReloadEvery: duration / 4},
		{Stage: "serve-tenants", Warm: true, Clients: clients, Duration: duration, ReloadEvery: duration / 4, Tenants: 3, ReloadTenant: "t0"},
	}
}

// Result is one arm's measurement.
type Result struct {
	// Requests counts completed requests in the measured window; OK the
	// 200s among them.
	Requests, OK int64
	// Rejected counts 429 load-shed answers (deliberate, not failures);
	// Failed counts transport errors and every other non-200 status.
	Failed, Rejected int64
	// Stale counts generation-floor violations: a response claiming an
	// older generation than the last reload completed before the request
	// started. The serving stack's invariant is that this is always zero.
	Stale int64
	// Reloads counts hot reloads completed during the measured window.
	Reloads int64
	// CacheHits and Coalesced count OK responses whose envelope reported
	// stats.source "cache" / "coalesced"; Evaluated the "engine" ones.
	CacheHits, Coalesced, Evaluated int64
	// StaleOther and FailedOther count the stale / failed answers observed
	// on tenants other than the reloaded one during a multi-tenant arm —
	// the reload-isolation invariant keeps both at zero. Zero on
	// single-tenant arms by construction.
	StaleOther, FailedOther int64
	// MeanNs, P50Ns, P99Ns are per-request wall-clock latencies through
	// HTTP.
	MeanNs, P50Ns, P99Ns int64
	// QPS is sustained OK completions per second over the window.
	QPS float64
	// Elapsed is the actual measured window.
	Elapsed time.Duration
}

// probeResponse is the slice of the /v1 envelope the harness reads per
// response: enough for staleness and serving-source accounting without
// decoding the ranked answers.
type probeResponse struct {
	Generation uint64 `json:"generation"`
	Stats      struct {
		Source string `json:"source"`
	} `json:"stats"`
}

// Run measures one arm against the fixture: it opens the snapshot into a
// fresh server, applies the arm's serving configuration, drives the stream
// for the arm's duration, and aggregates per-request observations.
func (f *Fixture) Run(arm Arm) (Result, error) {
	var res Result
	if arm.Clients < 1 {
		return res, fmt.Errorf("servebench: arm %s: Clients must be positive", arm.Stage)
	}
	if arm.Duration <= 0 {
		return res, fmt.Errorf("servebench: arm %s: Duration must be positive", arm.Stage)
	}

	nT := arm.Tenants
	if nT < 1 {
		nT = 1
	}
	reloadTenant := arm.ReloadTenant
	if reloadTenant == "" && nT > 1 {
		reloadTenant = "t0"
	}
	cfg := server.Config{
		// Admission stays out of the way unless an arm studies it: the
		// tracked arms measure the cache/coalesce win and the reload
		// guarantee, not shedding behaviour.
		MaxInFlight: 4 * arm.Clients,
	}
	if arm.CacheOff {
		cfg.ResultCacheSize = -1
	}
	if arm.CoalesceOff {
		cfg.CoalesceEnabled = server.Bool(false)
	}
	var engines []*cirank.Engine
	closeEngines := func() {
		for _, e := range engines {
			e.Close()
		}
	}
	if nT == 1 {
		eng, err := cirank.Open(f.SnapshotPath)
		if err != nil {
			return res, err
		}
		engines = append(engines, eng)
		cfg.Engine = eng
		if arm.ReloadEvery > 0 {
			cfg.SnapshotPath = f.SnapshotPath
		}
	} else {
		// Every tenant serves its own zero-copy view of the same snapshot —
		// identical corpora, independent serving stacks, so per-tenant
		// rankings must match a dedicated single-tenant server byte for byte.
		for i := 0; i < nT; i++ {
			eng, err := cirank.Open(f.SnapshotPath)
			if err != nil {
				closeEngines()
				return res, err
			}
			engines = append(engines, eng)
			cfg.Tenants = append(cfg.Tenants, server.TenantConfig{
				Name:         fmt.Sprintf("t%d", i),
				Engine:       eng,
				SnapshotPath: f.SnapshotPath,
			})
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		closeEngines()
		return res, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * arm.Clients,
		MaxIdleConnsPerHost: 4 * arm.Clients,
	}}

	suffix := ""
	if arm.Timeout > 0 {
		suffix = fmt.Sprintf("&timeout=%s", arm.Timeout)
	}
	// tenantOf spreads the stream across the tenants by request index; the
	// suffix routes the request to its tenant's corpus.
	tenantOf := func(i int) int { return i % nT }
	tenantSuffix := make([]string, nT)
	if nT > 1 {
		for i := 0; i < nT; i++ {
			tenantSuffix[i] = fmt.Sprintf("&tenant=t%d", i)
		}
	}
	get := func(i int) (probeResponse, int, error) {
		var probe probeResponse
		resp, err := client.Get(ts.URL + f.Path(i) + suffix + tenantSuffix[tenantOf(i)])
		if err != nil {
			return probe, 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return probe, resp.StatusCode, err
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &probe); err != nil {
				return probe, resp.StatusCode, err
			}
		}
		return probe, resp.StatusCode, nil
	}

	if arm.Warm {
		for i := 0; i < len(f.Stream); i++ {
			if _, status, err := get(i); err != nil || status != http.StatusOK {
				return res, fmt.Errorf("servebench: arm %s: warmup request %d: status %d, err %v", arm.Stage, i, status, err)
			}
		}
	}

	// floors[j] is the highest generation of tenant j whose reload has
	// completed; a response below its tenant's floor read before the request
	// started is stale. Only the reloaded tenant's floor ever moves.
	floors := make([]atomic.Uint64, nT)
	for i := range floors {
		floors[i].Store(1)
	}
	reloadIdx := 0
	reloadPath := "/v1/admin/reload"
	if nT > 1 {
		if _, err := fmt.Sscanf(reloadTenant, "t%d", &reloadIdx); err != nil || reloadIdx < 0 || reloadIdx >= nT {
			return res, fmt.Errorf("servebench: arm %s: ReloadTenant %q is not one of t0…t%d", arm.Stage, reloadTenant, nT-1)
		}
		reloadPath += "?tenant=" + reloadTenant
	}
	ctx, cancel := context.WithTimeout(context.Background(), arm.Duration)
	defer cancel()

	var reloadWG sync.WaitGroup
	var reloadErr error
	var reloads atomic.Int64
	if arm.ReloadEvery > 0 {
		reloadWG.Add(1)
		go func() {
			defer reloadWG.Done()
			tick := time.NewTicker(arm.ReloadEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				resp, err := client.Post(ts.URL+reloadPath, "application/json", nil)
				if err != nil {
					reloadErr = err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					reloadErr = fmt.Errorf("reload: status %d (%s)", resp.StatusCode, body)
					return
				}
				var rel struct {
					Generation uint64 `json:"generation"`
				}
				if err := json.Unmarshal(body, &rel); err != nil {
					reloadErr = err
					return
				}
				floors[reloadIdx].Store(rel.Generation)
				reloads.Add(1)
			}
		}()
	}

	// worker observations, merged after the window closes.
	type tally struct {
		lat                             []time.Duration
		ok, failed, rejected, stale     int64
		staleOther, failedOther         int64
		cacheHits, coalesced, evaluated int64
	}
	var next atomic.Int64
	work := func(tl *tally, i int) {
		j := tenantOf(i)
		floor := floors[j].Load()
		t0 := time.Now()
		probe, status, err := get(i)
		d := time.Since(t0)
		fail := func() {
			tl.failed++
			if nT > 1 && j != reloadIdx {
				tl.failedOther++
			}
		}
		switch {
		case err != nil:
			fail()
		case status == http.StatusOK:
			tl.ok++
			tl.lat = append(tl.lat, d)
			if probe.Generation < floor {
				tl.stale++
				if nT > 1 && j != reloadIdx {
					tl.staleOther++
				}
			}
			switch probe.Stats.Source {
			case server.ServedCache:
				tl.cacheHits++
			case server.ServedCoalesced:
				tl.coalesced++
			default:
				tl.evaluated++
			}
		case status == http.StatusTooManyRequests:
			tl.rejected++
		default:
			fail()
		}
	}

	start := time.Now()
	tallies := make([]*tally, 0, arm.Clients)
	var wg sync.WaitGroup
	if arm.TargetQPS > 0 {
		// Open loop: requests start on schedule whether or not earlier
		// ones finished — queueing shows up as latency, like production.
		interval := time.Duration(float64(time.Second) / arm.TargetQPS)
		if interval <= 0 {
			return res, fmt.Errorf("servebench: arm %s: TargetQPS %g too high", arm.Stage, arm.TargetQPS)
		}
		var mu sync.Mutex
		tick := time.NewTicker(interval)
		defer tick.Stop()
	open:
		for {
			select {
			case <-ctx.Done():
				break open
			case <-tick.C:
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var tl tally
					work(&tl, i)
					mu.Lock()
					tallies = append(tallies, &tl)
					mu.Unlock()
				}(int(next.Add(1) - 1))
			}
		}
	} else {
		// Closed loop: each client keeps exactly one request in flight.
		for c := 0; c < arm.Clients; c++ {
			tl := &tally{}
			tallies = append(tallies, tl)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					work(tl, int(next.Add(1)-1))
				}
			}()
		}
	}
	wg.Wait()
	cancel()
	reloadWG.Wait()
	res.Elapsed = time.Since(start)
	if reloadErr != nil {
		return res, fmt.Errorf("servebench: arm %s: %w", arm.Stage, reloadErr)
	}

	var lat []time.Duration
	for _, tl := range tallies {
		res.OK += tl.ok
		res.Failed += tl.failed
		res.Rejected += tl.rejected
		res.Stale += tl.stale
		res.StaleOther += tl.staleOther
		res.FailedOther += tl.failedOther
		res.CacheHits += tl.cacheHits
		res.Coalesced += tl.coalesced
		res.Evaluated += tl.evaluated
		lat = append(lat, tl.lat...)
	}
	res.Requests = res.OK + res.Failed + res.Rejected
	res.Reloads = reloads.Load()
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		var total time.Duration
		for _, d := range lat {
			total += d
		}
		res.MeanNs = int64(total) / int64(len(lat))
		res.P50Ns = int64(lat[len(lat)/2])
		res.P99Ns = int64(lat[len(lat)*99/100])
		res.QPS = float64(res.OK) / res.Elapsed.Seconds()
	}
	return res, nil
}
