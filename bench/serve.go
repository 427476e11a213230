package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cirank"
	"cirank/internal/server"
)

// serveClients is the closed-loop client count: callers that each wait for
// their reply, one per core of the 2-core box the bounds were set on.
const serveClients = 2

// serveWindow is a window plus what only the /v1 envelope tells a client.
type serveWindow struct {
	window
	// hitMS and missMS split the latencies by stats.source; hitMS is further
	// split by whether the request recorded spans (index 1, whose entries
	// include the time the recording took) or not (0).
	hitMS     [2][]float64
	missMS    []float64
	coalesced int
	rejected  int
	stale     int
	respBytes int64
	reloadMS  []float64
}

func (w *serveWindow) merge(o *serveWindow) {
	w.window.merge(&o.window)
	w.hitMS[0] = append(w.hitMS[0], o.hitMS[0]...)
	w.hitMS[1] = append(w.hitMS[1], o.hitMS[1]...)
	w.missMS = append(w.missMS, o.missMS...)
	w.coalesced += o.coalesced
	w.rejected += o.rejected
	w.stale += o.stale
	w.respBytes += o.respBytes
	w.reloadMS = append(w.reloadMS, o.reloadMS...)
}

// searchEnvelope is the part of the /v1/search response the harness reads.
type searchEnvelope struct {
	Generation uint64 `json:"generation"`
	Results    []struct {
		Score float64 `json:"score"`
		Rows  []struct {
			Table string `json:"table"`
			Key   string `json:"key"`
		} `json:"rows"`
	} `json:"results"`
	Stats struct {
		Source      string  `json:"source"`
		ElapsedMS   float64 `json:"elapsed_ms"`
		Truncated   bool    `json:"truncated"`
		Interrupted bool    `json:"interrupted"`
	} `json:"stats"`
}

// verdict classifies one response.
type verdict int

const (
	verdictOK verdict = iota
	// verdictRejected is a 429: deliberate load shedding, but a failed
	// operation to the client that needed the answer.
	verdictRejected
	// verdictStale is an answer from a generation older than a reload that
	// had completed before the request was sent.
	verdictStale
	verdictFailed
)

// classify checks one response against the expected ranking digest and the
// generation floor read before the request was sent.
func classify(status int, body []byte, floor uint64, want string) (searchEnvelope, verdict) {
	var env searchEnvelope
	switch {
	case status == http.StatusTooManyRequests:
		return env, verdictRejected
	case status != http.StatusOK:
		return env, verdictFailed
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Stats.Interrupted {
		return env, verdictFailed
	}
	if env.Generation < floor {
		return env, verdictStale
	}
	var d rankingDigest
	for _, r := range env.Results {
		for _, row := range r.Rows {
			d.row(row.Table, row.Key)
		}
		d.score(r.Score)
	}
	if d.sum(env.Stats.Truncated) != want {
		return env, verdictFailed
	}
	return env, verdictOK
}

// serve runs the closed-loop HTTP window: serveClients keep-alive clients
// share one Zipf-distributed request stream drawn from the seed, against an
// in-process server on a loopback listener, for o.seconds. When the
// workload refreshes, client 0 periodically rebuilds the corpus, replaces
// the served snapshot and hot-reloads it while the other client keeps
// querying. A non-nil tracer records spans for every second request.
func (s *session) serve(ctx context.Context, o options, tr *tracer) (*serveWindow, time.Duration, error) {
	eng, err := cirank.Open(s.snapshotPath)
	if err != nil {
		return nil, 0, err
	}
	srv, err := server.New(server.Config{Engine: eng, SnapshotPath: s.snapshotPath, ResultCacheSize: serveCache, MaxExpansions: maxExpansions})
	if err != nil {
		eng.Close()
		return nil, 0, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()

	paths := make([]string, len(s.queries))
	for i, q := range s.queries {
		paths[i] = fmt.Sprintf("%s/v1/search?q=%s&k=%d", base, url.QueryEscape(strings.Join(q, " ")), topK)
	}
	stream := zipfStream(o.seed, len(s.queries), streamLen)
	clients := make([]*http.Client, serveClients)
	for i := range clients {
		t := &http.Transport{MaxIdleConnsPerHost: 1}
		defer t.CloseIdleConnections()
		clients[i] = &http.Client{Transport: t}
	}

	// floor is the newest generation whose reload has completed.
	var floor atomic.Uint64
	floor.Store(1)
	request := func(c *http.Client, i int64, w *serveWindow) {
		qi := stream[i%int64(len(stream))]
		traced := 0
		if tr != nil && i%2 == 1 {
			traced = 1
		}
		minGen := floor.Load()
		t0 := time.Now()
		status, body, err := get(c, paths[qi])
		took := time.Since(t0)
		env, v := searchEnvelope{}, verdictFailed
		if err == nil {
			env, v = classify(status, body, minGen, s.want[qi])
		}
		w.add(took, v == verdictOK)
		w.respBytes += int64(len(body))
		switch v {
		case verdictRejected:
			w.rejected++
		case verdictStale:
			w.stale++
		case verdictOK:
			timed := took
			if traced == 1 {
				t1 := time.Now()
				tr.request(i, t0, took, env.Stats.Source, env.Stats.ElapsedMS)
				timed += time.Since(t1)
			}
			switch env.Stats.Source {
			case server.ServedCache:
				w.hitMS[traced] = append(w.hitMS[traced], ms(timed))
			case server.ServedCoalesced:
				w.coalesced++
			default:
				w.missMS = append(w.missMS, ms(took))
			}
		}
	}

	var next atomic.Int64
	warm := &serveWindow{}
	for next.Load() < serveWarmup {
		request(clients[0], next.Add(1)-1, warm)
	}
	if warm.failed > 0 {
		return nil, 0, fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, serveWarmup)
	}

	per := make([]*serveWindow, serveClients)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	setup := time.Since(processStart)
	start, cpu0 := time.Now(), cpuTime()
	for ci := range clients {
		per[ci] = &serveWindow{}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			w := per[ci]
			for own := 1; time.Since(start).Seconds() < o.seconds; own++ {
				request(clients[ci], next.Add(1)-1, w)
				if ci == 0 && s.spec.refreshEvery > 0 && own%s.spec.refreshEvery == 0 {
					gen, took, err := s.refreshServed(ctx, clients[ci], base)
					if err != nil {
						errs[ci] = err
						return
					}
					floor.Store(gen)
					w.reloadMS = append(w.reloadMS, ms(took))
				}
			}
		}(ci)
	}
	wg.Wait()
	total := &serveWindow{}
	total.wall, total.cpu = time.Since(start), cpuTime()-cpu0
	for _, w := range per {
		total.merge(w)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	return total, setup, nil
}

// get fetches one URL and reads the whole body.
func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// refreshServed is the write path of serve-refresh: rebuild the corpus,
// replace the served snapshot, and ask the server to hot-reload it. It
// returns the generation the reload installed and how long the reload
// request took.
func (s *session) refreshServed(ctx context.Context, c *http.Client, base string) (uint64, time.Duration, error) {
	var rt refreshTimes
	eng, err := s.buildAndSave(ctx, &rt)
	if err != nil {
		return 0, 0, err
	}
	eng.Close()
	t0 := time.Now()
	resp, err := c.Post(base+"/v1/admin/reload", "application/json", nil)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("reload: status %d: %s", resp.StatusCode, body)
	}
	var rel struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &rel); err != nil {
		return 0, 0, fmt.Errorf("reload: %w", err)
	}
	return rel.Generation, time.Since(t0), nil
}
