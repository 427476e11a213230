package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"cirank"
)

// End-to-end metric units, as BENCHMARK.json lists them.
var endToEndUnits = map[string]string{
	"p50_ms":        "ms",
	"p90_ms":        "ms",
	"qps":           "1/s",
	"cpu_ms_per_op": "ms",
	"ok_share":      "ratio",
	"refresh_s":     "s",
	"snapshot_mb":   "MB",
	"peak_rss_mb":   "MB",
	"setup_s":       "s",
}

// runEndToEnd measures the workload untraced and reports the end-to-end
// metrics.
func (s *session) runEndToEnd(ctx context.Context, o options) (result, error) {
	var (
		w     *window
		setup time.Duration
		err   error
	)
	if s.spec.serve {
		var sw *serveWindow
		if sw, setup, err = s.serve(ctx, o, nil); err == nil {
			w = &sw.window
		}
	} else {
		w, setup, err = s.search(ctx, o)
	}
	if err != nil {
		return result{}, err
	}
	rss, err := peakRSS()
	if err != nil {
		return result{}, err
	}
	attempted := len(w.latencyMS)
	correct := attempted - w.failed
	sort.Float64s(w.latencyMS)
	values := map[string]float64{
		"p50_ms":        finite(percentile(w.latencyMS, 0.50)),
		"p90_ms":        finite(percentile(w.latencyMS, 0.90)),
		"qps":           float64(correct) / w.wall.Seconds(),
		"cpu_ms_per_op": ms(w.cpu) / float64(attempted),
		"ok_share":      float64(correct) / float64(attempted),
		"refresh_s":     s.refreshMedian(func(rt refreshTimes) float64 { return rt.total.Seconds() }),
		"snapshot_mb":   float64(s.snapshotBytes) / 1e6,
		"peak_rss_mb":   float64(rss) / 1e6,
		"setup_s":       setup.Seconds(),
	}
	res := result{Correct: w.failed == 0, Attempted: attempted, Failed: w.failed, Metrics: map[string]metric{}}
	for name, unit := range endToEndUnits {
		res.Metrics[name] = metric{Value: values[name], Unit: unit}
	}
	fmt.Printf("%s: n=%d samples in a %.1f s window\n", s.spec.name, attempted, w.wall.Seconds())
	return res, nil
}

// search runs the closed-loop, single-client search window: whole passes
// over the query set, each in an order drawn from the seed, until the
// window is at least o.seconds long. Whole passes keep the sample the same
// mix of cheap and hub-heavy queries in every run, whatever its length. It
// returns the window and the set-up time that preceded it.
func (s *session) search(ctx context.Context, o options) (*window, time.Duration, error) {
	eng, err := cirank.Open(s.snapshotPath)
	if err != nil {
		return nil, 0, err
	}
	defer eng.Close()
	if err := s.warmUp(ctx, eng); err != nil {
		return nil, 0, err
	}

	w := &window{}
	rng := rand.New(rand.NewSource(o.seed))
	setup := time.Since(processStart)
	start, cpu0 := time.Now(), cpuTime()
	passes := minPasses
	if o.smoke {
		passes = 1
	}
	for pass := 0; pass < passes || time.Since(start).Seconds() < o.seconds; pass++ {
		for _, qi := range rng.Perm(len(s.queries)) {
			op := searchOnce(ctx, eng, s.queries[qi])
			w.add(op.took, op.err == nil && op.digest == s.want[qi])
		}
	}
	w.wall, w.cpu = time.Since(start), cpuTime()-cpu0
	return w, setup, nil
}

// warmUp runs the first queries unmeasured. A wrong answer here means the
// run would measure a broken engine, so it is an error, not a sample.
func (s *session) warmUp(ctx context.Context, eng *cirank.Engine) error {
	for qi := 0; qi < searchWarmup && qi < len(s.queries); qi++ {
		op := searchOnce(ctx, eng, s.queries[qi])
		if op.err != nil {
			return op.err
		}
		if op.digest != s.want[qi] {
			return fmt.Errorf("warm-up: ranking of %q differs from the expected one", strings.Join(s.queries[qi], " "))
		}
	}
	return nil
}
