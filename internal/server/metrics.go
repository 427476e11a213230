package server

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// latencyBuckets are the query-latency histogram upper bounds, in seconds.
// They span the sub-millisecond cache-hit regime through the multi-second
// branch-and-bound worst case ahead of the per-request timeout.
var latencyBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// metrics holds the server's counters. Everything is atomic so the handler
// path never takes a lock; the cumulative histogram view is assembled at
// scrape time. Reads use atomic loads, so scrapes see a near-consistent
// snapshot without stopping traffic.
type metrics struct {
	// Per-outcome request counters for search queries (single and batch
	// entries alike).
	ok, badRequest, rejected, timeout, internal atomic.Int64
	// Partial-result counters: queries that returned best-so-far answers.
	interrupted, truncated atomic.Int64
	// expanded accumulates branch-and-bound expansions across queries.
	expanded atomic.Int64
	// Coalescing counters: flightLeaders ran an evaluation, coalesced rode
	// an identical in-flight one.
	flightLeaders, coalesced atomic.Int64
	// Reload counters: successful and failed reload attempts.
	reloadsOK, reloadsFailed atomic.Int64
	// inflight is the number of queries currently evaluating on the engine
	// (cache hits and coalesced followers never count).
	inflight atomic.Int64
	// Histogram state: per-bucket counts (non-cumulative; the +Inf bucket
	// is buckets[len(latencyBuckets)]), total count and sum in
	// microseconds.
	buckets  [len(latencyBuckets) + 1]atomic.Int64
	count    atomic.Int64
	sumMicro atomic.Int64
}

// countOutcome maps one failed query to its outcome counter.
func (m *metrics) countOutcome(e *apiError) {
	switch e.status {
	case http.StatusTooManyRequests:
		m.rejected.Add(1)
	case http.StatusGatewayTimeout:
		m.timeout.Add(1)
	case http.StatusBadRequest:
		m.badRequest.Add(1)
	case http.StatusInternalServerError:
		m.internal.Add(1)
	}
}

// observe records one query latency in the histogram.
func (m *metrics) observe(d time.Duration) {
	sec := d.Seconds()
	i := 0
	for i < len(latencyBuckets) && sec > latencyBuckets[i] {
		i++
	}
	m.buckets[i].Add(1)
	m.count.Add(1)
	m.sumMicro.Add(d.Microseconds())
}

// scrapeView is one consistent-enough reading of the serving-stack state
// that lives outside the metrics struct: the per-tenant result caches,
// admission slices and generations. The top-level fields are sums over the
// tenants, keeping the pre-tenant series' meanings; the tenants slice feeds
// the tenant-labeled series.
type scrapeView struct {
	generation   uint64
	resultHits   int64
	resultMisses int64
	admitted     int64
	admRejected  int64
	inflightCost int64
	tenants      []tenantScrape
}

// tenantScrape is one tenant's slice of the scrape, in sorted name order.
type tenantScrape struct {
	name         string
	generation   uint64
	leases       int64
	weight       int64
	budget       int64
	inflightCost int64
	admitted     int64
	admRejected  int64
	resultHits   int64
	resultMisses int64
	ok           int64
	rejected     int64
}

// scrape assembles the view for one /v1/metrics exposition.
func (s *Server) scrape() scrapeView {
	v := scrapeView{generation: s.generation()}
	for _, t := range s.reg.sorted {
		ts := tenantScrape{
			name:         t.name,
			generation:   t.provider.Generation(),
			leases:       t.provider.Leases(),
			weight:       t.weight,
			budget:       t.adm.budget,
			inflightCost: t.adm.cost.Load(),
			admitted:     t.adm.admitted.Load(),
			admRejected:  t.adm.rejected.Load(),
			ok:           t.ok.Load(),
			rejected:     t.rejected.Load(),
		}
		if t.cache != nil {
			ts.resultHits, ts.resultMisses = t.cache.stats()
		}
		v.admitted += ts.admitted
		v.admRejected += ts.admRejected
		v.inflightCost += ts.inflightCost
		v.resultHits += ts.resultHits
		v.resultMisses += ts.resultMisses
		v.tenants = append(v.tenants, ts)
	}
	return v
}

// writeTo emits the metrics in the Prometheus text exposition format,
// folding in the serving-stack view and the current in-flight gauge.
func (m *metrics) writeTo(w io.Writer, v scrapeView) {
	counter := func(name, help string, pairs ...any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for i := 0; i+1 < len(pairs); i += 2 {
			fmt.Fprintf(w, "%s%s %d\n", name, pairs[i], pairs[i+1])
		}
	}
	gauge := func(name, help string, val int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, val)
	}
	counter("cirank_queries_total", "Completed search queries by outcome.",
		`{status="ok"}`, m.ok.Load(),
		`{status="bad_request"}`, m.badRequest.Load(),
		`{status="rejected"}`, m.rejected.Load(),
		`{status="timeout"}`, m.timeout.Load(),
		`{status="internal_error"}`, m.internal.Load(),
	)
	counter("cirank_queries_partial_total", "Queries that returned best-so-far answers after an early stop.",
		`{reason="interrupted"}`, m.interrupted.Load(),
		`{reason="truncated"}`, m.truncated.Load(),
	)
	counter("cirank_expansions_total", "Branch-and-bound candidate expansions across all queries.",
		"", m.expanded.Load(),
	)
	counter("cirank_coalesce_total", "Singleflight outcomes: leaders evaluated, followers rode an identical in-flight query.",
		`{role="leader"}`, m.flightLeaders.Load(),
		`{role="follower"}`, m.coalesced.Load(),
	)
	counter("cirank_result_cache_total", "Generation-keyed result cache lookups by outcome.",
		`{result="hit"}`, v.resultHits,
		`{result="miss"}`, v.resultMisses,
	)
	counter("cirank_admission_total", "Cost-based admission decisions by outcome.",
		`{result="admitted"}`, v.admitted,
		`{result="rejected"}`, v.admRejected,
	)
	counter("cirank_reloads_total", "Hot-reload attempts by outcome.",
		`{status="ok"}`, m.reloadsOK.Load(),
		`{status="error"}`, m.reloadsFailed.Load(),
	)
	gauge("cirank_engine_generation", "Current engine generation (1 + successful reloads; the composite generation on a multi-tenant server).", int64(v.generation))

	// The tenant-labeled series: one set per registered tenant, in sorted
	// name order. The unlabeled series above stay the process-wide sums, so
	// pre-tenant dashboards keep reading the same totals.
	tenantCounter := func(name, help string, per func(t tenantScrape) [][2]any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, t := range v.tenants {
			for _, p := range per(t) {
				fmt.Fprintf(w, "%s{tenant=%q%s %v\n", name, t.name, p[0], p[1])
			}
		}
	}
	tenantGauge := func(name, help string, per func(t tenantScrape) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, t := range v.tenants {
			fmt.Fprintf(w, "%s{tenant=%q} %d\n", name, t.name, per(t))
		}
	}
	tenantCounter("cirank_tenant_queries_total", "Completed search queries per tenant by outcome.",
		func(t tenantScrape) [][2]any {
			return [][2]any{{`,status="ok"}`, t.ok}, {`,status="rejected"}`, t.rejected}}
		})
	tenantCounter("cirank_tenant_admission_total", "Per-tenant cost-based admission decisions by outcome.",
		func(t tenantScrape) [][2]any {
			return [][2]any{{`,result="admitted"}`, t.admitted}, {`,result="rejected"}`, t.admRejected}}
		})
	tenantCounter("cirank_tenant_result_cache_total", "Per-tenant result cache lookups by outcome.",
		func(t tenantScrape) [][2]any {
			return [][2]any{{`,result="hit"}`, t.resultHits}, {`,result="miss"}`, t.resultMisses}}
		})
	tenantGauge("cirank_tenant_generation", "Per-tenant composite engine generation.",
		func(t tenantScrape) int64 { return int64(t.generation) })
	tenantGauge("cirank_tenant_leases", "Outstanding engine leases per tenant.",
		func(t tenantScrape) int64 { return t.leases })
	tenantGauge("cirank_tenant_admission_weight", "Per-tenant share weight of the weighted-fair admission split.",
		func(t tenantScrape) int64 { return t.weight })
	tenantGauge("cirank_tenant_admission_budget", "Per-tenant fair share of the global admission budget.",
		func(t tenantScrape) int64 { return t.budget })
	tenantGauge("cirank_tenant_inflight_cost", "Per-tenant estimated cost of queries currently evaluating.",
		func(t tenantScrape) int64 { return t.inflightCost })

	gauge("cirank_inflight_queries", "Queries currently evaluating on the engine.", m.inflight.Load())
	gauge("cirank_inflight_cost", "Total estimated cost of queries currently evaluating (admission budget consumption).", v.inflightCost)
	fmt.Fprintf(w, "# HELP cirank_query_duration_seconds Engine latency of successful search queries.\n")
	fmt.Fprintf(w, "# TYPE cirank_query_duration_seconds histogram\n")
	cum := int64(0)
	for i, le := range latencyBuckets {
		cum += m.buckets[i].Load()
		fmt.Fprintf(w, "cirank_query_duration_seconds_bucket{le=\"%g\"} %d\n", le, cum)
	}
	cum += m.buckets[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "cirank_query_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "cirank_query_duration_seconds_sum %g\n", float64(m.sumMicro.Load())/1e6)
	fmt.Fprintf(w, "cirank_query_duration_seconds_count %d\n", m.count.Load())
}
