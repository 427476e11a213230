package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"cirank"
)

// Served-from labels for the stats.source field of /v1 responses: which
// layer of the serving stack produced the answer.
const (
	// ServedEngine marks a result evaluated by the engine for this request.
	ServedEngine = "engine"
	// ServedCache marks a result returned from the generation-keyed result
	// cache without touching the engine.
	ServedCache = "cache"
	// ServedCoalesced marks a result obtained by riding another request's
	// identical in-flight evaluation.
	ServedCoalesced = "coalesced"
)

// queryOutcome is one complete query result as it flows through the serving
// stack: the engine's answer plus the generation it was computed against.
// Outcomes are immutable once created — they are shared by value between
// coalesced followers and result-cache readers.
type queryOutcome struct {
	res        cirank.SearchResult
	generation uint64
}

// apiError is a handler-level failure with its HTTP mapping and stable
// machine-readable code (the error.code field of the /v1 envelope).
type apiError struct {
	status int
	code   string
	msg    string
	// retryAfterSecs asks the response writer to attach a Retry-After
	// header with this many seconds — set on load-shedding rejections,
	// where the client's correct move is to back off and come back. On a
	// 429 the value is the rejecting tenant's own hint (see
	// tenant.retryAfterHint), so a saturated tenant's clients back off
	// harder than a tenant that merely lost a race for its last budget
	// unit. 0 means no header.
	retryAfterSecs int
}

// Error codes of the /v1 envelope; docs/api.md is the authoritative list.
const (
	codeBadRequest       = "bad_request"
	codeOverCapacity     = "over_capacity"
	codeTimeout          = "timeout"
	codeUnavailable      = "unavailable"
	codeInternal         = "internal"
	codeMethodNotAllowed = "method_not_allowed"
	codeBadSnapshot      = "bad_snapshot"
	codeBadBatch         = "bad_batch"
	codeUnknownTenant    = "unknown_tenant"
)

// errOverCapacity is the internal signal that admission rejected the query.
var errOverCapacity = errors.New("server: admission over capacity")

// queryKey canonicalizes one query into the coalescing/result-cache key.
// The leased generation leads the key: results computed against a generation
// are only reachable by requests that themselves leased exactly that one,
// which is what makes a hot reload an atomic invalidation — the new
// generation's requests form different keys. Every option that can change
// the observable response participates; terms keep their query order (the
// engine's ranking is order-stable, so "a b" and "b a" stay conservative,
// separate keys).
func queryKey(gen uint64, p searchParams) string {
	var b strings.Builder
	b.Grow(64)
	b.WriteString(strconv.FormatUint(gen, 10))
	fmt.Fprintf(&b, "\x1fk=%d\x1fd=%d\x1fx=%d\x1ft=%d",
		p.k, p.opts.Diameter, p.opts.MaxExpansions, int64(p.timeout))
	for _, t := range p.terms {
		// Length-prefixed so no term content can fake a term boundary.
		fmt.Fprintf(&b, "\x1f%d:", len(t))
		b.WriteString(t)
	}
	return b.String()
}

// resolveAndRun is the single request path shared by the GET and the batch
// handler: it resolves the query's tenant (the one owner of tenant
// resolution), takes the query through the tenant's serving stack, and
// keeps the global and per-tenant outcome counters. Handlers only differ in
// how they render the returned outcome or error.
func (s *Server) resolveAndRun(ctx context.Context, p searchParams) (*tenant, queryOutcome, string, *apiError) {
	t, apiErr := s.resolveTenant(p.tenant)
	if apiErr != nil {
		return nil, queryOutcome{}, "", apiErr
	}
	out, served, apiErr := s.runQuery(ctx, t, p)
	if apiErr != nil {
		s.countFailure(t, apiErr)
		return t, queryOutcome{}, "", apiErr
	}
	s.recordSuccess(t, out)
	return t, out, served, nil
}

// countFailure records a failed query against the global counters and —
// for load sheds — the rejecting tenant's own series.
func (s *Server) countFailure(t *tenant, e *apiError) {
	s.m.countOutcome(e)
	if t != nil && e.status == http.StatusTooManyRequests {
		t.rejected.Add(1)
	}
}

// runQuery takes one validated query through its tenant's serving stack:
//
//	lease → result cache → singleflight → cost admission → engine
//
// Cache, flight group and admission are the tenant's own: a hot reload of
// one tenant invalidates only its keys, and a posting-heavy tenant sheds
// load against its fair budget share without touching its neighbours'.
// It returns the outcome, which layer served it (ServedEngine, ServedCache
// or ServedCoalesced), and the failure mapped for the wire. ctx is the
// requesting client's context: it bounds how long this caller waits, but —
// when coalescing is on — not how long the evaluation runs, because other
// requests may be riding the same flight (the evaluation carries its own
// deadline from the query's timeout parameter).
func (s *Server) runQuery(ctx context.Context, t *tenant, p searchParams) (queryOutcome, string, *apiError) {
	// Borrow the tenant's current engine for exactly this request. The lease
	// pins the generation: the key derived from it can only ever hit results
	// computed against the engine this request actually sees.
	lease, apiErr := t.acquire()
	if apiErr != nil {
		return queryOutcome{}, "", apiErr
	}
	defer lease.Release()
	eng, gen := lease.Engine(), lease.Generation()
	key := queryKey(gen, p)

	// Result cache first: a hit costs no admission budget and no engine
	// work, which is exactly why it sits before load shedding — a saturated
	// server keeps answering its hot queries.
	if t.cache != nil {
		if out, ok := t.cache.get(key); ok {
			return out, ServedCache, nil
		}
	}

	eval := func() (queryOutcome, error) {
		// Cost-based admission, inside the flight: a thundering herd on one
		// hot query charges the budget once, through its leader.
		cost := queryCost(eng, p.terms)
		if !t.adm.tryAcquire(cost) {
			return queryOutcome{}, errOverCapacity
		}
		defer t.adm.release(cost)
		s.m.inflight.Add(1)
		defer s.m.inflight.Add(-1)

		// The evaluation context carries the query's own deadline. With
		// coalescing on it is detached from the initiating request, so a
		// leader's disconnect cannot yank the result from under followers;
		// without coalescing nobody else can be riding, and the request
		// context restores cancel-on-disconnect.
		base := context.Background()
		if !s.coalesce {
			base = ctx
		}
		ectx, cancel := context.WithTimeout(base, p.timeout)
		defer cancel()
		res, err := eng.SearchTermsContext(ectx, p.terms, p.k, p.opts)
		if err != nil {
			return queryOutcome{}, err
		}
		out := queryOutcome{res: res, generation: gen}
		// Interrupted results reflect this request's deadline racing the
		// scheduler, not the query's answer — never cache them. Truncated
		// results are deterministic for the key (the expansion cap is part
		// of it) and cache fine.
		if t.cache != nil && !res.Stats.Interrupted {
			t.cache.add(key, out)
		}
		return out, nil
	}

	var (
		out       queryOutcome
		coalesced bool
		err       error
	)
	if s.coalesce {
		out, coalesced, err = t.flight.Do(ctx, key, eval)
		if coalesced {
			s.m.coalesced.Add(1)
		} else {
			s.m.flightLeaders.Add(1)
		}
	} else {
		out, err = eval()
	}
	if err != nil {
		apiErr := mapQueryError(err)
		if apiErr.code == codeOverCapacity {
			apiErr.retryAfterSecs = t.retryAfterHint()
		}
		return queryOutcome{}, "", apiErr
	}
	served := ServedEngine
	if coalesced {
		served = ServedCoalesced
	}
	return out, served, nil
}

// mapQueryError converts an evaluation failure to its wire form.
func mapQueryError(err error) *apiError {
	switch {
	case errors.Is(err, errOverCapacity):
		return &apiError{status: http.StatusTooManyRequests, code: codeOverCapacity, msg: "server at capacity", retryAfterSecs: 1}
	case errors.Is(err, cirank.ErrDeadline), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The caller's context died before an answer existed: the client
		// disconnected, its deadline passed while waiting on a flight, or
		// the budget was consumed before the query started.
		return &apiError{status: http.StatusGatewayTimeout, code: codeTimeout, msg: err.Error()}
	case errors.Is(err, cirank.ErrBadK), errors.Is(err, cirank.ErrEmptyQuery), errors.Is(err, cirank.ErrBadOptions):
		return &apiError{status: http.StatusBadRequest, code: codeBadRequest, msg: err.Error()}
	default:
		return &apiError{status: http.StatusInternalServerError, code: codeInternal, msg: err.Error()}
	}
}
