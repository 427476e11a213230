package server

import (
	"fmt"
	"net/http"
	"regexp"
	"sync/atomic"

	"cirank"
)

// The tenant registry: one process, many named corpora. Each tenant owns an
// independently reloadable engine behind its own refcounted provider, plus
// its own slice of the serving stack — result cache,
// singleflight group and cost-based admission — so one tenant's hot reload
// or posting-heavy traffic cannot invalidate another's cache, ride its
// flights, or starve its budget. The global admission budget is divided by
// a weighted-fair policy (see Server.newTenant); request routing resolves
// the tenant exactly once, in Server.resolveTenant, for every handler.

// DefaultTenantName is the name a single-tenant Config's implicit tenant
// gets: configuring Engine without Tenants serves the corpus as the
// tenant "default", and requests without a tenant parameter resolve to the
// sole tenant either way.
const DefaultTenantName = "default"

// TenantConfig describes one named corpus of a multi-tenant Server.
type TenantConfig struct {
	// Name identifies the tenant on the wire (the tenant request parameter,
	// healthz blocks, metric labels). It must match [A-Za-z0-9][A-Za-z0-9._-]*,
	// at most 64 characters, and be unique within the server.
	Name string
	// Engine is the tenant's query-ready engine (required).
	Engine *cirank.Engine
	// SnapshotPath, when non-empty, enables hot reload for this tenant
	// (POST /v1/admin/reload?tenant=<name>).
	SnapshotPath string
	// ResultCacheSize overrides Config.ResultCacheSize for this tenant:
	// 0 inherits the server-wide setting, negative disables the tenant's
	// result cache.
	ResultCacheSize int
	// AdmissionWeight is the tenant's share weight in the weighted-fair
	// split of Config.AdmissionBudget: a tenant's budget is
	// AdmissionBudget × weight / Σweights. 0 means weight 1.
	AdmissionWeight int
}

// tenant is one registry entry: a named corpus with its own provider and
// its own slice of the serving stack.
type tenant struct {
	name         string
	snapshotPath string
	// provider hands out per-request engine leases.
	provider *Provider
	// weight is the tenant's share in the weighted-fair budget split.
	weight int64
	// flight coalesces identical in-flight queries within this tenant;
	// cache holds its complete outcomes (nil when caching is disabled);
	// adm sheds its load against the tenant's fair budget share.
	flight flightGroup
	cache  *resultCache
	adm    admission
	// Per-tenant outcome counters behind the tenant-labeled metric series.
	ok, rejected atomic.Int64
}

// acquire pins the tenant's current engine for one request.
func (t *tenant) acquire() (*Lease, *apiError) {
	l := t.provider.Acquire()
	if l == nil {
		return nil, &apiError{status: http.StatusServiceUnavailable, code: codeUnavailable, msg: "server is shut down"}
	}
	return l, nil
}

// retryAfterHint prices a 429 for this tenant: the further the tenant's
// in-flight cost is over its own budget share, the longer the advised
// back-off, clamped to [1s, 30s] — so a client of a saturated tenant backs
// off harder than a client that lost a photo-finish race for the last unit.
func (t *tenant) retryAfterHint() int {
	over := t.adm.cost.Load() / t.adm.budget
	if over < 0 {
		over = 0
	}
	if over > 29 {
		over = 29
	}
	return 1 + int(over)
}

// registry is the name → tenant map behind the Server. New builds it once
// from Config.Tenants and nothing writes it afterwards, so lookups take no
// lock.
type registry struct {
	byName map[string]*tenant
	// sorted holds the tenants in name order — the iteration order of
	// healthz blocks, metric series and the server-wide composite
	// generation. Callers must not modify it.
	sorted []*tenant
}

// get returns the named tenant, if registered.
func (r *registry) get(name string) (*tenant, bool) {
	t, ok := r.byName[name]
	return t, ok
}

// sole returns the only tenant when exactly one is registered — the
// back-compat default for requests without a tenant parameter.
func (r *registry) sole() (*tenant, bool) {
	if len(r.sorted) != 1 {
		return nil, false
	}
	return r.sorted[0], true
}

// tenantNameRe is the wire-safe tenant name shape: it appears verbatim in
// URLs, JSON and Prometheus label values, so no quoting-sensitive characters.
var tenantNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// normalizeTenant validates one tenant config against the server config and
// fills its inherited defaults, for Config.withDefaults.
func (c Config) normalizeTenant(tc TenantConfig) (TenantConfig, error) {
	if !tenantNameRe.MatchString(tc.Name) {
		return tc, fmt.Errorf("%w: bad tenant name %q: want [A-Za-z0-9][A-Za-z0-9._-]*, at most 64 characters", ErrBadConfig, tc.Name)
	}
	if tc.Engine == nil {
		return tc, fmt.Errorf("%w: tenant %q: Engine is required", ErrBadConfig, tc.Name)
	}
	if tc.AdmissionWeight < 0 {
		return tc, fmt.Errorf("%w: tenant %q: negative AdmissionWeight %d", ErrBadConfig, tc.Name, tc.AdmissionWeight)
	}
	if tc.AdmissionWeight == 0 {
		tc.AdmissionWeight = 1
	}
	if tc.ResultCacheSize == 0 {
		tc.ResultCacheSize = c.ResultCacheSize
	}
	return tc, nil
}

// newTenant assembles the registry entry for a normalized tenant config: a
// provider over its engine, its own cache/flight/admission slice. Its
// admission budget is its weighted-fair share of the global budget,
// AdmissionBudget × weight / totalWeight, at least 1.
func (s *Server) newTenant(tc TenantConfig, totalWeight int64) *tenant {
	t := &tenant{
		name:         tc.Name,
		snapshotPath: tc.SnapshotPath,
		provider:     NewProvider(tc.Engine),
		weight:       int64(tc.AdmissionWeight),
	}
	t.adm.maxConcurrent = int64(s.cfg.MaxInFlight)
	t.adm.budget = max(s.cfg.AdmissionBudget*t.weight/totalWeight, 1)
	if tc.ResultCacheSize > 0 {
		t.cache = newResultCache(tc.ResultCacheSize)
	}
	return t
}

// resolveTenant maps a request's tenant parameter to its registry entry —
// the single owner of tenant resolution, shared by every handler. An empty
// name resolves to the sole tenant (single-tenant back-compat); on a
// multi-tenant server the parameter is required, and an unknown name is a
// 404 with the typed unknown_tenant code.
func (s *Server) resolveTenant(name string) (*tenant, *apiError) {
	if name == "" {
		if t, ok := s.reg.sole(); ok {
			return t, nil
		}
		return nil, &apiError{status: http.StatusBadRequest, code: codeBadRequest,
			msg: "tenant parameter required on a multi-tenant server"}
	}
	if t, ok := s.reg.get(name); ok {
		return t, nil
	}
	return nil, &apiError{status: http.StatusNotFound, code: codeUnknownTenant,
		msg: fmt.Sprintf("unknown tenant %q", name)}
}

// generation reports the server-wide composite generation without leasing,
// for error envelopes and batch headers: the sum of the tenants' provider
// generations minus one per tenant after the first, so a fresh server starts
// at 1 and every reload of any tenant bumps it by exactly one. With a single
// tenant it is that tenant's generation unchanged.
func (s *Server) generation() uint64 {
	tenants := s.reg.sorted
	var sum uint64
	for _, t := range tenants {
		sum += t.provider.Generation()
	}
	return sum - uint64(len(tenants)-1)
}
