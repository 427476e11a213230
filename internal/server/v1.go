package server

// The versioned HTTP surface. /v1/ endpoints answer a stable JSON envelope
// — schema, generation, results, stats, and structured error{code,message}
// on failures — documented field by field in docs/api.md and pinned
// byte-for-byte by the compatibility test (compat_test.go). It is the only
// surface: the pre-v1 unversioned paths answer the mux's plain 404.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
)

// APISchema identifies the /v1 envelope format; every /v1 JSON response
// carries it in its schema field.
const APISchema = "cirank/api/v1"

// V1Stats is the per-query work report of the /v1 envelope: what the engine
// did and which serving layer produced the answer.
type V1Stats struct {
	// Expanded counts candidate trees expanded by branch-and-bound.
	Expanded int `json:"expanded"`
	// Generated counts the candidates the search created: built trees
	// after dedup, plus terminal children priced and registered without
	// being built.
	Generated int `json:"generated"`
	// Answers counts complete answers found (not just the k returned).
	Answers int `json:"answers"`
	// Truncated reports an early stop by the expansion cap; the results
	// are the best found so far.
	Truncated bool `json:"truncated"`
	// Interrupted reports an early stop by the request deadline or client
	// disconnect; the results are the best found so far.
	Interrupted bool `json:"interrupted"`
	// ElapsedMS is the query's wall-clock engine time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Source reports which layer served the result: "engine" (evaluated
	// for this request), "cache" (generation-keyed result cache) or
	// "coalesced" (rode another request's identical in-flight evaluation).
	Source string `json:"source"`
}

// V1SearchResponse is the GET /v1/search success envelope.
type V1SearchResponse struct {
	// Schema is the envelope format identifier, always APISchema.
	Schema string `json:"schema"`
	// Generation is the engine generation the result was computed against.
	Generation uint64 `json:"generation"`
	// Tenant is the resolved tenant the query ran against: the tenant
	// request parameter, or the sole tenant's name when the parameter was
	// absent.
	Tenant string `json:"tenant"`
	// Query is the raw q parameter.
	Query string `json:"query"`
	// Terms is the query's tokenization, as the engine searched it.
	Terms []string `json:"terms"`
	// K is the effective answer-count limit.
	K int `json:"k"`
	// Results are the ranked answers, best first.
	Results []Answer `json:"results"`
	// Stats reports the work the query did and which layer served it.
	Stats V1Stats `json:"stats"`
}

// V1Error is the structured error of the /v1 envelope.
type V1Error struct {
	// Code is the stable machine-readable failure class; docs/api.md lists
	// the vocabulary.
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
}

// V1ErrorResponse is the envelope of every non-200 /v1 JSON response.
type V1ErrorResponse struct {
	// Schema is the envelope format identifier, always APISchema.
	Schema string `json:"schema"`
	// Generation is the current engine generation (0 when the server is
	// shut down and no engine is being served).
	Generation uint64 `json:"generation"`
	// Error describes the failure.
	Error V1Error `json:"error"`
}

// V1HealthResponse is the GET /v1/healthz envelope.
type V1HealthResponse struct {
	// Schema is the envelope format identifier, always APISchema.
	Schema string `json:"schema"`
	// Generation counts engine swaps: 1 for the initial engine,
	// incremented by every successful reload (0 once closed).
	Generation uint64 `json:"generation"`
	// Status is "ok" while an engine is being served, "closed" after
	// Server.Close retired it.
	Status string `json:"status"`
	// Nodes is the engine data graph's node count.
	Nodes int `json:"nodes"`
	// Edges is the engine data graph's directed edge count.
	Edges int `json:"edges"`
	// Source is how the current engine's data arrived: "build", "stream"
	// or "mmap".
	Source string `json:"source"`
	// Tenants reports every probed tenant, in sorted name order: the tenant
	// the request selected, the sole tenant, or all of them on a
	// multi-tenant server probed without a tenant parameter. The top-level
	// fields summarize the same view (nodes/edges summed across the blocks,
	// the selected tenant's generation when one was selected, the
	// server-wide composite otherwise).
	Tenants []V1TenantHealth `json:"tenants,omitempty"`
}

// V1TenantHealth is one tenant's block in the /v1/healthz envelope.
type V1TenantHealth struct {
	// Name is the tenant's registry name (the tenant request parameter).
	Name string `json:"name"`
	// Generation is the tenant's generation: 1 for its initial engine,
	// bumped by one for every reload that touched it.
	Generation uint64 `json:"generation"`
	// Nodes is the tenant's data graph node count.
	Nodes int `json:"nodes"`
	// Edges is the tenant's directed edge count.
	Edges int `json:"edges"`
	// Source is how the tenant's current engine data arrived.
	Source string `json:"source"`
	// Leases is the number of requests currently borrowing the tenant's
	// engine, excluding the probe itself — an instantaneous gauge.
	Leases int64 `json:"leases"`
	// Weight is the tenant's share weight in the weighted-fair admission
	// split.
	Weight int64 `json:"weight"`
	// AdmissionBudget is the tenant's current fair share of the global
	// admission budget, in posting-entry cost units.
	AdmissionBudget int64 `json:"admission_budget"`
}

// V1ReloadResponse is the POST /v1/admin/reload success envelope.
type V1ReloadResponse struct {
	// Schema is the envelope format identifier, always APISchema.
	Schema string `json:"schema"`
	// Generation is the new engine's generation number.
	Generation uint64 `json:"generation"`
	// Tenant is the tenant the reload touched: the tenant request
	// parameter, or the sole tenant's name when the parameter was absent.
	Tenant string `json:"tenant"`
	// Status is "ok" on a successful swap.
	Status string `json:"status"`
	// Nodes is the new engine's node count.
	Nodes int `json:"nodes"`
	// Edges is the new engine's directed edge count.
	Edges int `json:"edges"`
	// Source is how the new engine's data arrived.
	Source string `json:"source"`
	// Drained reports whether the previous generation's queries finished
	// within the drain timeout; false is not a failure, the swap already
	// happened.
	Drained bool `json:"drained"`
}

// V1BatchQuery is one query of a POST /v1/search batch request. Absent
// optional fields take the server defaults, exactly like the corresponding
// GET parameters.
type V1BatchQuery struct {
	// Q is the keyword query (required).
	Q string `json:"q"`
	// Tenant selects the corpus this entry queries; entries of one batch
	// may target different tenants. Absent defaults to the sole tenant.
	Tenant string `json:"tenant,omitempty"`
	// K overrides the answer count.
	K *int `json:"k,omitempty"`
	// Diameter overrides the answer-tree diameter limit.
	Diameter *int `json:"diameter,omitempty"`
	// Timeout overrides the per-query deadline, as a Go duration string.
	Timeout string `json:"timeout,omitempty"`
	// Workers is accepted for compatibility and validated like the GET
	// parameter (a non-negative integer); it has no effect.
	Workers *int `json:"workers,omitempty"`
}

// V1BatchRequest is the POST /v1/search request body.
type V1BatchRequest struct {
	// Queries are the batched queries, answered in order.
	Queries []V1BatchQuery `json:"queries"`
}

// V1BatchResult is one entry of the batch response: either a successful
// per-query envelope or a structured error, never both.
type V1BatchResult struct {
	// Query is the entry's raw q field.
	Query string `json:"query"`
	// Tenant is the resolved tenant the entry ran against (absent on
	// per-entry errors).
	Tenant string `json:"tenant,omitempty"`
	// Terms is the query's tokenization (absent on per-entry errors).
	Terms []string `json:"terms,omitempty"`
	// K is the effective answer-count limit (absent on per-entry errors).
	K int `json:"k,omitempty"`
	// Generation is the engine generation this entry's result was computed
	// against (absent on per-entry errors).
	Generation uint64 `json:"generation,omitempty"`
	// Results are the entry's ranked answers.
	Results []Answer `json:"results,omitempty"`
	// Stats reports the entry's work (absent on per-entry errors).
	Stats *V1Stats `json:"stats,omitempty"`
	// Error describes why this entry failed while the batch as a whole
	// succeeded.
	Error *V1Error `json:"error,omitempty"`
}

// V1BatchResponse is the POST /v1/search response envelope. The HTTP status
// is 200 as long as the batch itself was well-formed; individual queries
// report their own failures in their entry's error field.
type V1BatchResponse struct {
	// Schema is the envelope format identifier, always APISchema.
	Schema string `json:"schema"`
	// Generation is the current engine generation when the response was
	// assembled; entries carry the generation they were actually computed
	// against (they can differ when a reload lands mid-batch).
	Generation uint64 `json:"generation"`
	// Results are the per-query outcomes, in request order.
	Results []V1BatchResult `json:"results"`
}

// writeV1Error writes the /v1 error envelope, attaching Retry-After on
// load-shedding rejections (with the rejecting tenant's own back-off hint
// on a 429).
func (s *Server) writeV1Error(w http.ResponseWriter, e *apiError) {
	if e.retryAfterSecs > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfterSecs))
	}
	writeJSON(w, e.status, V1ErrorResponse{
		Schema:     APISchema,
		Generation: s.generation(),
		Error:      V1Error{Code: e.code, Message: e.msg},
	})
}

// handleV1Search dispatches GET (single query) and POST (batch).
func (s *Server) handleV1Search(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.handleV1SingleSearch(w, r)
	case http.MethodPost:
		s.handleV1BatchSearch(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		s.writeV1Error(w, &apiError{status: http.StatusMethodNotAllowed, code: codeMethodNotAllowed, msg: "use GET for a single query or POST for a batch"})
	}
}

// handleV1SingleSearch runs one query through the serving stack and answers
// the documented envelope.
func (s *Server) handleV1SingleSearch(w http.ResponseWriter, r *http.Request) {
	params, errMsg := s.parseSearchParams(r)
	if errMsg != "" {
		s.m.badRequest.Add(1)
		s.writeV1Error(w, &apiError{status: http.StatusBadRequest, code: codeBadRequest, msg: errMsg})
		return
	}
	t, out, served, apiErr := s.resolveAndRun(r.Context(), params)
	if apiErr != nil {
		s.writeV1Error(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, v1SearchResponse(t.name, params, out, served))
}

// v1SearchResponse assembles the single-query success envelope.
func v1SearchResponse(tenantName string, p searchParams, out queryOutcome, served string) V1SearchResponse {
	st := out.res.Stats
	return V1SearchResponse{
		Schema:     APISchema,
		Generation: out.generation,
		Tenant:     tenantName,
		Query:      p.query,
		Terms:      p.terms,
		K:          p.k,
		Results:    wireAnswers(out.res),
		Stats: V1Stats{
			Expanded:    st.Expanded,
			Generated:   st.Generated,
			Answers:     st.Answers,
			Truncated:   st.Truncated,
			Interrupted: st.Interrupted,
			ElapsedMS:   float64(st.Elapsed.Microseconds()) / 1e3,
			Source:      served,
		},
	}
}

// maxBatchBody bounds the accepted POST /v1/search body size: generous for
// any plausible MaxBatch, small enough that a hostile client cannot park
// unbounded memory behind one request.
const maxBatchBody = 1 << 20

// handleV1BatchSearch answers a batch of queries in one round trip. Every
// entry runs through the full serving stack concurrently — coalescing and
// the result cache apply within a batch exactly as they do across requests.
func (s *Server) handleV1BatchSearch(w http.ResponseWriter, r *http.Request) {
	var req V1BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.m.badRequest.Add(1)
		s.writeV1Error(w, &apiError{status: http.StatusBadRequest, code: codeBadBatch, msg: "bad batch body: " + err.Error()})
		return
	}
	if len(req.Queries) == 0 {
		s.m.badRequest.Add(1)
		s.writeV1Error(w, &apiError{status: http.StatusBadRequest, code: codeBadBatch, msg: "empty batch: queries must hold at least one entry"})
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		s.m.badRequest.Add(1)
		s.writeV1Error(w, &apiError{status: http.StatusBadRequest, code: codeBadBatch,
			msg: fmt.Sprintf("batch of %d queries exceeds the limit %d", len(req.Queries), s.cfg.MaxBatch)})
		return
	}

	resp := V1BatchResponse{
		Schema:  APISchema,
		Results: make([]V1BatchResult, len(req.Queries)),
	}
	var wg sync.WaitGroup
	for i, q := range req.Queries {
		wg.Add(1)
		go func(i int, q V1BatchQuery) {
			defer wg.Done()
			resp.Results[i] = s.runBatchEntry(r, q)
		}(i, q)
	}
	wg.Wait()
	resp.Generation = s.generation()
	writeJSON(w, http.StatusOK, resp)
}

// runBatchEntry validates and runs one batch entry, producing its response
// slot. Entry failures are per-entry: they never fail the whole batch.
func (s *Server) runBatchEntry(r *http.Request, q V1BatchQuery) V1BatchResult {
	fields := map[string]string{"q": q.Q, "timeout": q.Timeout, "tenant": q.Tenant}
	for key, v := range map[string]*int{"k": q.K, "diameter": q.Diameter, "workers": q.Workers} {
		if v != nil {
			fields[key] = strconv.Itoa(*v)
		}
	}
	params, errMsg := s.validateParams(func(key string) string { return fields[key] })
	if errMsg != "" {
		s.m.badRequest.Add(1)
		return V1BatchResult{Query: q.Q, Error: &V1Error{Code: codeBadRequest, Message: errMsg}}
	}
	t, out, served, apiErr := s.resolveAndRun(r.Context(), params)
	if apiErr != nil {
		return V1BatchResult{Query: q.Q, Error: &V1Error{Code: apiErr.code, Message: apiErr.msg}}
	}
	env := v1SearchResponse(t.name, params, out, served)
	return V1BatchResult{
		Query:      env.Query,
		Tenant:     env.Tenant,
		Terms:      env.Terms,
		K:          env.K,
		Generation: env.Generation,
		Results:    env.Results,
		Stats:      &env.Stats,
	}
}

// handleV1Healthz answers the versioned liveness/readiness probe: one block
// per probed tenant (every tenant by default, one with ?tenant=<name>),
// each with its own generation, lease gauge and fair admission share. The
// top-level fields summarize the probed view for single-tenant compatibility.
func (s *Server) handleV1Healthz(w http.ResponseWriter, r *http.Request) {
	tenants, apiErr := s.healthTargets(r)
	if apiErr != nil {
		s.writeV1Error(w, apiErr)
		return
	}
	resp := V1HealthResponse{
		Schema:     APISchema,
		Generation: s.generation(),
		Status:     "ok",
		Tenants:    make([]V1TenantHealth, 0, len(tenants)),
	}
	for _, t := range tenants {
		lease, apiErr := t.acquire()
		if apiErr != nil {
			writeJSON(w, apiErr.status, V1HealthResponse{Schema: APISchema, Status: "closed"})
			return
		}
		eng := lease.Engine()
		th := V1TenantHealth{
			Name:            t.name,
			Generation:      lease.Generation(),
			Nodes:           eng.NumNodes(),
			Edges:           eng.NumEdges(),
			Source:          eng.BuildStats().Source,
			Weight:          t.weight,
			AdmissionBudget: t.adm.budget,
		}
		// Release before reading the lease gauge so the probe's own borrow
		// doesn't inflate it — an idle server reports 0.
		lease.Release()
		th.Leases = t.provider.Leases()
		resp.Tenants = append(resp.Tenants, th)
		resp.Nodes += th.Nodes
		resp.Edges += th.Edges
		if resp.Source == "" {
			resp.Source = th.Source
		}
	}
	if len(resp.Tenants) == 1 {
		resp.Generation = resp.Tenants[0].Generation
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleV1Reload answers the versioned hot-reload endpoint. The tenant
// parameter selects which corpus to reload (the sole tenant when absent).
func (s *Server) handleV1Reload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeV1Error(w, &apiError{status: http.StatusMethodNotAllowed, code: codeMethodNotAllowed, msg: "use POST"})
		return
	}
	t, apiErr := s.resolveTenant(r.URL.Query().Get("tenant"))
	if apiErr != nil {
		s.writeV1Error(w, apiErr)
		return
	}
	resp, apiErr := s.reload(t)
	if apiErr != nil {
		s.writeV1Error(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
