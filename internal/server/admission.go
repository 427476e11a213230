package server

import (
	"sync/atomic"

	"cirank"
)

// queryCost estimates the work a query will cause before any of it happens:
// one base unit plus the total posting-list length of its distinct terms.
// Posting-list length bounds the candidate-root set the branch-and-bound
// loop starts from, so a query for two hub terms ("the" in every title)
// costs orders of magnitude more than a selective author/title pair — and
// the admission controller can price them accordingly instead of treating
// every request as one flat semaphore slot.
func queryCost(eng *cirank.Engine, terms []string) int64 {
	cost := int64(1)
	for i, t := range terms {
		dup := false
		for _, prev := range terms[:i] {
			if prev == t {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		cost += int64(eng.TermSelectivity(t))
	}
	return cost
}

// admission is the server's cost-based load shedder. Instead of a flat
// "at most N concurrent requests" semaphore, it tracks the estimated cost of
// the queries currently evaluating and admits a new one only while the total
// stays under the configured budget — so many cheap selective queries run
// concurrently, while a handful of hub-term monsters saturate the server
// honestly. A query too expensive for the budget is still admitted when the
// server is otherwise idle (inflight == 0): rejecting it forever would turn
// the budget into a hard query-size limit, which is the timeout's job, not
// admission's.
//
// Coalescing composes with admission upstream: only singleflight leaders
// acquire cost, so a thundering herd on one hot query charges the budget
// once no matter how many requests ride along.
type admission struct {
	// budget is the maximal total estimated cost admitted at once: the
	// tenant's weighted-fair share, fixed when the tenant is built
	// (Server.newTenant).
	budget int64
	// maxConcurrent additionally caps the number of admitted evaluations
	// (0 = unlimited); it keeps floods of near-zero-cost queries from
	// swamping the scheduler when the cost budget alone would admit them.
	maxConcurrent int64
	cost          atomic.Int64
	inflight      atomic.Int64
	admitted      atomic.Int64
	rejected      atomic.Int64
}

// tryAcquire admits a query of the given estimated cost, reporting whether
// it may proceed. On admission the caller must release(cost) when the
// evaluation finishes. tryAcquire never blocks: an over-budget server sheds
// load at the edge with 429 instead of queueing unboundedly.
func (a *admission) tryAcquire(cost int64) bool {
	for {
		n := a.inflight.Load()
		if a.maxConcurrent > 0 && n >= a.maxConcurrent {
			a.rejected.Add(1)
			return false
		}
		if !a.inflight.CompareAndSwap(n, n+1) {
			continue
		}
		break
	}
	for {
		c := a.cost.Load()
		// An idle server admits any query, however expensive: the budget
		// sheds concurrent overload, it does not define a query-size limit.
		if c > 0 && c+cost > a.budget {
			a.inflight.Add(-1)
			a.rejected.Add(1)
			return false
		}
		if a.cost.CompareAndSwap(c, c+cost) {
			a.admitted.Add(1)
			return true
		}
	}
}

// release returns an admitted query's cost to the budget.
func (a *admission) release(cost int64) {
	a.cost.Add(-cost)
	a.inflight.Add(-1)
}
