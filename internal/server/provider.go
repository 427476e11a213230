package server

import (
	"sync"
	"sync/atomic"
	"time"

	"cirank"
)

// engineHandle is one engine generation together with its reference count.
// The provider holds one reference for as long as the handle is current;
// every borrowing request holds one more. When the count falls to zero —
// which can only happen after the handle has been swapped out — the engine
// is closed (releasing a zero-copy engine's snapshot mapping) and done is
// closed so a swap can observe the drain.
type engineHandle struct {
	engine     *cirank.Engine
	generation uint64
	refs       atomic.Int64
	done       chan struct{}
}

// release drops one reference, closing the engine at zero. Only a reference
// taken while the count was positive may be released: the count reaches zero
// once per handle, so the engine and done close once.
func (h *engineHandle) release() {
	if h.refs.Add(-1) == 0 {
		_ = h.engine.Close()
		close(h.done)
	}
}

// Provider hands out reference-counted leases on a hot-swappable engine.
// It is the server's engine source: request handlers never touch a bare
// *cirank.Engine, they borrow the current one for exactly the duration of a
// request, so Swap can install a new engine atomically while queries against
// the old one drain to completion — no request ever fails because a swap
// happened mid-flight. The old engine (and, for zero-copy engines, its
// snapshot mapping) is closed only when its last borrower finishes.
type Provider struct {
	cur atomic.Pointer[engineHandle]
	// mu serializes Swap and Close; Acquire and Release stay lock-free.
	mu         sync.Mutex
	generation atomic.Uint64
}

// NewProvider wraps e as generation 1. The provider takes over e's
// lifecycle: e is closed when it is swapped out and drained, or when the
// provider itself is closed.
func NewProvider(e *cirank.Engine) *Provider {
	p := &Provider{}
	h := &engineHandle{engine: e, generation: 1, done: make(chan struct{})}
	h.refs.Store(1)
	p.generation.Store(1)
	p.cur.Store(h)
	return p
}

// Lease is a borrowed reference to one engine generation. Release must be
// called exactly once when the request is done with the engine; the engine
// stays valid — even across concurrent Swaps — until then.
type Lease struct {
	h *engineHandle
}

// Engine returns the leased engine.
func (l *Lease) Engine() *cirank.Engine { return l.h.engine }

// Generation returns the leased engine's generation number (1 for the
// initial engine, incremented by every Swap).
func (l *Lease) Generation() uint64 { return l.h.generation }

// Release returns the lease. The underlying engine is closed when the last
// lease of a swapped-out generation is released.
func (l *Lease) Release() { l.h.release() }

// Acquire borrows the current engine, or returns nil after Close. It is
// lock-free and safe for any number of concurrent callers.
func (p *Provider) Acquire() *Lease {
	for {
		h := p.cur.Load()
		if h == nil {
			return nil
		}
		if h.refs.Add(1) > 1 {
			// At least one other reference existed, so the engine cannot
			// have been closed under us; even if a concurrent Swap retired
			// h between the Load and the Add, our reference keeps the old
			// generation alive until Release — exactly the drain semantics.
			return &Lease{h: h}
		}
		// The count was zero: h was retired and its closer already ran (or
		// is running). Undo the increment without releasing — the count
		// returns to zero, and release would close h a second time — and
		// retry on the new current.
		h.refs.Add(-1)
	}
}

// Generation returns the current engine generation number.
func (p *Provider) Generation() uint64 { return p.generation.Load() }

// Leases reports how many leases are outstanding on the current engine,
// excluding the provider's own baseline reference — 0 on an idle provider,
// 0 after Close. It is a diagnostic gauge (healthz, metrics): the count is
// exact only for the instant of the load.
func (p *Provider) Leases() int64 {
	h := p.cur.Load()
	if h == nil {
		return 0
	}
	if n := h.refs.Load() - 1; n > 0 {
		return n
	}
	return 0
}

// Swap atomically installs e as the current engine and retires the previous
// one. It returns the new generation number and a wait function: calling it
// blocks until every lease on the previous engine has been released and the
// previous engine is closed, or the timeout elapses, and reports whether the
// drain completed. The swap itself is immediate — new Acquires see e before
// Swap returns — so callers may ignore the wait function entirely.
func (p *Provider) Swap(e *cirank.Engine) (uint64, func(timeout time.Duration) bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur.Load() == nil {
		// The provider was closed; retire the incoming engine instead of
		// resurrecting it. mu is held, so Close cannot race this check.
		_ = e.Close()
		closed := make(chan struct{})
		close(closed)
		return p.generation.Load(), drainWaiter(closed)
	}
	gen := p.generation.Add(1)
	h := &engineHandle{engine: e, generation: gen, done: make(chan struct{})}
	h.refs.Store(1)
	old := p.cur.Swap(h)
	old.release()
	return gen, drainWaiter(old.done)
}

// Close retires the current engine: Acquire returns nil from now on, and
// the engine is closed once its in-flight leases drain. Close is idempotent.
func (p *Provider) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if old := p.cur.Swap(nil); old != nil {
		old.release()
	}
}

// drainWaiter adapts a handle's done channel to a timeout-bounded wait.
func drainWaiter(done <-chan struct{}) func(time.Duration) bool {
	return func(timeout time.Duration) bool {
		select {
		case <-done:
			return true
		default:
		}
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-done:
			return true
		case <-t.C:
			return false
		}
	}
}
