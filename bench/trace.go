package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"cirank/internal/server"
)

// span is one timed call into a layer. Spans of one operation share a
// request number; parent is the span that caused this one (0 for a root).
// n counts the units of work the span covers when it stands for more than
// one call (index lookups, repeated scorings).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int64  `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	N       int64  `json:"n,omitempty"`
}

func (s span) duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the same code runs untraced.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent int, request int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, StartNS: int64(time.Since(t.epoch))})
	return id
}

// end closes the span, recording how many units of work it covered.
func (t *tracer) end(id int, n int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
	t.spans[id-1].N = n
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, parent int, request int64, start time.Time, d time.Duration, n int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	s0 := int64(start.Sub(t.epoch))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, StartNS: s0, EndNS: s0 + int64(d), N: n})
	return id
}

// request records one HTTP round trip as the client saw it, named after the
// layer that served it. An engine-evaluated request gets the envelope's
// elapsed_ms as a child span, so its self time is what the serving stack
// added around the engine.
func (t *tracer) request(request int64, start time.Time, took time.Duration, source string, elapsedMS float64) {
	name := "server.miss"
	switch source {
	case server.ServedCache:
		name = "server.hit"
	case server.ServedCoalesced:
		name = "server.coalesced"
	}
	id := t.add(name, 0, request, start, took, 1)
	if name == "server.miss" {
		inner := time.Duration(elapsedMS * float64(time.Millisecond))
		if inner > took {
			inner = took
		}
		t.add("server.engine", id, request, start, inner, 1)
	}
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, upTo := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, upTo), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = s.duration() - time.Duration(covered)
	}
	return self
}

// layerTotal sums, for one span name, the count, duration, self time and
// work units of the recorded spans.
type layerTotal struct {
	count int
	total time.Duration
	self  time.Duration
	n     int64
}

func (t *tracer) totals() map[string]*layerTotal {
	self := selfTimes(t.spans)
	out := make(map[string]*layerTotal)
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.count++
		lt.total += s.duration()
		lt.self += self[s.ID]
		lt.n += s.N
	}
	return out
}

// meanMS is the mean span duration in milliseconds; 0 when none recorded.
func (lt *layerTotal) meanMS() float64 {
	if lt == nil || lt.count == 0 {
		return 0
	}
	return ms(lt.total) / float64(lt.count)
}

// perUnitNS is the duration per unit of work in nanoseconds.
func (lt *layerTotal) perUnitNS() float64 {
	if lt == nil || lt.n == 0 {
		return 0
	}
	return float64(lt.total) / float64(lt.n)
}

// dump writes the spans as a JSON array.
func (t *tracer) dump(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
