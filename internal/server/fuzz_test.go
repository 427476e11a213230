package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// FuzzServerSearchParams feeds arbitrary raw query strings to the /v1/search
// parameter parser and, when parsing succeeds, to the full handler. The
// parser is the trust boundary between the network and the engine: every
// accepted parameter must already respect the server's configured limits,
// because nothing downstream re-checks them. The request is built literally
// (httptest.NewRequest panics on invalid URLs, which is exactly the input
// space worth testing).
func FuzzServerSearchParams(f *testing.F) {
	eng := smallEngine(f)
	s, err := New(Config{Engine: eng})
	if err != nil {
		f.Fatal(err)
	}
	f.Add("q=tsimmis")
	f.Add("q=ullman+papers&k=3&diameter=4&timeout=2s")
	f.Add("q=ullman&workers=1000000000")
	f.Add("q=&k=0")
	f.Add("q=a&k=-1&diameter=-1&workers=-1")
	f.Add("q=ullman&diameter=0&workers=x")
	f.Add("q=a&k=101&diameter=99&timeout=10h")
	f.Add("q=%zz%00;&&k=1e9&timeout=2fortnights")
	f.Add("q=a;q=b&k=2;k=3")
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/search", RawQuery: raw}}
		p, errMsg := s.parseSearchParams(r)
		if errMsg == "" {
			if len(p.terms) == 0 {
				t.Fatalf("accepted %q with no terms", raw)
			}
			if p.k < 1 || p.k > s.cfg.MaxK {
				t.Fatalf("accepted %q with k=%d outside [1, %d]", raw, p.k, s.cfg.MaxK)
			}
			if p.opts.Diameter < 1 || p.opts.Diameter > s.cfg.MaxDiameter {
				t.Fatalf("accepted %q with diameter=%d outside [1, %d]", raw, p.opts.Diameter, s.cfg.MaxDiameter)
			}
			if p.timeout <= 0 || p.timeout > s.cfg.MaxTimeout {
				t.Fatalf("accepted %q with timeout=%v outside (0, %v]", raw, p.timeout, s.cfg.MaxTimeout)
			}
		} else if strings.ContainsAny(errMsg, "\r\n") {
			// The message is written into an HTTP error body; a newline from
			// the echoed parameter must not smuggle extra content.
			t.Fatalf("error message for %q contains newline: %q", raw, errMsg)
		}
		// The full handler must answer every request without panicking, as a
		// 200, a 400, or — when a microscopic yet valid timeout parameter
		// expires before the search starts — a 504. Never a 500.
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, r)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusGatewayTimeout:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, raw, rec.Body.String())
		}
	})
}

// TestFuzzSeedTimeout pins the clamp the fuzz invariant relies on: the
// default-config server caps any accepted timeout at MaxTimeout.
func TestFuzzSeedTimeout(t *testing.T) {
	s, err := New(Config{Engine: smallEngine(t)})
	if err != nil {
		t.Fatal(err)
	}
	r := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/search", RawQuery: "q=a&timeout=300h"}}
	p, errMsg := s.parseSearchParams(r)
	if errMsg != "" {
		t.Fatalf("unexpected reject: %s", errMsg)
	}
	if p.timeout != s.cfg.MaxTimeout {
		t.Fatalf("timeout %v not clamped to %v", p.timeout, s.cfg.MaxTimeout)
	}
	if p.timeout != 30*time.Second {
		t.Fatalf("default MaxTimeout changed: %v", p.timeout)
	}
}
