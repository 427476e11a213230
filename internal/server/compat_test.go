package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cirank"
)

// The compatibility test: docs/api.md is executable documentation. Every
// example marked with an HTML comment of the form
//
//	<!-- compat: METHOD /path status=N [fences=2] [snapshot] [tenants] -->
//
// is replayed against a fresh fixture server and its response compared
// byte-for-byte with the documented body, after canonicalizing JSON field
// order and zeroing the volatile elapsed_ms timing field. fences=2 marks a
// POST whose first fenced block is the request body; "snapshot" wires
// /v1/admin/reload up; "tenants" serves the documented two-tenant registry
// (books + papers).

type compatCase struct {
	name     string
	method   string
	path     string
	status   int
	snapshot bool
	tenants  bool
	reqBody  string
	wantBody string
}

var compatMarkerRe = regexp.MustCompile(`^<!-- compat: (GET|POST) (\S+) status=(\d+)((?: \w+(?:=\d+)?)*) -->$`)

// parseCompatDoc extracts the marked cases from docs/api.md in order.
func parseCompatDoc(t *testing.T) []compatCase {
	t.Helper()
	raw, err := os.ReadFile("../../docs/api.md")
	if err != nil {
		t.Fatalf("docs/api.md unreadable: %v", err)
	}
	var cases []compatCase
	var cur *compatCase
	fencesWanted := 0
	var fence *bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if fence != nil {
			if line == "```" {
				body := fence.String()
				fence = nil
				if cur == nil {
					continue // unmarked example, prose-only
				}
				if fencesWanted == 2 && cur.reqBody == "" {
					cur.reqBody = body
					continue
				}
				cur.wantBody = body
				cases = append(cases, *cur)
				cur = nil
				continue
			}
			fence.WriteString(line)
			fence.WriteString("\n")
			continue
		}
		if m := compatMarkerRe.FindStringSubmatch(line); m != nil {
			if cur != nil {
				t.Fatalf("compat marker for %s %s has no example body", cur.method, cur.path)
			}
			status, _ := strconv.Atoi(m[3])
			c := compatCase{
				name:   fmt.Sprintf("%s %s -> %d", m[1], m[2], status),
				method: m[1], path: m[2], status: status,
			}
			fencesWanted = 1
			for _, flag := range strings.Fields(m[4]) {
				switch {
				case flag == "snapshot":
					c.snapshot = true
				case flag == "tenants":
					c.tenants = true
				case strings.HasPrefix(flag, "fences="):
					fencesWanted, _ = strconv.Atoi(strings.TrimPrefix(flag, "fences="))
				default:
					t.Fatalf("unknown compat flag %q in %q", flag, line)
				}
			}
			cur = &c
			continue
		}
		if line == "```json" {
			fence = new(bytes.Buffer)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cur != nil {
		t.Fatalf("compat marker for %s %s has no example body", cur.method, cur.path)
	}
	return cases
}

// elapsedRe matches the volatile per-query timing field, the one value a
// documented example cannot pin.
var elapsedRe = regexp.MustCompile(`"elapsed_ms":\s*[0-9.eE+-]+`)

// canonicalJSON normalizes a body for the byte comparison: elapsed_ms is
// zeroed, then the JSON is decoded and re-encoded so field order is
// canonical on both sides. Every other byte of every value must match.
func canonicalJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	norm := elapsedRe.ReplaceAll(raw, []byte(`"elapsed_ms":0`))
	var v any
	if err := json.Unmarshal(norm, &v); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// compatFixtureServer builds the documented fixture: the four-node
// bibliography, optionally served from a snapshot with reload wired up, or
// split into the documented two-tenant registry. The admission budget is pinned
// so the documented healthz admission_budget fields are machine-independent
// (the default derives from GOMAXPROCS).
func compatFixtureServer(t *testing.T, c compatCase) string {
	t.Helper()
	cfg := Config{Engine: smallEngine(t), AdmissionBudget: 4096}
	if c.snapshot {
		path := saveSnapshot(t, smallEngine(t), t.TempDir())
		opened, err := cirank.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Engine = opened
		cfg.SnapshotPath = path
	}
	if c.tenants {
		// The documented registry: the bibliography as "books", a variant
		// with three extra papers as "papers" carrying twice the weight.
		// With the snapshot flag, "books" serves from a snapshot and is the
		// reload target of the documented tenant-scoped reload.
		books := TenantConfig{Name: "books", Engine: smallEngine(t)}
		if c.snapshot {
			path := saveSnapshot(t, smallEngine(t), t.TempDir())
			opened, err := cirank.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			books.Engine = opened
			books.SnapshotPath = path
		}
		cfg.Engine = nil
		cfg.SnapshotPath = ""
		cfg.Tenants = []TenantConfig{
			books,
			{Name: "papers", Engine: ullmanVariant(t, 3), AdmissionWeight: 2},
		}
	}
	_, ts := newTestServer(t, cfg)
	return ts.URL
}

// TestAPICompat replays every documented example against the fixture
// server. A fresh server per case keeps examples independent (no cache
// warm-up bleeding between them).
func TestAPICompat(t *testing.T) {
	cases := parseCompatDoc(t)
	if len(cases) < 6 {
		t.Fatalf("only %d compat cases parsed from docs/api.md; the markers are broken", len(cases))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			url := compatFixtureServer(t, c)
			var resp *http.Response
			var err error
			switch c.method {
			case "GET":
				resp, err = http.Get(url + c.path)
			case "POST":
				var rd io.Reader
				if c.reqBody != "" {
					rd = strings.NewReader(c.reqBody)
				}
				resp, err = http.Post(url+c.path, "application/json", rd)
			}
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, c.status, raw)
			}
			got := canonicalJSON(t, raw)
			want := canonicalJSON(t, []byte(c.wantBody))
			if !bytes.Equal(got, want) {
				var pretty bytes.Buffer
				_ = json.Indent(&pretty, raw, "", "  ")
				t.Errorf("wire body diverged from docs/api.md\n--- documented (canonical)\n%s\n--- served (canonical)\n%s\n--- served (raw, for updating the doc)\n%s",
					want, got, pretty.String())
			}
		})
	}
}
