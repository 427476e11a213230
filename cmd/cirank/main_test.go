package main

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"cirank"
	"cirank/internal/datagen"
	"cirank/internal/textindex"
)

// testEngine builds the engine `cirank -dataset dblp -scale 0.3` queries.
func testEngine(t *testing.T) *cirank.Engine {
	t.Helper()
	ds, err := datagen.Generate("dblp", 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := buildEngine(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

var (
	scoreLine = regexp.MustCompile(`^#\d+ score=(\S+)$`)
	rowLine   = regexp.MustCompile(`^   (\* |  )\[(\S+) (\S+)\] `)
)

// TestRunPrintsEngineResults checks that the query loop prints exactly what
// SearchTermsContext returns on the same engine: the scores in rank order,
// each answer's rows, and a * on exactly the rows that match a term.
func TestRunPrintsEngineResults(t *testing.T) {
	eng := testEngine(t)
	const query, k = "vaitcol totgo", 3
	s := &cli{eng: eng, k: k, opts: cirank.SearchOptions{Diameter: 4}}
	var buf bytes.Buffer
	s.run(&buf, query)

	want, err := eng.SearchTermsContext(context.Background(), textindex.Tokenize(query), k, cirank.SearchOptions{Diameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) != k {
		t.Fatalf("engine returned %d answers, want %d", len(want.Results), k)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if head := fmt.Sprintf("%d answers in ", k); !strings.HasPrefix(lines[0], head) ||
		!strings.HasSuffix(lines[0], fmt.Sprintf("(expanded %d candidates)", want.Stats.Expanded)) {
		t.Errorf("header %q, want %q… with expanded %d", lines[0], head, want.Stats.Expanded)
	}
	ans := -1
	var row int
	for _, l := range lines[1:] {
		if m := scoreLine.FindStringSubmatch(l); m != nil {
			if ans >= 0 && row != len(want.Results[ans].Rows) {
				t.Errorf("answer #%d: printed %d rows, want %d", ans+1, row, len(want.Results[ans].Rows))
			}
			ans, row = ans+1, 0
			if ans >= len(want.Results) {
				t.Fatalf("more answers printed than the engine returned:\n%s", buf.String())
			}
			if got, w := m[1], fmt.Sprintf("%.4g", want.Results[ans].Score); got != w {
				t.Errorf("answer #%d: score %s, want %s", ans+1, got, w)
			}
			continue
		}
		m := rowLine.FindStringSubmatch(l)
		if m == nil || ans < 0 || row >= len(want.Results[ans].Rows) {
			t.Fatalf("unexpected line %q in:\n%s", l, buf.String())
		}
		r := want.Results[ans].Rows[row]
		if m[2] != r.Table || m[3] != r.Key {
			t.Errorf("answer #%d row %d: [%s %s], want [%s %s]", ans+1, row, m[2], m[3], r.Table, r.Key)
		}
		if marked := m[1] == "* "; marked != r.Matched {
			t.Errorf("answer #%d row [%s %s]: marked %v, Matched %v", ans+1, r.Table, r.Key, marked, r.Matched)
		}
		row++
	}
	if ans != len(want.Results)-1 || row != len(want.Results[ans].Rows) {
		t.Errorf("printed %d answers (last with %d rows), want %d:\n%s", ans+1, row, len(want.Results), buf.String())
	}
}

// TestWriteDot checks the Graphviz rendering of an answer: one node line per
// row with only the root bold and the matching rows filled, and one edge
// line per parent–child pair.
func TestWriteDot(t *testing.T) {
	eng := testEngine(t)
	res, err := eng.SearchTermsContext(context.Background(), []string{"vaitcol", "totgo"}, 3, cirank.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Results {
		var buf bytes.Buffer
		if err := writeDot(&buf, r); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.HasPrefix(out, "graph jtt {\n") || !strings.HasSuffix(out, "}\n") {
			t.Errorf("answer %d: not a DOT graph:\n%s", i, out)
		}
		for j, row := range r.Rows {
			line := fmt.Sprintf("  n%d [label=%q", j, fmt.Sprintf("[%s %s]\n%s", row.Table, row.Key, row.Text))
			if n := strings.Count(out, line); n != 1 {
				t.Errorf("answer %d: %d node lines for row %d, want 1:\n%s", i, n, j, out)
				continue
			}
			rest, _, _ := strings.Cut(out[strings.Index(out, line)+len(line):], "\n")
			if bold := strings.Contains(rest, "penwidth=2"); bold != (j == 0) {
				t.Errorf("answer %d row %d: bold %v, want %v (root only)", i, j, bold, j == 0)
			}
			if filled := strings.Contains(rest, "fillcolor=lightyellow"); filled != row.Matched {
				t.Errorf("answer %d row %d: filled %v, Matched %v", i, j, filled, row.Matched)
			}
		}
		if n := strings.Count(out, " [label="); n != len(r.Rows) {
			t.Errorf("answer %d: %d node lines, want %d", i, n, len(r.Rows))
		}
		if n := strings.Count(out, " -- "); n != len(r.Edges) {
			t.Errorf("answer %d: %d edge lines, want %d", i, n, len(r.Edges))
		}
		for _, e := range r.Edges {
			if edge := fmt.Sprintf("  n%d -- n%d;\n", e[1], e[0]); !strings.Contains(out, edge) {
				t.Errorf("answer %d: missing edge %q:\n%s", i, edge, out)
			}
		}
	}
}

func TestCheckArgs(t *testing.T) {
	for _, tc := range []struct {
		k, diameter int
		ok          bool
	}{
		{5, 4, true},
		{1, 1, true},
		{5, 0, false},
		{5, -1, false},
		{0, 4, false},
		{-3, 4, false},
	} {
		if err := checkArgs(tc.k, tc.diameter); (err == nil) != tc.ok {
			t.Errorf("checkArgs(k=%d, diameter=%d) = %v, want ok=%v", tc.k, tc.diameter, err, tc.ok)
		}
	}
}
