package main

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cirank"
)

//go:embed golden/*.json
var goldenFiles embed.FS

// goldenFile pins one workload's inputs and expected rankings.
type goldenFile struct {
	Workload string `json:"workload"`
	fingerprint
	// Digests holds one ranking digest per query, in query order.
	Digests []string `json:"digests"`
}

var errInputsChanged = errors.New("inputs changed — needs a benchmark PR")

// loadGolden returns the expected digests of the workload after checking
// that the generated inputs are the ones the digests were recorded for.
func loadGolden(workload string, fp fingerprint) ([]string, error) {
	data, err := goldenFiles.ReadFile("golden/" + workload + ".json")
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden/%s.json: %w", workload, err)
	}
	if g.fingerprint != fp || len(g.Digests) != fp.Queries {
		return nil, fmt.Errorf("%s: %w: generated %+v, golden file has %+v", workload, errInputsChanged, fp, g.fingerprint)
	}
	return g.Digests, nil
}

// writeGolden records the rankings of the engine the session just built
// (setUp ranked every query on it) under golden/.
func (s *session) writeGolden() error {
	data, err := json.MarshalIndent(goldenFile{Workload: s.spec.name, fingerprint: s.fp, Digests: s.want}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("golden", s.spec.name+".json"), append(data, '\n'), 0o644)
}

// rankingDigest condenses a ranked answer list to a short string: each
// answer's rows in table and key order, and its score at nine significant
// digits. Which row is the root and the order the rest arrive in follow a
// graph's private node numbering, so they are not comparable between the
// engine and a hand-assembled searcher and stay out of the digest. A truncated search is marked, so that a ranking cut
// short by the expansion cap never matches a complete one.
type rankingDigest struct {
	buf  []byte
	rows []string
}

// row adds one row of the current answer.
func (d *rankingDigest) row(table, key string) {
	d.rows = append(d.rows, table+"\x00"+key)
}

// score closes the current answer.
func (d *rankingDigest) score(v float64) {
	sort.Strings(d.rows)
	for _, r := range d.rows {
		d.buf = append(d.buf, r...)
		d.buf = append(d.buf, 0)
	}
	d.rows = d.rows[:0]
	d.buf = fmt.Appendf(d.buf, "|%.9g\n", v)
}

func (d *rankingDigest) sum(truncated bool) string {
	if truncated {
		d.buf = append(d.buf, "truncated"...)
	}
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:16])
}

// opResult is one checked facade query.
type opResult struct {
	took   time.Duration
	digest string
	stats  cirank.SearchStats
	err    error
}

// searchOnce runs one query through the public facade at the benchmark's
// k, diameter and expansion cap and digests its ranking.
func searchOnce(ctx context.Context, eng *cirank.Engine, terms []string) opResult {
	t0 := time.Now()
	res, err := eng.SearchTermsContext(ctx, terms, topK, cirank.SearchOptions{Diameter: diameter, MaxExpansions: maxExpansions})
	op := opResult{took: time.Since(t0), err: err}
	if err != nil {
		return op
	}
	op.stats = res.Stats
	if res.Stats.Interrupted {
		op.err = errors.New("search interrupted")
		return op
	}
	var d rankingDigest
	for _, r := range res.Results {
		for _, row := range r.Rows {
			d.row(row.Table, row.Key)
		}
		d.score(r.Score)
	}
	op.digest = d.sum(res.Stats.Truncated)
	return op
}
