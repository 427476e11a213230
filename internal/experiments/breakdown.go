package experiments

import (
	"strconv"

	"cirank/internal/baseline"
	"cirank/internal/datagen"
	"cirank/internal/eval"
)

// ClassBreakdown decomposes the Fig. 8 comparison by query class on the
// DBLP synthetic workload, supporting the paper's §VI-B analysis: the
// effectiveness gap between CI-Rank and the IR-style baselines is driven by
// the queries that need free connector nodes (non-adjacent pairs and 3+
// keyword queries), while directly-connected matches are easy for everyone.
func ClassBreakdown(dblp *Bundle, cfg Config) (*Table, error) {
	setup, err := newSetup("DBLP", dblp, datagen.SyntheticConfig(cfg.QueryCount, cfg.Seed+300), cfg)
	if err != nil {
		return nil, err
	}
	m, err := dblp.DefaultModel()
	if err != nil {
		return nil, err
	}
	scorers := []baseline.Scorer{
		baseline.NewSpark(dblp.Built.G, dblp.Built.Ix),
		baseline.NewBanks(dblp.Built.G, dblp.Built.Ix),
		CIScorer(m),
	}
	classes := []datagen.Class{
		datagen.Single, datagen.AdjacentPair, datagen.NameQuery,
		datagen.NonAdjacentPair, datagen.MultiNode,
	}
	t := &Table{
		Title:  "Per-class mean reciprocal rank (DBLP synthetic workload)",
		Header: []string{"class", "queries", "SPARK", "BANKS", "CI-Rank"},
	}
	for _, class := range classes {
		var idxs []int
		for i, q := range setup.queries {
			if q.Class == class {
				idxs = append(idxs, i)
			}
		}
		if len(idxs) == 0 {
			continue
		}
		row := []string{class.String(), strconv.Itoa(len(idxs))}
		for _, sc := range scorers {
			var acc eval.Accumulator
			for _, i := range idxs {
				q := setup.queries[i]
				ranked := baseline.Rank(sc, setup.pools[i], q.Terms)
				keys := make([]string, len(ranked))
				for j, r := range ranked {
					keys[j] = r.Tree.CanonicalKey()
				}
				acc.Add(eval.ReciprocalRank(keys, q.GoldKey), 0)
			}
			row = append(row, f3(acc.MRR()))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper's analysis: CI-Rank's advantage concentrates on queries requiring free connector nodes")
	return t, nil
}
