// Package baseline implements the ranking methods CI-Rank is evaluated
// against in §VI: the IR-style scoring function of SPARK (§II-B.1) and the
// graph-based scoring of BANKS (§II-B.2).
//
// All scorers implement the same Scorer interface over joined tuple trees,
// so the effectiveness experiments can rank a shared candidate pool with
// each method and compare (the paper's methodology: "we implemented SPARK's
// scoring function on the database graph, as well as BANKS").
//
// Where the CI-Rank paper omits a formula "due to the limited space", the
// implementation follows the cited original papers with documented
// approximations; the behaviours the CI-Rank paper relies on for its
// analysis — SPARK penalizing longer text via dl_T, BANKS seeing only root
// and leaf weights — are reproduced exactly and covered by tests.
package baseline

import (
	"hash/fnv"
	"sort"

	"cirank/internal/jtt"
)

// Scorer ranks a joined tuple tree for a query. Higher is better.
type Scorer interface {
	// Name identifies the method in experiment output.
	Name() string
	// Score evaluates the tree for the (lowercased) query terms.
	Score(t *jtt.Tree, terms []string) float64
}

// Ranked pairs a tree with its score under some scorer.
type Ranked struct {
	// Tree is the scored candidate answer.
	Tree *jtt.Tree
	// Score is the scorer's value for Tree (higher ranks first).
	Score float64
}

// Rank scores every tree and returns them in descending score order. Ties
// are broken deterministically but pseudo-randomly (by a hash of the
// canonical key): raw key order follows node insertion order, which in
// generated datasets correlates with popularity and would silently hand
// tie-heavy scorers the right answer.
func Rank(s Scorer, trees []*jtt.Tree, terms []string) []Ranked {
	out := make([]Ranked, len(trees))
	for i, t := range trees {
		out[i] = Ranked{Tree: t, Score: s.Score(t, terms)}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		ki, kj := out[i].Tree.CanonicalKey(), out[j].Tree.CanonicalKey()
		hi, hj := keyHash(ki), keyHash(kj)
		if hi != hj {
			return hi < hj
		}
		return ki < kj
	})
	return out
}

// keyHash is FNV-1a over the canonical key.
func keyHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// dedupeTerms lowercases and dedupes query terms preserving order. Terms
// are expected pre-lowercased by the search layer but scorers are usable
// standalone.
func dedupeTerms(terms []string) []string {
	seen := make(map[string]bool, len(terms))
	out := terms[:0:0]
	for _, t := range terms {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
