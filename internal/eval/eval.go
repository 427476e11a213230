// Package eval implements the effectiveness metrics of §VI-B: mean
// reciprocal rank against the oracle's best answer, and graded precision.
//
// The paper's relevance judgments came from five graduate students; here
// they come from the workload generator's planted ground truth (see
// DESIGN.md §3): every query carries its gold answer tree and the set of
// entity nodes a relevant answer must name. Grading follows the paper's
// rule in spirit: full credit for answers naming every intended entity,
// partial credit proportional to the fraction named.
package eval

import (
	"cirank/internal/graph"
	"cirank/internal/jtt"
)

// ReciprocalRank returns 1/rank (1-based) of the gold key within the ranked
// answer keys, or 0 if the gold answer is absent.
func ReciprocalRank(rankedKeys []string, goldKey string) float64 {
	for i, k := range rankedKeys {
		if k == goldKey {
			return 1 / float64(i+1)
		}
	}
	return 0
}

// EndpointGrade is the graded relevance of an answer: the fraction of the
// gold endpoints (the entities the query is about) the answer contains. An
// answer joining the right entities through a suboptimal connector is still
// relevant (grade 1); an answer about a different same-named entity earns
// partial or zero credit.
func EndpointGrade(t *jtt.Tree, goldEndpoints []graph.NodeID) float64 {
	if len(goldEndpoints) == 0 {
		return 0
	}
	hit := 0
	for _, v := range goldEndpoints {
		if t.Contains(v) {
			hit++
		}
	}
	return float64(hit) / float64(len(goldEndpoints))
}

// RelevanceGrade extends EndpointGrade with a structural discount: answers
// larger than the gold tree dilute the user's intent with extra nodes (the
// paper's judges preferred tight connections — the cohesiveness motivation
// of §III), so the grade is scaled by goldSize/answerSize when the answer
// is bigger. Tight same-size alternatives (e.g. the right entities through
// a different connector) keep full credit.
func RelevanceGrade(t *jtt.Tree, goldEndpoints []graph.NodeID, goldSize int) float64 {
	grade := EndpointGrade(t, goldEndpoints)
	if size := t.Size(); goldSize > 0 && size > goldSize {
		grade *= float64(goldSize) / float64(size)
	}
	return grade
}

// PrecisionAtK averages grades over the first k entries. Fewer than k
// entries are averaged over what exists; an empty list scores 0.
func PrecisionAtK(grades []float64, k int) float64 {
	if k < len(grades) {
		grades = grades[:k]
	}
	if len(grades) == 0 {
		return 0
	}
	sum := 0.0
	for _, g := range grades {
		sum += g
	}
	return sum / float64(len(grades))
}

// Accumulator aggregates per-query metrics into workload-level means.
type Accumulator struct {
	rrSum   float64
	precSum float64
	n       int
}

// Add records one query's reciprocal rank and precision.
func (a *Accumulator) Add(rr, precision float64) {
	a.rrSum += rr
	a.precSum += precision
	a.n++
}

// MRR returns the mean reciprocal rank (0 when empty).
func (a *Accumulator) MRR() float64 {
	if a.n == 0 {
		return 0
	}
	return a.rrSum / float64(a.n)
}

// Precision returns the mean precision (0 when empty).
func (a *Accumulator) Precision() float64 {
	if a.n == 0 {
		return 0
	}
	return a.precSum / float64(a.n)
}
