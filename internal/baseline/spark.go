package baseline

import (
	"math"

	"cirank/internal/graph"
	"cirank/internal/jtt"
	"cirank/internal/textindex"
)

// Spark implements the scoring function of Luo et al. (SPARK, §II-B.1):
// score(T,Q) = score_a · score_b · score_c.
//
// score_a treats the whole tree as one virtual document:
//
//	score_a(T,Q) = Σ_{k∈T∩Q} (1 + ln(1 + ln tf_k(T))) /
//	               ((1−s) + s·dl_T/avdl_CN*(T)) · ln(idf_k)
//	tf_k(T) = Σ_{v∈T} tf_k(v),  idf_k = (N_CN*(T)+1)/df_k(CN*(T))
//
// CN*(T) is the join of the relations containing the query keywords. The
// CI-Rank paper omits its precise statistics; we approximate the joined
// relation by the multiset of relations of T's keyword nodes, with
// N_CN* = Σ N_rel, df over CN* = Σ df_rel, and avdl_CN* = Σ avdl_rel (a
// joined tuple concatenates one tuple per participating relation). The
// scorer derives these itself: N_rel and avdl_rel from the graph's node
// records (dl is graph.Node.Words), df_rel from the term's postings. These
// choices preserve the behaviour §II-B analyzes: when two trees differ only
// in a free node, only dl_T distinguishes their scores, so the tree with
// the longer text loses.
//
// score_b (completeness) uses the L^p-norm extended Boolean model over
// keyword presence, and score_c (size normalization) penalizes tree size
// mildly; both degenerate to constants across same-shape, same-coverage
// candidates, again matching the paper's analysis.
//
// Build a Spark with NewSpark, which gathers the relation statistics.
type Spark struct {
	// G is the data graph the scorer reads structure from.
	G *graph.Graph
	// Ix locates keyword matches and term statistics.
	Ix *textindex.Index
	// S is the length-normalization slope; the literature uses 0.2.
	S float64
	// P is the L^p norm of the completeness factor; SPARK uses 2.0.
	P float64
	// SizePenalty is the exponent of the size normalization factor
	// score_c = size(T)^(−SizePenalty).
	SizePenalty float64

	rels map[string]relationStats
}

// relationStats holds one relation's N_rel and the summed word count of its
// tuples.
type relationStats struct {
	tuples, words int
}

// NewSpark builds the scorer with the standard constants.
func NewSpark(g *graph.Graph, ix *textindex.Index) *Spark {
	rels := make(map[string]relationStats)
	for v := 0; v < g.NumNodes(); v++ {
		node := g.Node(graph.NodeID(v))
		rs := rels[node.Relation]
		rs.tuples++
		rs.words += node.Words
		rels[node.Relation] = rs
	}
	return &Spark{G: g, Ix: ix, S: 0.2, P: 2.0, SizePenalty: 0.5, rels: rels}
}

// relationTuples reports N_rel, the number of tuples in relation rel.
func (sp *Spark) relationTuples(rel string) int { return sp.rels[rel].tuples }

// relationAvgLen reports avdl_rel, the average word count of relation rel's
// tuples (0 for an unknown relation).
func (sp *Spark) relationAvgLen(rel string) float64 {
	rs := sp.rels[rel]
	if rs.tuples == 0 {
		return 0
	}
	return float64(rs.words) / float64(rs.tuples)
}

// df reports df_rel: the number of relation rel's tuples containing term.
func (sp *Spark) df(term, rel string) int {
	n := 0
	for _, p := range sp.Ix.Postings(term) {
		if sp.G.Node(p.Node).Relation == rel {
			n++
		}
	}
	return n
}

// Name implements Scorer.
func (sp *Spark) Name() string { return "SPARK" }

// Score implements Scorer.
func (sp *Spark) Score(t *jtt.Tree, terms []string) float64 {
	terms = dedupeTerms(terms)
	return sp.scoreA(t, terms) * sp.scoreB(t, terms) * sp.scoreC(t)
}

// keywordRelations returns the relations of t's keyword-matching nodes
// (deduplicated) — our stand-in for the relations joined by CN*(T).
func (sp *Spark) keywordRelations(t *jtt.Tree, terms []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range t.Nodes() {
		match := false
		for _, k := range terms {
			if sp.Ix.TF(v, k) > 0 {
				match = true
				break
			}
		}
		if !match {
			continue
		}
		rel := sp.G.Node(v).Relation
		if !seen[rel] {
			seen[rel] = true
			out = append(out, rel)
		}
	}
	return out
}

func (sp *Spark) scoreA(t *jtt.Tree, terms []string) float64 {
	rels := sp.keywordRelations(t, terms)
	if len(rels) == 0 {
		return 0
	}
	nCN := 0
	avdlCN := 0.0
	for _, r := range rels {
		nCN += sp.relationTuples(r)
		avdlCN += sp.relationAvgLen(r)
	}
	if avdlCN == 0 {
		return 0
	}
	dlT := 0.0
	for _, v := range t.Nodes() {
		dlT += float64(sp.G.Node(v).Words)
	}
	norm := (1 - sp.S) + sp.S*dlT/avdlCN
	score := 0.0
	for _, k := range terms {
		tfT := 0
		for _, v := range t.Nodes() {
			tfT += sp.Ix.TF(v, k)
		}
		if tfT == 0 {
			continue
		}
		dfCN := 0
		for _, r := range rels {
			dfCN += sp.df(k, r)
		}
		if dfCN == 0 {
			continue
		}
		idf := (float64(nCN) + 1) / float64(dfCN)
		score += (1 + math.Log(1+math.Log(float64(tfT)))) / norm * math.Log(idf)
	}
	return score
}

// scoreB is the completeness factor: 1 − (Σ (1−u_i)^p / l)^(1/p) with
// u_i = 1 when keyword i occurs in T. Full coverage gives 1; every missing
// keyword pulls the factor toward 0, interpolating AND/OR semantics.
func (sp *Spark) scoreB(t *jtt.Tree, terms []string) float64 {
	if len(terms) == 0 {
		return 0
	}
	sum := 0.0
	for _, k := range terms {
		u := 0.0
		for _, v := range t.Nodes() {
			if sp.Ix.TF(v, k) > 0 {
				u = 1
				break
			}
		}
		sum += math.Pow(1-u, sp.P)
	}
	return 1 - math.Pow(sum/float64(len(terms)), 1/sp.P)
}

// scoreC is the size normalization factor size(T)^(−SizePenalty).
func (sp *Spark) scoreC(t *jtt.Tree) float64 {
	return math.Pow(float64(t.Size()), -sp.SizePenalty)
}
