package relational

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cirank/internal/graph"
)

// mapAccumulatedCSR is the edge accumulation BuildGraph replaced, kept as
// the reference its sort must match bit for bit: every link adds its two
// weights to a map keyed by directed node pair, in link order, and each
// node's out-list is that map's entries sorted by destination and summed in
// that order.
func mapAccumulatedCSR(db *Database, m *Mapping, weights graph.WeightTable, defaultWeight float64) (offsets []int32, flat []graph.HalfEdge, outSum []float64) {
	type pair struct{ from, to graph.NodeID }
	acc := make(map[pair]float64)
	for _, l := range db.links {
		from, to := m.tupleToNode[l.from], m.tupleToNode[l.to]
		if from == to {
			continue
		}
		acc[pair{from, to}] += weights.Weight(l.rel.fromLabel(), l.rel.toLabel(), defaultWeight)
		acc[pair{to, from}] += weights.Weight(l.rel.toLabel(), l.rel.fromLabel(), defaultWeight)
	}
	n := 0
	for _, id := range m.tupleToNode {
		n = max(n, int(id)+1)
	}
	out := make([][]graph.HalfEdge, n)
	for p, w := range acc {
		out[p.from] = append(out[p.from], graph.HalfEdge{To: p.to, Weight: w})
	}
	offsets = make([]int32, n+1)
	outSum = make([]float64, n)
	for i, list := range out {
		sort.Slice(list, func(x, y int) bool { return list[x].To < list[y].To })
		for _, e := range list {
			outSum[i] += e.Weight
		}
		flat = append(flat, list...)
		offsets[i+1] = int32(len(flat))
	}
	return offsets, flat, outSum
}

// randomDatabase fills a schema that has two relationships between P and Q
// (one each way), a self-relationship on P and a third table R. Tuples of P
// and Q share entity keys from a small pool, so some merge and their links
// become self-links; links repeat in both directions.
func randomDatabase(t *testing.T, rng *rand.Rand) *Database {
	t.Helper()
	db, err := NewDatabase(&Schema{
		Tables: []string{"P", "Q", "R"},
		Relationships: []Relationship{
			{Name: "pq", From: "P", To: "Q"},
			{Name: "qp", From: "Q", To: "P"},
			{Name: "pp", From: "P", To: "P", FromType: "P:citing", ToType: "P:cited"},
			{Name: "pr", From: "P", To: "R"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{"P": 1 + rng.Intn(8), "Q": 1 + rng.Intn(8), "R": 1 + rng.Intn(4)}
	entities := 1 + rng.Intn(4)
	for _, table := range []string{"P", "Q", "R"} {
		for i := 0; i < sizes[table]; i++ {
			tup := Tuple{Key: fmt.Sprint(i), Text: fmt.Sprintf("%s word%d", table, rng.Intn(5))}
			if table != "R" && rng.Intn(2) == 0 {
				tup.EntityKey = fmt.Sprint("e", rng.Intn(entities))
			}
			db.MustInsert(table, tup)
		}
	}
	rels := db.schema.Relationships
	for i := rng.Intn(40); i > 0; i-- {
		r := rels[rng.Intn(len(rels))]
		from, to := fmt.Sprint(rng.Intn(sizes[r.From])), fmt.Sprint(rng.Intn(sizes[r.To]))
		if r.From == r.To && from == to {
			continue
		}
		db.MustRelate(r.Name, from, to)
	}
	return db
}

func TestBuildGraphMatchesMapAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Non-dyadic weights, so a sum taken in any order but link order
	// shows in the last bits; P:cited→P:citing and R→P are left to the
	// default weight.
	weights := graph.WeightTable{
		{From: "P", To: "Q"}:              0.3,
		{From: "Q", To: "P"}:              0.7,
		{From: "P:citing", To: "P:cited"}: 0.1,
		{From: "P", To: "R"}:              1.0 / 3,
	}
	for trial := 0; trial < 300; trial++ {
		db := randomDatabase(t, rng)
		g, m, err := BuildGraph(db, weights, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		offsets, flat, outSum := g.CSR()
		wantOff, wantFlat, wantSum := mapAccumulatedCSR(db, m, weights, 0.9)
		if !reflect.DeepEqual(offsets, wantOff) {
			t.Fatalf("trial %d: offsets %v, reference %v", trial, offsets, wantOff)
		}
		if len(flat) != len(wantFlat) {
			t.Fatalf("trial %d: %d edges, reference %d", trial, len(flat), len(wantFlat))
		}
		for k := range flat {
			if flat[k].To != wantFlat[k].To || math.Float64bits(flat[k].Weight) != math.Float64bits(wantFlat[k].Weight) {
				t.Fatalf("trial %d: edge %d = %v, reference %v", trial, k, flat[k], wantFlat[k])
			}
		}
		for i := range outSum {
			if math.Float64bits(outSum[i]) != math.Float64bits(wantSum[i]) {
				t.Fatalf("trial %d: outSum[%d] = %v, reference %v", trial, i, outSum[i], wantSum[i])
			}
		}
	}
}
