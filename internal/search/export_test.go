package search

import "cirank/internal/graph"

// WithoutFieldSource runs f with the oracle's supply fields relaxed as if
// src matched no term, then restores them. It is how the external tests ask
// what a lone source's own supply contributes to its bound.
func (o *BoundOracle) WithoutFieldSource(src graph.NodeID, f func()) {
	o.refield(src)
	f()
	o.refield(graph.InvalidNode)
}

// refield recomputes every term's field from its matchers less drop, and
// forgets the supply lists built from the old values.
func (o *BoundOracle) refield(drop graph.NodeID) {
	st := o.st
	sc, qc, m := st.sc, st.qc, st.s.m
	clear(sc.listAt)
	sc.tops = sc.tops[:0]
	for ti := range sc.fields[:min(len(sc.fields), len(qc.terms))] {
		fs := &sc.fields[ti]
		for _, u := range fs.touched {
			clear(fs.row(u))
		}
		var matchers []graph.NodeID
		for _, u := range qc.perTerm[ti] {
			if u != drop {
				matchers = append(matchers, u)
			}
		}
		fs.relax(m.Graph(), m.DampVector(), qc.gen, matchers, st.opts.Diameter > maxSupplyLevels)
	}
}
