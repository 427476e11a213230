package relational

import (
	"fmt"
	"sort"
	"strings"

	"cirank/internal/graph"
	"cirank/internal/textindex"
)

// Mapping relates the relational world to the graph world after BuildGraph:
// every tuple maps to exactly one node, and — because of entity merging —
// a node may correspond to several tuples.
type Mapping struct {
	db          *Database
	tupleToNode []graph.NodeID
	byTableKey  map[string]graph.NodeID
}

// NodeOf resolves (table, key) to the graph node holding that tuple.
func (m *Mapping) NodeOf(tableName, key string) (graph.NodeID, bool) {
	id, ok := m.byTableKey[tableName+"\x00"+key]
	return id, ok
}

// MappingEntry is one (table, key) → node pair of a Mapping. Because of
// entity merging several entries may share a node: every merged-away role
// key keeps its own entry pointing at the surviving node.
type MappingEntry struct {
	// Table is the tuple's table name.
	Table string
	// Key is the tuple's primary key within Table.
	Key string
	// Node is the graph node holding the tuple (shared after merging).
	Node graph.NodeID
}

// Entries returns every tuple mapping, sorted by (table, key) so the order
// is deterministic. Snapshots persist this complete list — the node records
// alone lose the merged-away keys, which was the documented v1 limitation.
func (m *Mapping) Entries() []MappingEntry {
	out := make([]MappingEntry, 0, len(m.byTableKey))
	for composite, id := range m.byTableKey {
		table, key, ok := strings.Cut(composite, "\x00")
		if !ok {
			continue // unreachable: every stored key is composite
		}
		out = append(out, MappingEntry{Table: table, Key: key, Node: id})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// MustNodeOf is NodeOf that panics when the tuple is unknown.
func (m *Mapping) MustNodeOf(tableName, key string) graph.NodeID {
	id, ok := m.NodeOf(tableName, key)
	if !ok {
		panic(fmt.Sprintf("relational: no node for %s/%s", tableName, key))
	}
	return id
}

// BuildGraph converts the populated database into the weighted directed data
// graph of §II-A:
//
//   - each tuple becomes a node, except that tuples sharing a non-empty
//     EntityKey are merged into a single node (§VI-A), so a person's
//     importance is not split across role tables;
//   - each relationship instance becomes two directed edges whose weights
//     come from the weight table (Table II), keyed by the relationship's
//     direction labels; parallel edges between the same node pair (e.g. a
//     person who both acts in and directs the same movie) accumulate their
//     weights, which preserves the paper's "two different edges" semantics
//     for both the random walk and the message-split fractions.
//
// defaultWeight is used for edge types missing from the table; pass 1.0
// unless the schema is fully covered.
func BuildGraph(db *Database, weights graph.WeightTable, defaultWeight float64) (*graph.Graph, *Mapping, error) {
	if defaultWeight <= 0 {
		return nil, nil, fmt.Errorf("relational: defaultWeight must be positive, got %g", defaultWeight)
	}
	b := graph.NewBuilder(len(db.tuples))
	m := &Mapping{
		db:          db,
		tupleToNode: make([]graph.NodeID, len(db.tuples)),
		byTableKey:  make(map[string]graph.NodeID, len(db.tuples)),
	}
	entity := make(map[string]graph.NodeID)
	for i := range db.tuples {
		t := &db.tuples[i]
		tableName := db.tupleTable[i]
		var id graph.NodeID
		if t.EntityKey != "" {
			if prev, ok := entity[t.EntityKey]; ok {
				id = prev
				node := b.Node(id)
				node.Text = mergeText(node.Text, t.Text)
				node.Words = textindex.WordCount(node.Text)
			} else {
				id = b.AddNode(graph.Node{
					Relation: tableName,
					Key:      t.Key,
					Text:     t.Text,
					Words:    textindex.WordCount(t.Text),
				})
				entity[t.EntityKey] = id
			}
		} else {
			id = b.AddNode(graph.Node{
				Relation: tableName,
				Key:      t.Key,
				Text:     t.Text,
				Words:    textindex.WordCount(t.Text),
			})
		}
		m.tupleToNode[i] = id
		m.byTableKey[tableName+"\x00"+t.Key] = id
	}
	// Accumulate edge weights: multiple relationship instances between the
	// same node pair (different roles, repeat links) sum. Each link is
	// recorded once, under its node pair lower ID first; a stable sort by
	// pair gathers a pair's links in link order, the order each direction
	// is summed in.
	type pairWeights struct {
		lo, hi   graph.NodeID
		up, down float64 // lo→hi and hi→lo
	}
	pairs := make([]pairWeights, 0, len(db.links))
	for _, l := range db.links {
		from, to := m.tupleToNode[l.from], m.tupleToNode[l.to]
		if from == to {
			// Both tuples merged into one entity; a self-edge carries
			// no information.
			continue
		}
		fw := weights.Weight(l.rel.fromLabel(), l.rel.toLabel(), defaultWeight)
		bw := weights.Weight(l.rel.toLabel(), l.rel.fromLabel(), defaultWeight)
		if from < to {
			pairs = append(pairs, pairWeights{from, to, fw, bw})
		} else {
			pairs = append(pairs, pairWeights{to, from, bw, fw})
		}
	}
	graph.SortByNodePair(pairs, b.NumNodes(),
		func(p *pairWeights) graph.NodeID { return p.lo },
		func(p *pairWeights) graph.NodeID { return p.hi })
	b.GrowEdges(len(pairs))
	for i := 0; i < len(pairs); {
		p := pairs[i]
		up, down := 0.0, 0.0
		for ; i < len(pairs) && pairs[i].lo == p.lo && pairs[i].hi == p.hi; i++ {
			up += pairs[i].up
			down += pairs[i].down
		}
		b.AddBiEdge(p.lo, p.hi, up, down)
	}
	return b.Build(), m, nil
}

// mergeText unions the tokens of extra into base, preserving order and
// skipping tokens base already contains. Merged entity nodes (a person named
// in both the Actor and Director tables) should not double-count their name
// words in |v|, which would distort the RWMP message-generation denominator.
func mergeText(base, extra string) string {
	have := make(map[string]bool)
	for _, tok := range textindex.Tokenize(base) {
		have[tok] = true
	}
	out := base
	for _, tok := range textindex.Tokenize(extra) {
		if !have[tok] {
			have[tok] = true
			out += " " + tok
		}
	}
	return out
}

// StarTables identifies a minimal-ish set of star tables (§V-B): tables
// whose joint removal leaves the remaining tuples disconnected. At the
// schema level this is exactly a vertex cover of the relationship graph
// where vertices are tables, computed greedily (pick the table covering the
// most uncovered relationships, repeat). For the paper's schemas this yields
// {Movie} for IMDB and {Paper} for DBLP.
//
// Self-relationships (paper citations) can only be covered by their own
// table, so such tables are always included when the relationship is used.
func StarTables(s *Schema) []string {
	uncovered := make(map[int]bool, len(s.Relationships))
	for i := range s.Relationships {
		uncovered[i] = true
	}
	var cover []string
	inCover := make(map[string]bool)
	for len(uncovered) > 0 {
		best, bestCount := "", 0
		// Deterministic scan order: schema table order.
		for _, tb := range s.Tables {
			if inCover[tb] {
				continue
			}
			count := 0
			for i := range uncovered {
				r := &s.Relationships[i]
				if r.From == tb || r.To == tb {
					count++
				}
			}
			if count > bestCount {
				best, bestCount = tb, count
			}
		}
		if bestCount == 0 {
			break // no relationships left that any table touches
		}
		cover = append(cover, best)
		inCover[best] = true
		for i := range s.Relationships {
			r := &s.Relationships[i]
			if r.From == best || r.To == best {
				delete(uncovered, i)
			}
		}
	}
	return cover
}

// StarNodeSet marks, for each graph node, whether it belongs to a star
// table. It relies on merged entity nodes keeping the relation of their
// first tuple; person-role tables are never star tables in the paper's
// schemas, so merging does not change star membership.
func StarNodeSet(g *graph.Graph, starTables []string) []bool {
	star := make(map[string]bool, len(starTables))
	for _, t := range starTables {
		star[t] = true
	}
	out := make([]bool, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		out[i] = star[g.Node(graph.NodeID(i)).Relation]
	}
	return out
}
