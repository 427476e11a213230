package pathindex

import (
	"context"
	"fmt"

	"cirank/internal/graph"
)

// StarIndex stores DS/LS only between star nodes (§V-B), reducing space
// from |V|² to |S|² at the cost of approximate (but still one-sided)
// answers for non-star nodes.
//
// Soundness rests on the star-table property: the star tables form a
// vertex cover of the schema's relationships, so every edge has at least
// one star endpoint and every neighbour of a non-star node is a star node.
// Any path leaving a non-star node therefore passes immediately through one
// of its star neighbours, which is what cases 2 and 3 expand over.
type StarIndex struct {
	g        *graph.Graph
	damp     []float64
	maxDepth int
	isStar   []bool
	// starIdx maps a node to its compact star ordinal, or -1.
	starIdx []int32
	numStar int
	dist    []uint8   // numStar × numStar
	ret     []float64 // numStar × numStar
	far     float64
}

// BuildStar builds the star index. isStar marks the nodes of the star
// tables (see relational.StarNodeSet); it must be a table-level vertex
// cover — every graph edge needs at least one star endpoint — which
// BuildStar verifies. The build fans out across one worker per CPU; use
// BuildStarContext to pick the fan-out or to make the build cancellable.
func BuildStar(g *graph.Graph, damp []float64, isStar []bool, maxDepth int) (*StarIndex, error) {
	return BuildStarContext(context.Background(), g, damp, isStar, maxDepth, 0)
}

// BuildStarContext is BuildStar with explicit cancellation and fan-out.
// Workers follows the search.Options.Workers convention: 0 means one worker
// per available CPU, 1 forces the sequential build. The produced index is
// byte-identical for every worker count; a cancelled ctx aborts the build
// with an error wrapping ctx.Err().
func BuildStarContext(ctx context.Context, g *graph.Graph, damp []float64, isStar []bool, maxDepth, workers int) (*StarIndex, error) {
	if maxDepth < 1 || maxDepth > maxUint8Depth {
		return nil, fmt.Errorf("pathindex: maxDepth %d outside [1, %d]", maxDepth, maxUint8Depth)
	}
	if len(damp) != g.NumNodes() || len(isStar) != g.NumNodes() {
		return nil, fmt.Errorf("pathindex: damp/isStar length mismatch with %d nodes", g.NumNodes())
	}
	ix := &StarIndex{
		g:        g,
		damp:     damp,
		maxDepth: maxDepth,
		isStar:   isStar,
		starIdx:  make([]int32, g.NumNodes()),
		far:      farRetention(damp, maxDepth),
	}
	var starNodes []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		if isStar[v] {
			ix.starIdx[v] = int32(ix.numStar)
			ix.numStar++
			starNodes = append(starNodes, graph.NodeID(v))
		} else {
			ix.starIdx[v] = -1
			for _, e := range g.OutEdges(graph.NodeID(v)) {
				if !isStar[e.To] {
					return nil, fmt.Errorf("pathindex: edge %d→%d has no star endpoint; star tables must cover every relationship", v, e.To)
				}
			}
		}
	}
	ix.dist = make([]uint8, ix.numStar*ix.numStar)
	ix.ret = make([]float64, ix.numStar*ix.numStar)
	for i := range ix.dist {
		ix.dist[i] = uint8(maxDepth + 1)
		ix.ret[i] = ix.far
	}
	err := forEachSource(ctx, g, damp, maxDepth, workers, len(starNodes),
		func(i int) graph.NodeID { return starNodes[i] },
		func(s *bfsScratch, src graph.NodeID) {
			row := int(ix.starIdx[src]) * ix.numStar
			for _, v := range s.touched {
				sj := ix.starIdx[v]
				if sj < 0 {
					continue
				}
				ix.dist[row+int(sj)] = uint8(s.dist[v])
				ix.ret[row+int(sj)] = s.ret[v]
			}
		})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// MemStats reports the table footprint: |S|² entries of one distance byte
// and one retention float each, plus the per-node star-ordinal, flag and
// dampening arrays the non-star lookup cases need.
func (ix *StarIndex) MemStats() MemStats {
	return MemStats{
		Entries: ix.numStar * ix.numStar,
		Bytes: int64(len(ix.dist)) + 8*int64(len(ix.ret)) +
			4*int64(len(ix.starIdx)) + int64(len(ix.isStar)) + 8*int64(len(ix.damp)),
	}
}

// starDist reads the star×star distance table.
func (ix *StarIndex) starDist(si, sj int32) int {
	return int(ix.dist[int(si)*ix.numStar+int(sj)])
}

func (ix *StarIndex) starRet(si, sj int32) float64 {
	return ix.ret[int(si)*ix.numStar+int(sj)]
}

// DistanceLB implements Index using the three lookup cases of §V-B.
func (ix *StarIndex) DistanceLB(u, v graph.NodeID) int {
	if u == v {
		return 0
	}
	su, sv := ix.starIdx[u], ix.starIdx[v]
	switch {
	case su >= 0 && sv >= 0: // case 1: both star
		return ix.starDist(su, sv)
	case su >= 0: // case 2: star + non-star
		return ix.viaNeighbors(v, func(h graph.NodeID) int { return ix.starDist(su, ix.starIdx[h]) })
	case sv >= 0: // case 2 mirrored
		return ix.viaNeighbors(u, func(h graph.NodeID) int { return ix.starDist(ix.starIdx[h], sv) })
	default: // case 3: both non-star
		return ix.viaNeighbors(u, func(h graph.NodeID) int {
			return ix.viaNeighbors(v, func(h2 graph.NodeID) int {
				return ix.starDist(ix.starIdx[h], ix.starIdx[h2])
			})
		})
	}
}

// viaNeighbors computes 1 + min over the (all-star) neighbours h of the
// non-star node nf of inner(h). Because the first hop of any path from nf
// goes to some neighbour, this is a valid lower bound (and exact when the
// inner values are exact). A non-star node with no neighbours is
// unreachable: return the horizon bound.
func (ix *StarIndex) viaNeighbors(nf graph.NodeID, inner func(h graph.NodeID) int) int {
	best := ix.maxDepth + 1
	found := false
	for _, e := range ix.g.OutEdges(nf) {
		if d := inner(e.To); !found || d < best {
			best, found = d, true
		}
	}
	if !found {
		return ix.maxDepth + 1
	}
	if best >= ix.maxDepth+1 {
		// Beyond the horizon the +1 hop must not overstate the bound.
		return ix.maxDepth + 1
	}
	return best + 1
}

// RetentionUB implements Index using the same case analysis. For a non-star
// endpoint, messages pass through one of its star neighbours h, which acts
// as an intermediate node and dampens by damp[h]. Adjacent endpoints are
// special-cased first: a direct edge has no intermediate nodes, so its
// retention is exactly 1 and any neighbour expansion would understate the
// bound.
func (ix *StarIndex) RetentionUB(u, v graph.NodeID) float64 {
	if u == v {
		return 1
	}
	if ix.g.HasEdge(u, v) {
		return 1
	}
	su, sv := ix.starIdx[u], ix.starIdx[v]
	switch {
	case su >= 0 && sv >= 0: // case 1
		return ix.starRet(su, sv)
	case su >= 0: // case 2: u star, v non-star, not adjacent
		return ix.retViaNeighbors(v, func(h graph.NodeID) float64 { return ix.starRet(su, ix.starIdx[h]) })
	case sv >= 0: // case 2 mirrored
		return ix.retViaNeighbors(u, func(h graph.NodeID) float64 { return ix.starRet(ix.starIdx[h], sv) })
	default: // case 3: both non-star
		best := 0.0
		for _, e := range ix.g.OutEdges(u) {
			h := e.To
			var r float64
			if ix.g.HasEdge(h, v) {
				// u → h → v: single intermediate h.
				r = ix.damp[h]
			} else {
				r = ix.damp[h] * ix.retViaNeighbors(v, func(h2 graph.NodeID) float64 {
					return ix.starRet(ix.starIdx[h], ix.starIdx[h2])
				})
			}
			if r > best {
				best = r
			}
		}
		if best == 0 {
			return ix.far
		}
		return best
	}
}

// retViaNeighbors computes max over star neighbours h of nf of
// damp[h]·inner(h): any path from nf to the other endpoint enters the rest
// of the graph through some h, where it is dampened once, then follows an
// h→… path whose retention inner(h) bounds. The caller must have excluded
// the adjacent case, where the other endpoint itself is a neighbour and no
// dampening would apply.
func (ix *StarIndex) retViaNeighbors(nf graph.NodeID, inner func(h graph.NodeID) float64) float64 {
	best := 0.0
	found := false
	for _, e := range ix.g.OutEdges(nf) {
		r := ix.damp[e.To] * inner(e.To)
		if r > best {
			best, found = r, true
		}
	}
	if !found {
		return ix.far
	}
	return best
}
