// Package pagerank computes node importance values over the data graph via
// the random walk model of §III-A (Eq. 1): p = (1−c)·Mp + c·u, where M is
// the weighted column-stochastic transition matrix, c the teleportation
// constant (the paper uses the typical 0.15) and u the teleportation vector.
//
// A uniform u yields the global importance values CI-Rank uses by default.
// A personalized u implements the paper's user-feedback biasing (§VI-A,
// §VIII): nodes clicked in labeled queries receive extra teleport mass,
// shifting importance toward them.
//
// Power iteration is the solver (the paper notes Eq. 1 can be solved "by
// iteration or Monte Carlo simulation").
package pagerank

import (
	"fmt"
	"math"

	"cirank/internal/graph"
)

// Options control the computation. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	// Teleport is the probability c of jumping to a random node at each
	// step. Must be in (0, 1).
	Teleport float64
	// Tolerance is the L1 convergence threshold between iterations.
	Tolerance float64
	// MaxIterations bounds the power iteration.
	MaxIterations int
	// Personalization, if non-nil, biases the teleport vector u: the mass
	// of u is distributed proportionally to the given per-node weights
	// over the listed nodes, mixed with a uniform component according to
	// PersonalizationMix. Used for user-feedback biasing.
	Personalization map[graph.NodeID]float64
	// PersonalizationMix is the fraction of teleport mass routed through
	// Personalization (the rest stays uniform). Ignored when
	// Personalization is nil. Must be in [0, 1].
	PersonalizationMix float64
}

// DefaultOptions returns the paper's configuration: c = 0.15, tight
// tolerance, generous iteration cap.
func DefaultOptions() Options {
	return Options{
		Teleport:      0.15,
		Tolerance:     1e-10,
		MaxIterations: 200,
	}
}

// Result holds computed importance values.
type Result struct {
	// Scores[v] is the stationary visit probability of node v. Scores sum
	// to 1 over the graph.
	Scores []float64
	// Iterations is the number of power iterations performed.
	Iterations int
	// Converged reports whether Tolerance was reached within
	// MaxIterations.
	Converged bool
}

// Compute runs power iteration on g.
func Compute(g *graph.Graph, opts Options) (*Result, error) {
	if opts.Teleport <= 0 || opts.Teleport >= 1 {
		return nil, fmt.Errorf("pagerank: teleport %g outside (0, 1)", opts.Teleport)
	}
	if opts.MaxIterations <= 0 {
		return nil, fmt.Errorf("pagerank: MaxIterations must be positive")
	}
	if opts.PersonalizationMix < 0 || opts.PersonalizationMix > 1 {
		return nil, fmt.Errorf("pagerank: PersonalizationMix %g outside [0, 1]", opts.PersonalizationMix)
	}
	n := g.NumNodes()
	if n == 0 {
		return &Result{Converged: true}, nil
	}
	u, err := teleportVector(g, opts)
	if err != nil {
		return nil, err
	}
	c := opts.Teleport
	p := make([]float64, n)
	next := make([]float64, n)
	for i := range p {
		p[i] = 1 / float64(n)
	}
	res := &Result{}
	for iter := 0; iter < opts.MaxIterations; iter++ {
		// Dangling mass: nodes without out-edges restart from u.
		dangling := 0.0
		for v := 0; v < n; v++ {
			if g.OutDegree(graph.NodeID(v)) == 0 {
				dangling += p[v]
			}
		}
		for i := range next {
			next[i] = (c + (1-c)*dangling) * u[i]
		}
		for v := 0; v < n; v++ {
			pv := p[v]
			if pv == 0 {
				continue
			}
			sum := g.OutWeightSum(graph.NodeID(v))
			if sum == 0 {
				continue
			}
			share := (1 - c) * pv / sum
			for _, e := range g.OutEdges(graph.NodeID(v)) {
				next[e.To] += share * e.Weight
			}
		}
		delta := 0.0
		for i := range p {
			delta += math.Abs(next[i] - p[i])
		}
		p, next = next, p
		res.Iterations = iter + 1
		if delta < opts.Tolerance {
			res.Converged = true
			break
		}
	}
	res.Scores = p
	return res, nil
}

// teleportVector builds u: uniform, optionally mixed with a personalization
// distribution.
func teleportVector(g *graph.Graph, opts Options) ([]float64, error) {
	n := g.NumNodes()
	u := make([]float64, n)
	uniform := 1 / float64(n)
	for i := range u {
		u[i] = uniform
	}
	if opts.Personalization == nil || opts.PersonalizationMix == 0 {
		return u, nil
	}
	total := 0.0
	for id, w := range opts.Personalization {
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("pagerank: personalization node %d out of range", id)
		}
		if w < 0 {
			return nil, fmt.Errorf("pagerank: negative personalization weight %g for node %d", w, id)
		}
		total += w
	}
	if total == 0 {
		return u, nil
	}
	mix := opts.PersonalizationMix
	for i := range u {
		u[i] *= 1 - mix
	}
	for id, w := range opts.Personalization {
		u[id] += mix * w / total
	}
	return u, nil
}
