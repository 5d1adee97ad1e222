package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sched"
)

// BuildVertexExhaustive constructs a structure resilient to up to f VERTEX
// failures (the fault model of the paper's reference [10], which it
// discusses alongside edge faults): for every vertex set V' with |V'| ≤ f
// not containing the source, dist(s, v, H \ V') = dist(s, v, G \ V') for
// all surviving v. Built as the union of canonical shortest-path trees of
// G \ V' over all fault sets; supported for f ≤ 2 at Θ(n^f) tree cost.
//
// The returned structure has VertexFaults set; verify it with
// verify.VertexFTBFS rather than the edge-fault verifier.
func BuildVertexExhaustive(g *graph.Graph, s int, f int, opts *Options) (*Structure, error) {
	if s < 0 || s >= g.N() {
		return nil, fmt.Errorf("core: source %d out of range [0,%d)", s, g.N())
	}
	if f < 0 || f > 2 {
		return nil, fmt.Errorf("core: vertex-fault builder supports 0 ≤ f ≤ 2, got %d", f)
	}
	st := &Structure{G: g, Sources: []int{s}, Faults: f, VertexFaults: true}
	// Work units: fault sets over the n-1 non-source vertices.
	opts.AnnounceTotal(sched.NumFaultSets(g.N()-1, f))
	if err := unionTrees(st, opts, f, s); err != nil {
		return nil, err
	}
	return st, nil
}
