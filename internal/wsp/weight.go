// Package wsp implements the unique-shortest-path machinery that the paper
// assumes as a primitive: a weight assignment W over the edges of an
// unweighted graph that breaks shortest-path ties in a consistent manner, and
// a Dijkstra search that computes the unique shortest paths under W in
// arbitrary vertex/edge-restricted subgraphs.
//
// A weight is the exact pair (hops, tie): the number of edges on the path and
// the sum of per-edge 62-bit tie-breakers. Weights compare lexicographically,
// so the first component is always the true unweighted distance — the
// perturbation only selects among equal-hop paths. By the isolation lemma the
// selected path is unique with high probability; residual ties are detectable
// (two equal-weight parents) and surface as Stats.TieWarnings in callers.
package wsp

import "math/rand"

// TieRange bounds the per-edge tie-breaker values. With ties drawn uniformly
// from [1, TieRange) and at most 2^20 edges on a path, sums stay below 2^62
// and never overflow int64.
const TieRange = int64(1) << 42

// Weight is the exact two-component path weight under the assignment W.
type Weight struct {
	Hops int32 // number of edges
	Tie  int64 // sum of per-edge tie-breakers
}

// Less reports whether w is strictly smaller than o (lexicographic).
func (w Weight) Less(o Weight) bool {
	if w.Hops != o.Hops {
		return w.Hops < o.Hops
	}
	return w.Tie < o.Tie
}

// Add returns the component-wise sum of w and o.
func (w Weight) Add(o Weight) Weight {
	return Weight{Hops: w.Hops + o.Hops, Tie: w.Tie + o.Tie}
}

// Assignment is the weight assignment W: one tie-breaker per edge ID.
// It is created once per graph and shared by every search so that all
// replacement-path computations break ties consistently (the paper's
// "weight assignment W that guarantees uniqueness").
type Assignment struct {
	tie []int64
}

// NewAssignment draws a tie-breaker for each of m edges from the given seed.
func NewAssignment(m int, seed int64) *Assignment {
	rng := rand.New(rand.NewSource(seed))
	t := make([]int64, m)
	for i := range t {
		t[i] = 1 + rng.Int63n(TieRange-1)
	}
	return &Assignment{tie: t}
}

// EdgeWeight returns the weight of a single edge.
func (a *Assignment) EdgeWeight(edgeID int) Weight {
	return Weight{Hops: 1, Tie: a.tie[edgeID]}
}
