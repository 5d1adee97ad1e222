// Package graph provides the undirected simple graph substrate used by every
// other package in this repository.
//
// The package is split into a mutable Builder (AddEdge with validation and
// duplicate detection) and an immutable Graph in compressed-sparse-row form,
// produced by Builder.Freeze. Vertices are dense integers in [0, N). Every
// edge has a stable integer ID in [0, M) assigned in insertion order; all
// higher-level machinery (fault sets, structures, weight assignments) refers
// to edges by ID. Iteration order over neighbors is insertion order and
// therefore deterministic, which the canonical shortest-path machinery
// relies on.
//
// All iteration goes through Arcs (a direct slice of a frozen flat arc
// array) or ArcData (the raw offset/arc arrays for scan loops):
//
//	for _, a := range g.Arcs(v) {
//	    ... a.To, a.ID ...
//	}
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Edge is an undirected edge given by its two endpoints. Edges are stored
// normalized with U < V; Normalize returns the normalized form.
type Edge struct {
	U, V int
}

// Normalize returns e with endpoints ordered so that U < V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Other returns the endpoint of e that is not w. It returns -1 when w is not
// an endpoint of e.
func (e Edge) Other(w int) int {
	switch w {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		return -1
	}
}

// String implements fmt.Stringer.
func (e Edge) String() string {
	return fmt.Sprintf("(%d,%d)", e.U, e.V)
}

// Arc is one direction of an edge inside the frozen adjacency array: the
// neighbor it leads to and the ID of the undirected edge it belongs to.
type Arc struct {
	To int32 // neighbor vertex
	ID int32 // edge ID
}

// Graph is an immutable undirected simple graph with stable edge IDs, laid
// out in compressed-sparse-row form: one flat arc array indexed by per-vertex
// offset spans, so traversals walk contiguous memory. Construct one with
// Builder.Freeze (or Subgraph on an existing graph).
//
// The zero value is an empty graph on zero vertices. A Graph is safe for
// concurrent use.
type Graph struct {
	n      int
	edges  []Edge  // edge ID -> endpoints (normalized)
	arcOff []int32 // len n+1; arcs of v are arcs[arcOff[v]:arcOff[v+1]]
	arcs   []Arc   // len 2M, per-vertex spans in insertion order
	arcTo  []int32 // len 2M; arcTo[i] == arcs[i].To (dense scan stream)
	sorted []Arc   // len 2M, per-vertex spans sorted by To (for EdgeID)
}

// freeze builds the CSR representation from a finished edge list. The edge
// list must be simple (normalized endpoints in range, no duplicates); the
// Builder and Subgraph guarantee this. The Graph takes ownership of edges.
func freeze(n int, edges []Edge) *Graph {
	g := &Graph{
		n:      n,
		edges:  edges,
		arcOff: make([]int32, n+1),
		arcs:   make([]Arc, 2*len(edges)),
	}
	for _, e := range edges {
		g.arcOff[e.U+1]++
		g.arcOff[e.V+1]++
	}
	for v := 0; v < n; v++ {
		g.arcOff[v+1] += g.arcOff[v]
	}
	// Filling in edge-ID order makes every per-vertex span insertion-ordered,
	// exactly the order repeated AddEdge appends produced.
	cur := make([]int32, n)
	copy(cur, g.arcOff[:n])
	for id, e := range edges {
		g.arcs[cur[e.U]] = Arc{To: int32(e.V), ID: int32(id)}
		cur[e.U]++
		g.arcs[cur[e.V]] = Arc{To: int32(e.U), ID: int32(id)}
		cur[e.V]++
	}
	g.sorted = make([]Arc, len(g.arcs))
	copy(g.sorted, g.arcs)
	for v := 0; v < n; v++ {
		span := g.sorted[g.arcOff[v]:g.arcOff[v+1]]
		slices.SortFunc(span, func(a, b Arc) int { return int(a.To) - int(b.To) })
	}
	g.arcTo = buildArcTo(g.arcs)
	return g
}

// buildArcTo derives the dense neighbor array from the arc array: the
// edge-ID-free stream scan loops read when they do not consult per-arc IDs,
// at half the sequential bandwidth of []Arc.
func buildArcTo(arcs []Arc) []int32 {
	to := make([]int32, len(arcs))
	for i, a := range arcs {
		to[i] = a.To
	}
	return to
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Arcs returns the arcs incident to v in insertion order, as a direct view
// of the frozen adjacency array. This is the hot-path iteration primitive;
// callers must not modify the returned slice.
func (g *Graph) Arcs(v int) []Arc {
	return g.arcs[g.arcOff[v]:g.arcOff[v+1]]
}

// ArcData returns the raw CSR arrays: off has length N+1 and the arcs of
// vertex v are arcs[off[v]:off[v+1]], in insertion order. Scan loops that
// run per dequeued vertex (BFS, Dijkstra) use this to hoist the two slice
// headers out of their hot loop; callers must not mutate either slice.
func (g *Graph) ArcData() (off []int32, arcs []Arc) {
	return g.arcOff, g.arcs
}

// ArcHeads returns the CSR offsets paired with the dense neighbor array:
// to[i] == arcs[i].To for the arcs of ArcData. Scan loops that never touch
// edge IDs (the unmasked BFS sweep) read this 4-byte stream instead of the
// 8-byte []Arc one; callers must not mutate either slice.
func (g *Graph) ArcHeads() (off []int32, to []int32) {
	return g.arcOff, g.arcTo
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int {
	return int(g.arcOff[v+1] - g.arcOff[v])
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.EdgeID(u, v)
	return ok
}

// EdgeID returns the ID of edge {u, v} and whether it exists. The lookup is
// a binary search over the sorted arc span of the lower-degree endpoint.
func (g *Graph) EdgeID(u, v int) (int, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return -1, false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	span := g.sorted[g.arcOff[u]:g.arcOff[u+1]]
	w := int32(v)
	lo, hi := 0, len(span)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if span[mid].To < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(span) && span[lo].To == w {
		return int(span[lo].ID), true
	}
	return -1, false
}

// EdgeAt returns the endpoints of the edge with the given ID.
func (g *Graph) EdgeAt(id int) Edge { return g.edges[id] }

// Neighbors returns a fresh slice of the neighbors of v in insertion order.
func (g *Graph) Neighbors(v int) []int {
	arcs := g.Arcs(v)
	out := make([]int, len(arcs))
	for i, a := range arcs {
		out[i] = int(a.To)
	}
	return out
}

// Edges returns a fresh slice of all edges indexed by edge ID.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Subgraph returns a new graph on the same vertex set containing exactly the
// edges of g whose ID is set in keep, built directly in CSR form. Edge IDs
// are NOT preserved in the returned graph (they are renumbered densely in
// increasing original-ID order); use SubgraphMapped when the old-to-new
// translation is needed, or EdgeSet-based views when stable IDs are
// required.
func (g *Graph) Subgraph(keep *EdgeSet) *Graph {
	sub := make([]Edge, 0, keep.Len())
	keep.ForEach(func(id int) {
		sub = append(sub, g.edges[id])
	})
	return freeze(g.n, sub)
}

// SubgraphMapped is Subgraph plus the edge-ID translation it implies:
// gToSub[id] is the new ID of g's edge id, or -1 when keep omits it.
func (g *Graph) SubgraphMapped(keep *EdgeSet) (sub *Graph, gToSub []int32) {
	gToSub = make([]int32, len(g.edges))
	for i := range gToSub {
		gToSub[i] = -1
	}
	kept := make([]Edge, 0, keep.Len())
	keep.ForEach(func(id int) {
		gToSub[id] = int32(len(kept))
		kept = append(kept, g.edges[id])
	})
	return freeze(g.n, kept), gToSub
}

// ConnectedFrom reports whether every vertex is reachable from src.
func (g *Graph) ConnectedFrom(src int) bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := make([]int32, 0, g.n)
	seen[src] = true
	stack = append(stack, int32(src))
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.Arcs(int(v)) {
			if !seen[a.To] {
				seen[a.To] = true
				count++
				stack = append(stack, a.To)
			}
		}
	}
	return count == g.n
}

// DegreeHistogram returns a map from degree to vertex count.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for v := 0; v < g.n; v++ {
		h[g.Degree(v)]++
	}
	return h
}

// SortedEdges returns all edges sorted lexicographically (useful for stable
// text output).
func (g *Graph) SortedEdges() []Edge {
	out := g.Edges()
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}
