package graph

import "fmt"

// Builder accumulates the edges of a simple undirected graph under
// validation (range checks, self-loop and duplicate rejection), then Freeze
// compiles them into an immutable CSR Graph. Edge IDs are assigned in
// insertion order, so a Builder-then-Freeze sequence observes exactly the
// IDs and neighbor iteration order the edges were added in.
//
// A Builder is not safe for concurrent use. It remains usable after Freeze;
// later additions do not affect previously frozen graphs.
type Builder struct {
	n     int
	edges []Edge
	index map[Edge]int32
}

// NewBuilder returns an empty builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{
		n:     n,
		index: make(map[Edge]int32),
	}
}

// N returns the number of vertices.
func (b *Builder) N() int { return b.n }

// M returns the number of edges added so far.
func (b *Builder) M() int { return len(b.edges) }

// AddEdge inserts the undirected edge {u, v} and returns its ID.
// It returns an error if either endpoint is out of range, u == v, or the
// edge already exists.
func (b *Builder) AddEdge(u, v int) (int, error) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return -1, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return -1, fmt.Errorf("graph: self-loop at %d", u)
	}
	e := Edge{U: u, V: v}.Normalize()
	if _, ok := b.index[e]; ok {
		return -1, fmt.Errorf("graph: duplicate edge %v", e)
	}
	id := int32(len(b.edges))
	b.edges = append(b.edges, e)
	b.index[e] = id
	return int(id), nil
}

// MustAddEdge is AddEdge for construction code with statically valid input;
// it panics on error. Generators and tests use it; library code does not.
func (b *Builder) MustAddEdge(u, v int) int {
	id, err := b.AddEdge(u, v)
	if err != nil {
		panic(err)
	}
	return id
}

// HasEdge reports whether the undirected edge {u, v} has been added.
func (b *Builder) HasEdge(u, v int) bool {
	_, ok := b.index[Edge{U: u, V: v}.Normalize()]
	return ok
}

// EdgeID returns the ID of edge {u, v} and whether it exists.
func (b *Builder) EdgeID(u, v int) (int, bool) {
	id, ok := b.index[Edge{U: u, V: v}.Normalize()]
	return int(id), ok
}

// ConnectedFrom reports whether every vertex is reachable from src in the
// graph built so far. Used by generators that splice in a backbone when a
// random sample comes out disconnected.
func (b *Builder) ConnectedFrom(src int) bool {
	if b.n == 0 {
		return true
	}
	// Build a throwaway neighbor CSR; the builder itself keeps no adjacency.
	off := make([]int32, b.n+1)
	for _, e := range b.edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for v := 0; v < b.n; v++ {
		off[v+1] += off[v]
	}
	to := make([]int32, 2*len(b.edges))
	cur := make([]int32, b.n)
	copy(cur, off[:b.n])
	for _, e := range b.edges {
		to[cur[e.U]] = int32(e.V)
		cur[e.U]++
		to[cur[e.V]] = int32(e.U)
		cur[e.V]++
	}
	seen := make([]bool, b.n)
	stack := make([]int32, 0, b.n)
	seen[src] = true
	stack = append(stack, int32(src))
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range to[off[v]:off[v+1]] {
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == b.n
}

// Freeze compiles the edges added so far into an immutable CSR Graph. Edge
// IDs and per-vertex neighbor iteration order are the insertion order. The
// builder remains usable; the frozen graph is unaffected by later AddEdge
// calls.
func (b *Builder) Freeze() *Graph {
	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	return freeze(b.n, edges)
}
