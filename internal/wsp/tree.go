package wsp

import (
	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/path"
)

// Tree is the frozen canonical shortest-path tree T0(s) of (G, W, s): the
// weight (hops, tie), parent and parent edge of every vertex, the child
// lists, and the tie count of the one Search that built it. It is never
// written after NewTree, so any number of RepairSearches — and the
// replacement-path engines built on them — repair against one shared tree
// from any goroutines.
type Tree struct {
	g   *graph.Graph
	w   *Assignment
	src int

	hops    []int32 // -1 at vertices unreachable from src
	tie     []int64
	parent  []int32 // -1 at src and at unreachable vertices
	parentE []int32
	kids    bfs.Subtrees
	depth   int32 // deepest hop level
	ties    int   // TieWarnings of the base Search
}

// NewTree runs one Search from src over g under w and freezes its result.
// src must be a vertex of g and w must cover g's edges.
func NewTree(g *graph.Graph, w *Assignment, src int) *Tree {
	n := g.N()
	s := NewSearch(g, w)
	s.Run(src, Options{Target: -1})
	t := &Tree{
		g:       g,
		w:       w,
		src:     src,
		hops:    make([]int32, n),
		tie:     make([]int64, n),
		parent:  make([]int32, n),
		parentE: make([]int32, n),
		ties:    s.TieWarnings,
	}
	for v := 0; v < n; v++ {
		if !s.Reachable(v) {
			t.hops[v], t.parent[v], t.parentE[v] = -1, -1, -1
			continue
		}
		t.hops[v], t.tie[v] = s.distHops[v], s.distTie[v]
		t.parent[v], t.parentE[v] = s.parent[v], s.parentE[v]
		t.depth = max(t.depth, t.hops[v])
	}
	t.kids.Build(t.parent)
	return t
}

// Graph returns the graph the tree spans.
func (t *Tree) Graph() *graph.Graph { return t.g }

// Source returns the tree's root.
func (t *Tree) Source() int { return t.src }

// Ties returns the equal-weight relaxations the base Search observed: the
// tree's share of the TieWarnings evidence, counted once where it is built.
func (t *Tree) Ties() int { return t.ties }

// HopDist returns the fault-free distance to v, or -1 when unreachable.
func (t *Tree) HopDist(v int) int32 { return t.hops[v] }

// ParentEdgeOf returns the ID of the edge to v's parent, or -1.
func (t *Tree) ParentEdgeOf(v int) int { return int(t.parentE[v]) }

// Children returns v's children in vertex order. Callers must not mutate
// the slice.
func (t *Tree) Children(v int) []int32 { return t.kids.Of(v) }

// PathTo returns the canonical path π(s, v), or nil when v is unreachable.
func (t *Tree) PathTo(v int) path.Path {
	if t.hops[v] < 0 {
		return nil
	}
	p := make(path.Path, t.hops[v]+1)
	for i, u := len(p)-1, v; u != -1; i, u = i-1, int(t.parent[u]) {
		p[i] = u
	}
	return p
}
