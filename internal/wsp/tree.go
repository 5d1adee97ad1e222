package wsp

import (
	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/path"
)

// Tree is the frozen canonical shortest-path tree T0(s) of (G, W, s): the
// weight (hops, tie), parent and parent edge of every vertex, the child
// lists, and the tie count of the scratch run that built it. It is never
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
	ties    int   // TieWarnings of the base run
}

// NewTree runs the sweep once from src over g under w and freezes its
// result. src must be a vertex of g and w must cover g's edges.
func NewTree(g *graph.Graph, w *Assignment, src int) *Tree {
	n := g.N()
	// A base with no source and nothing reachable: the run from src is a
	// scratch run, and its live arrays become the tree's tables.
	none := make([]int32, n)
	for v := range none {
		none[v] = -1
	}
	r := NewRepairSearch(&Tree{g: g, w: w, src: -1,
		hops: none, tie: make([]int64, n), parent: none, parentE: none})
	r.Run(src, Options{Target: -1})
	t := &Tree{g: g, w: w, src: src,
		hops: r.hops, tie: r.tie, parent: r.parent, parentE: r.parentE, ties: r.ties}
	for _, h := range t.hops {
		t.depth = max(t.depth, h)
	}
	t.kids.Build(t.parent)
	return t
}

// Graph returns the graph the tree spans.
func (t *Tree) Graph() *graph.Graph { return t.g }

// Source returns the tree's root.
func (t *Tree) Source() int { return t.src }

// Assignment returns the weight assignment W the tree was built under.
func (t *Tree) Assignment() *Assignment { return t.w }

// Ties returns the equal-weight relaxations the base run observed: the
// tree's share of the TieWarnings evidence, counted once where it is built.
func (t *Tree) Ties() int { return t.ties }

// HopDist returns the fault-free distance to v, or -1 when unreachable.
func (t *Tree) HopDist(v int) int32 { return t.hops[v] }

// ParentOf returns v's parent, or -1 at the source and at unreachable
// vertices.
func (t *Tree) ParentOf(v int) int { return int(t.parent[v]) }

// ParentEdgeOf returns the ID of the edge to v's parent, or -1.
func (t *Tree) ParentEdgeOf(v int) int { return int(t.parentE[v]) }

// Children returns v's children in vertex order. Callers must not mutate
// the slice.
func (t *Tree) Children(v int) []int32 { return t.kids.Of(v) }

// Preorder returns the vertices in a depth-first preorder of the tree from
// its source, children in vertex order, followed by the unreachable
// vertices in vertex order. Every subtree is a contiguous run of it. The
// slice is freshly allocated on each call.
func (t *Tree) Preorder() []int32 {
	n := len(t.hops)
	out := make([]int32, 0, n)
	stack := []int32{int32(t.src)}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, v)
		kids := t.kids.Of(int(v))
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
	for v := 0; v < n; v++ {
		if t.hops[v] < 0 {
			out = append(out, int32(v))
		}
	}
	return out
}

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
