// Package bfs provides plain unweighted breadth-first search with reusable
// scratch buffers. The verifier and the approximation algorithm run millions
// of BFS passes over fault-restricted subgraphs, so the runner is
// allocation-free after construction and supports per-run edge masks.
package bfs

import (
	"repro/internal/graph"
	"repro/internal/path"
)

// Unreachable is the distance reported for vertices not reached.
const Unreachable = int32(-1)

// Runner is a reusable BFS scratch over a fixed graph. It is not safe for
// concurrent use; create one per goroutine.
//
// The scan loops probe the dist array: a vertex is not yet reached while
// its distance reads Unreachable, so the probe reads the line the claim
// writes.
// The unmasked loop reads the dense 4-byte neighbor stream
// (graph.ArcHeads); both keep an explicit-tail queue instead of append
// bookkeeping.
//
// The epoch-stamped edge/vertex masks are allocated on the first masked
// Run, so runners used only for unmasked sweeps (Distances, tree builds)
// never pay the M-sized eOff allocation.
type Runner struct {
	g      *graph.Graph
	dist   []int32
	parent []int32
	queue  []int32
	eOff   []uint32
	vOff   []uint32
	epoch  uint32
}

// NewRunner returns a runner bound to g.
func NewRunner(g *graph.Graph) *Runner {
	return &Runner{
		g:      g,
		dist:   make([]int32, g.N()),
		parent: make([]int32, g.N()),
		queue:  make([]int32, g.N()),
	}
}

// ensureMasks allocates the epoch-stamped disable masks on first use. Kept
// out of the hotpath functions so hotalloc does not see the make calls; a
// runner that never masks never allocates them.
func (r *Runner) ensureMasks() {
	if r.eOff == nil {
		r.eOff = make([]uint32, r.g.M())
		r.vOff = make([]uint32, r.g.N())
	}
}

// Run executes BFS from src with the given edges and vertices disabled.
// Results are valid until the next Run.
//
//ftbfs:hotpath
func (r *Runner) Run(src int, disabledEdges []int, disabledVertices []int) {
	masked := len(disabledEdges) > 0 || len(disabledVertices) > 0
	var ep uint32
	if masked {
		r.ensureMasks()
		r.epoch++
		if r.epoch == 0 {
			for i := range r.eOff {
				r.eOff[i] = 0
			}
			for i := range r.vOff {
				r.vOff[i] = 0
			}
			r.epoch = 1
		}
		ep = r.epoch
		for _, e := range disabledEdges {
			r.eOff[e] = ep
		}
		for _, v := range disabledVertices {
			r.vOff[v] = ep
		}
	}
	dist := r.dist
	for i := range dist {
		dist[i] = Unreachable
	}
	if masked && r.vOff[src] == ep {
		return
	}
	dist[src] = 0
	r.parent[src] = -1
	r.queue[0] = int32(src)
	if !masked {
		r.scanFast()
	} else {
		r.scanMasked(ep)
	}
}

// scanFast is the unmasked scan loop: each arc costs one dense 4-byte
// neighbor read and one probe of the dist entry the claim writes.
//
//ftbfs:hotpath
func (r *Runner) scanFast() {
	dist, parent, queue := r.dist, r.parent, r.queue
	off, tos := r.g.ArcHeads()
	tail := 1
	for head := 0; head < tail; head++ {
		v := queue[head]
		du := dist[v] + 1
		for i, end := off[v], off[v+1]; i < end; i++ {
			to := tos[i]
			if dist[to] == Unreachable {
				dist[to] = du
				parent[to] = v
				queue[tail] = to
				tail++
			}
		}
	}
}

// scanMasked is the masked scan loop: the dist probe runs first, so the
// mask lookups only run for candidates not yet reached. It reads the full
// []Arc stream because the edge mask is keyed by arc ID.
//
//ftbfs:hotpath
func (r *Runner) scanMasked(ep uint32) {
	dist, parent, queue := r.dist, r.parent, r.queue
	eOff, vOff := r.eOff, r.vOff
	off, arcs := r.g.ArcData()
	tail := 1
	for head := 0; head < tail; head++ {
		v := queue[head]
		du := dist[v] + 1
		for i, end := off[v], off[v+1]; i < end; i++ {
			a := arcs[i]
			if dist[a.To] != Unreachable || eOff[a.ID] == ep || vOff[a.To] == ep {
				continue
			}
			dist[a.To] = du
			parent[a.To] = v
			queue[tail] = a.To
			tail++
		}
	}
}

// Dist returns the hop distance to v from the last run's source, or
// Unreachable.
//
//ftbfs:hotpath
func (r *Runner) Dist(v int) int32 { return r.dist[v] }

// Dists returns the internal distance slice for the last run. The slice is
// owned by the runner and overwritten by the next Run; callers must copy it
// if they need to retain it.
func (r *Runner) Dists() []int32 { return r.dist }

// PathTo reconstructs one shortest path to v from the last run, or nil.
func (r *Runner) PathTo(v int) path.Path {
	if r.dist[v] == Unreachable {
		return nil
	}
	p := make(path.Path, r.dist[v]+1)
	i := len(p) - 1
	for u := v; i >= 0; u = int(r.parent[u]) {
		p[i] = u
		i--
	}
	return p
}

// Distances runs a one-shot BFS and returns a fresh distance slice.
// Convenience for callers that do not need a reusable runner. When
// disabledEdges is empty the runner never allocates the M-sized edge mask.
func Distances(g *graph.Graph, src int, disabledEdges []int) []int32 {
	r := NewRunner(g)
	r.Run(src, disabledEdges, nil)
	out := make([]int32, g.N())
	copy(out, r.dist)
	return out
}
