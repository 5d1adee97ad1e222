package wsp

import (
	"slices"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/path"
)

// Options restricts a run to a subgraph and optionally stops it early.
type Options struct {
	// Target, when ≥ 0, lets the run stop as soon as the target is
	// settled. The target, every vertex on its path and every vertex with
	// fewer hops than it then read exactly; so do the vertices a repair
	// left outside its detached region (see RepairSearch). Any other
	// vertex reads as unreachable or at its true distance, never closer.
	Target int
	// DisabledVertices are excluded from the run (their incident edges
	// become unusable). Disabling the source yields an all-unreachable
	// result.
	DisabledVertices []int
	// DisabledEdges are excluded from the run.
	DisabledEdges []int
}

// RepairSearch computes the unique shortest paths under W from a source in
// G restricted by per-run vertex and edge masks. From its tree's own source
// it repairs the canonical base tree instead of searching from scratch.
// The observation (arXiv:1505.00692 §2, shared with the Gupta–Khan
// multi-source construction) is that under the isolation weight
// assignment the canonical tree is the union of the unique weight-minimal
// shortest paths, so a fault set can only change the answer for vertices
// in the subtrees hanging below faulted tree edges (plus the subtrees of
// disabled vertices). Everything outside that detached region R keeps its
// exact base (hops, tie, parent, parentE); vertices inside R are
// re-settled one hop level at a time, seeded from the surviving boundary
// arcs. Weights are hop-major, so a level's tie weights are final once the
// level below it is settled: the sweep needs per-level buckets and an
// in-place tie minimum, not a priority queue. Because the optimum is
// unique per vertex, the repaired values are bit-identical to a
// from-scratch run — the repair changes the settle schedule, never the
// result.
//
// Every other run is a scratch run of the same sweep: R = V, and the one
// seed is the source at hops 0, tie 0. That serves runs from a source
// other than the tree's, and detached regions whose arc volume passes the
// volume cap, where starting over is cheaper than repairing. NewTree
// builds each tree with one scratch run.
//
// Ties: on an exact residual tie (two distinct parents reaching a vertex at
// the same (hops, tie)) the kept parent is the first candidate the sweep
// meets — boundary arcs before inside arcs, then bucket order — so it may
// differ from the one a heap-ordered Dijkstra keeps. Every equal arrival
// is counted in TieWarnings, so a tied final minimum is always reported.
//
// Contract: after a Run with a Target, accessors are valid for the target,
// every vertex on the target's path, and every vertex outside R. When the
// run repaired the target (the target lies in R) or ran from scratch, they
// are also valid for every vertex with fewer hops than the target: the
// sweep settles every lower hop level before the target's. Other vertices
// read as unreachable or at their true distance, never closer. After a Run
// without a Target, accessors are valid for all vertices. A RepairSearch
// is not safe for concurrent use; create one per goroutine. The Tree it
// repairs against is only read, so every goroutine's RepairSearch may
// share one.
type RepairSearch struct {
	g *graph.Graph
	t *Tree // the shared frozen base; only ever read

	// full marks a scratch run: R was all of V, so every vertex may
	// differ from the tree.
	full bool

	// Live view: the tree's values patched by the current run. Only
	// vertices in R are ever patched; undo restores them from the tree at
	// the start of the next Run.
	hops    []int32
	tie     []int64
	parent  []int32
	parentE []int32

	// Per-run stamps (epoch ep): inR marks the detached region, seen the
	// vertices with a tentative weight, done the settled ones, vOff/eOff
	// the masks.
	ep     uint32
	inR    []uint32
	seen   []uint32
	done   []uint32
	vOff   []uint32
	eOff   []uint32
	region []int32 // R as a list when repairing; doubles as the undo list
	// levels[h] buckets the region vertices that reached hop level h in
	// the current run (as seeds or by relaxation). Buckets keep their
	// capacity across runs; a run empties the levels it touched.
	levels [][]int32

	// volLimit caps the arc volume (sum of degrees) of R: past it a
	// scratch run is cheaper than repairing.
	volLimit int

	// ties counts residual equal-weight relaxations observed by all runs.
	ties int
}

// NewRepairSearch returns a repair engine over the shared base tree t.
// Accessors are immediately valid and reflect the fault-free tree.
func NewRepairSearch(t *Tree) *RepairSearch {
	g := t.g
	n, m := g.N(), g.M()
	return &RepairSearch{
		g:       g,
		t:       t,
		hops:    slices.Clone(t.hops),
		tie:     slices.Clone(t.tie),
		parent:  slices.Clone(t.parent),
		parentE: slices.Clone(t.parentE),
		inR:     make([]uint32, n),
		seen:    make([]uint32, n),
		done:    make([]uint32, n),
		vOff:    make([]uint32, n),
		eOff:    make([]uint32, m),
		// A seed's level is at most one past the deepest tree level, so
		// only the sweep's relaxations can ever need a deeper bucket.
		levels:   make([][]int32, t.depth+2),
		volLimit: bfs.DetachCap(g),
	}
}

// TieWarnings returns the residual equal-weight relaxations counted across
// all runs: evidence that the assignment failed to isolate a unique
// shortest path. The tree's own share is Tree.Ties.
func (r *RepairSearch) TieWarnings() int { return r.ties }

// Changed returns the detached region of the last Run — the only vertices
// whose (hops, tie, parent, parentE) may differ from the base tree — and
// ok=true when the run was a repair. ok=false means the run was from
// scratch and every vertex may differ. ok is meaningful after any Run,
// the region only after a Run without a Target; the slice is valid until
// the next Run.
func (r *RepairSearch) Changed() ([]int32, bool) {
	if r.full {
		return nil, false
	}
	return r.region, true
}

// undo restores the live arrays to the base tree for every vertex patched
// (or merely detached) by the previous run.
func (r *RepairSearch) undo() {
	t := r.t
	if r.full {
		copy(r.hops, t.hops)
		copy(r.tie, t.tie)
		copy(r.parent, t.parent)
		copy(r.parentE, t.parentE)
		r.full = false
	}
	for _, v := range r.region {
		r.hops[v] = t.hops[v]
		r.tie[v] = t.tie[v]
		r.parent[v] = t.parent[v]
		r.parentE[v] = t.parentE[v]
	}
	r.region = r.region[:0]
}

// Run executes the query from src under the given restrictions: a repair
// of the base tree when src is the tree's source and the detached region
// stays under the volume cap, a scratch run otherwise. Results are valid
// until the next Run (see the type comment for which accessors are valid
// after a Target run).
func (r *RepairSearch) Run(src int, opt Options) {
	r.undo()
	r.ep++
	if r.ep == 0 { // wrapped; reset stamps
		for i := range r.inR {
			r.inR[i], r.seen[i], r.done[i], r.vOff[i] = 0, 0, 0, 0
		}
		for i := range r.eOff {
			r.eOff[i] = 0
		}
		r.ep = 1
	}
	ep := r.ep
	for _, e := range opt.DisabledEdges {
		r.eOff[e] = ep
	}
	for _, v := range opt.DisabledVertices {
		r.vOff[v] = ep
	}
	if src != r.t.src || !r.detach(opt) {
		// R = V: nothing keeps its base values, and the sweep starts
		// from the source alone.
		r.full = true
		r.region = r.region[:0]
		for v := range r.inR {
			r.inR[v] = ep
		}
	} else if len(r.region) == 0 {
		return // exact no-op: every fault missed the tree
	} else if opt.Target >= 0 && r.inR[opt.Target] != ep {
		// The target and its whole base path lie outside R: the base view
		// already answers everything the caller may ask.
		return
	}
	r.repair(src, opt.Target)
}

// detach collects R for a run from the tree's source: the subtree of every
// disabled vertex (including the vertex itself: it is masked and never
// re-settled) and of the child endpoint of every faulted tree edge.
// Faulted non-tree edges detach nothing — the canonical tree is the union
// of the unique canonical paths, so removing a non-tree edge is an exact
// no-op. It reports false when R's arc volume passes volLimit.
func (r *RepairSearch) detach(opt Options) bool {
	ep := r.ep
	for _, v := range opt.DisabledVertices {
		if r.inR[v] != ep {
			r.inR[v] = ep
			r.region = append(r.region, int32(v))
		}
	}
	parentE := r.t.parentE
	for _, id := range opt.DisabledEdges {
		e := r.g.EdgeAt(id)
		c := -1
		if int(parentE[e.V]) == id {
			c = e.V
		} else if int(parentE[e.U]) == id {
			c = e.U
		}
		if c >= 0 && r.inR[c] != ep {
			r.inR[c] = ep
			r.region = append(r.region, int32(c))
		}
	}
	var ok bool
	r.region, ok = r.t.kids.Detach(r.g, r.region, r.inR, ep, r.volLimit)
	return ok
}

// repair re-settles R one hop level at a time. In a repair every vertex x
// in R is seeded with its best crossing arc from the (exact, surviving)
// outside and dropped into the bucket of that hop level; a scratch run has
// no outside, and its one seed is src at level 0. Levels are then settled
// in increasing order. By the last-crossing argument the canonical path of
// every x in R decomposes into an exact outside prefix, one crossing arc,
// and a suffix inside R, and because weights are hop-major every tie
// weight at level h is final once level h−1 is settled. A relaxation from
// level h therefore appends its endpoint to level h+1 only when the
// endpoint first reaches that level and otherwise lowers its tie weight in
// place, so the sweep reproduces the unique optimum — and therefore the
// exact parent and parent edge — for every vertex it settles. R vertices
// left unsettled are exactly the ones unreachable under the fault set. A
// Target run stops when the target comes up in its level.
//
//ftbfs:hotpath
func (r *RepairSearch) repair(src, target int) {
	ep := r.ep
	hops, tie, parent, parentE := r.hops, r.tie, r.parent, r.parentE
	seen, done := r.seen, r.done
	inR, vOff, eOff := r.inR, r.vOff, r.eOff
	bHops, bTie := r.t.hops, r.t.tie
	wTie := r.t.w.tie
	levels := r.levels
	lo, hi := len(levels), -1
	if r.full && vOff[src] != ep {
		seen[src] = ep
		hops[src], tie[src], parent[src], parentE[src] = 0, 0, -1, -1
		levels[0] = append(levels[0], int32(src))
		lo, hi = 0, 0
	}
	for _, x := range r.region {
		if vOff[x] == ep {
			continue
		}
		for _, a := range r.g.Arcs(int(x)) {
			u, eid := a.To, a.ID
			if inR[u] == ep || eOff[eid] == ep || bHops[u] < 0 {
				continue
			}
			nh := bHops[u] + 1
			nt := bTie[u] + wTie[eid]
			if seen[x] != ep || nh < hops[x] || (nh == hops[x] && nt < tie[x]) {
				seen[x] = ep
				hops[x], tie[x] = nh, nt
				parent[x], parentE[x] = u, eid
			} else if nh == hops[x] && nt == tie[x] && parent[x] != u {
				r.ties++
			}
		}
		if seen[x] == ep {
			h := int(hops[x])
			levels[h] = append(levels[h], x)
			lo, hi = min(lo, h), max(hi, h)
		}
	}
	found := false
	for h := lo; h <= hi && !found; h++ {
		if h+1 == len(levels) {
			r.levels = append(r.levels, nil)
			levels = r.levels
		}
		nh := int32(h + 1)
		next := levels[h+1]
		for _, v := range levels[h] {
			if done[v] == ep {
				continue // stale: relaxed to a lower level and settled there
			}
			done[v] = ep
			if int(v) == target {
				found = true
				break
			}
			tv := tie[v]
			for _, a := range r.g.Arcs(int(v)) {
				u, eid := a.To, a.ID
				if inR[u] != ep || vOff[u] == ep || eOff[eid] == ep || done[u] == ep {
					continue
				}
				nt := tv + wTie[eid]
				if seen[u] != ep || nh < hops[u] {
					seen[u] = ep
					hops[u], tie[u] = nh, nt
					parent[u], parentE[u] = v, eid
					next = append(next, u)
				} else if nh == hops[u] {
					if nt < tie[u] {
						tie[u] = nt
						parent[u], parentE[u] = v, eid
					} else if nt == tie[u] && parent[u] != v {
						r.ties++
					}
				}
			}
		}
		levels[h+1] = next
		if len(next) > 0 {
			hi = max(hi, h+1)
		}
	}
	for h := lo; h <= hi; h++ {
		levels[h] = levels[h][:0]
	}
}

// gated reports whether v is in R but was not settled by the last run —
// i.e. v is unreachable under the last fault set.
func (r *RepairSearch) gated(v int) bool {
	return r.inR[v] == r.ep && r.done[v] != r.ep
}

// Reachable reports whether v is reachable under the last Run's
// restrictions (for Target runs, within the contract set).
func (r *RepairSearch) Reachable(v int) bool {
	return !r.gated(v) && r.hops[v] >= 0
}

// HopDist returns the unweighted distance to v, or -1 when unreachable.
func (r *RepairSearch) HopDist(v int) int32 {
	if r.gated(v) {
		return -1
	}
	return r.hops[v]
}

// Dist returns the full weight to v and whether v is reachable.
func (r *RepairSearch) Dist(v int) (Weight, bool) {
	if r.gated(v) || r.hops[v] < 0 {
		return Weight{}, false
	}
	return Weight{Hops: r.hops[v], Tie: r.tie[v]}, true
}

// PathTo returns the unique shortest path from the source to v under W, or
// nil when v is unreachable.
func (r *RepairSearch) PathTo(v int) path.Path {
	if r.gated(v) || r.hops[v] < 0 {
		return nil
	}
	n := int(r.hops[v]) + 1
	p := make(path.Path, n)
	i := n - 1
	for u := v; u != -1; u = int(r.parent[u]) {
		p[i] = u
		i--
	}
	return p
}

// ParentOf returns the predecessor of v on its shortest path (-1 for the
// source or unreachable vertices).
func (r *RepairSearch) ParentOf(v int) int {
	if r.gated(v) {
		return -1
	}
	return int(r.parent[v])
}

// ParentEdgeOf returns the edge ID connecting v to its predecessor, or -1.
func (r *RepairSearch) ParentEdgeOf(v int) int {
	if r.gated(v) {
		return -1
	}
	return int(r.parentE[v])
}
