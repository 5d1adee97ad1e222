package wsp

import (
	"repro/internal/graph"
	"repro/internal/path"
)

// RepairSearch answers the same queries as Search for one fixed source by
// incrementally repairing the canonical base tree instead of re-running
// Dijkstra from scratch. The observation (arXiv:1505.00692 §2, shared with
// the Gupta–Khan multi-source construction) is that under the isolation
// weight assignment the canonical tree is the union of the unique
// weight-minimal shortest paths, so a fault set can only change the answer
// for vertices in the subtrees hanging below faulted tree edges (plus the
// subtrees of disabled vertices). Everything outside that detached region R
// keeps its exact base (hops, tie, parent, parentE); vertices inside R are
// re-settled one hop level at a time, seeded from the surviving boundary
// arcs. Weights are hop-major, so a level's tie weights are final once the
// level below it is settled: the sweep needs per-level buckets and an
// in-place tie minimum, not a priority queue. Because the optimum is unique
// per vertex, the repaired values are bit-identical to a from-scratch run —
// the repair changes the settle schedule, never the result.
//
// Ties: on an exact residual tie (two distinct parents reaching a vertex at
// the same (hops, tie)) the kept parent is the first candidate the sweep
// meets — boundary arcs before inside arcs, then bucket order — so parents
// may then differ from Search's. Every equal arrival is counted in
// TieWarnings, so a tied final minimum is always reported.
//
// Contract: after a Run with a Target, accessors are valid for the target,
// every vertex on the target's path, and every vertex outside R (exactly
// the set the replace/multifail consumers query). After a Run without a
// Target, accessors are valid for all vertices. A RepairSearch is not safe
// for concurrent use; create one per goroutine.
type RepairSearch struct {
	g   *graph.Graph
	src int32

	// scratch executes the base run at construction and absorbs every
	// query repair cannot serve: a different source or a detached region
	// past volLimit. When full is true the last Run lives in scratch and
	// every accessor delegates to it.
	scratch *Search
	full    bool

	// Frozen base tree (never mutated after construction). bHops is -1
	// for vertices unreachable from src in the fault-free graph.
	bHops    []int32
	bTie     []int64
	bParent  []int32
	bParentE []int32
	// Children of the base tree in CSR form: kids[kidOff[v]:kidOff[v+1]].
	kidOff []int32
	kids   []int32

	// Live view: base values patched by the current repair. Only vertices
	// in region are ever patched; undo restores them from the b-arrays at
	// the start of the next Run.
	hops    []int32
	tie     []int64
	parent  []int32
	parentE []int32

	// Per-run stamps (epoch ep): inR marks the detached region, seen/done
	// mirror Search's tentative/settled stamps, vOff/eOff the masks.
	ep     uint32
	inR    []uint32
	seen   []uint32
	done   []uint32
	vOff   []uint32
	eOff   []uint32
	region []int32 // R as a list; doubles as the undo list
	// levels[h] buckets the region vertices that reached hop level h in
	// the current repair (as seeds or by relaxation). Buckets keep their
	// capacity across runs; a repair empties the levels it touched.
	levels [][]int32

	// volLimit caps the arc volume (sum of degrees) of R: past it a
	// from-scratch run is cheaper than repairing, so Run falls back.
	volLimit int

	// ties counts residual equal-weight relaxations observed by repairs,
	// mirroring Search.TieWarnings (which covers the base and fallback
	// runs executed by scratch).
	ties int
}

// NewRepairSearch builds the base canonical tree from src (one full
// Dijkstra) and returns a repair engine bound to it. Accessors are
// immediately valid and reflect the fault-free base run.
func NewRepairSearch(g *graph.Graph, w *Assignment, src int) *RepairSearch {
	n, m := g.N(), g.M()
	r := &RepairSearch{
		g:        g,
		src:      int32(src),
		scratch:  NewSearch(g, w),
		bHops:    make([]int32, n),
		bTie:     make([]int64, n),
		bParent:  make([]int32, n),
		bParentE: make([]int32, n),
		kidOff:   make([]int32, n+1),
		hops:     make([]int32, n),
		tie:      make([]int64, n),
		parent:   make([]int32, n),
		parentE:  make([]int32, n),
		inR:      make([]uint32, n),
		seen:     make([]uint32, n),
		done:     make([]uint32, n),
		vOff:     make([]uint32, n),
		eOff:     make([]uint32, m),
		volLimit: m,
	}
	if r.volLimit < 256 {
		r.volLimit = 256
	}
	r.scratch.Run(src, Options{Target: -1})
	for v := 0; v < n; v++ {
		if r.scratch.Reachable(v) {
			wt, _ := r.scratch.Dist(v)
			r.bHops[v], r.bTie[v] = wt.Hops, wt.Tie
			r.bParent[v] = int32(r.scratch.ParentOf(v))
			r.bParentE[v] = int32(r.scratch.ParentEdgeOf(v))
		} else {
			r.bHops[v], r.bParent[v], r.bParentE[v] = -1, -1, -1
		}
	}
	// A seed's level is at most one past the deepest base level, so only
	// the sweep's relaxations can ever need a deeper bucket.
	depth := int32(0)
	for _, h := range r.bHops {
		depth = max(depth, h)
	}
	r.levels = make([][]int32, depth+2)
	copy(r.hops, r.bHops)
	copy(r.tie, r.bTie)
	copy(r.parent, r.bParent)
	copy(r.parentE, r.bParentE)
	for v := 0; v < n; v++ {
		if p := r.bParent[v]; p >= 0 {
			r.kidOff[p+1]++
		}
	}
	for i := 0; i < n; i++ {
		r.kidOff[i+1] += r.kidOff[i]
	}
	r.kids = make([]int32, r.kidOff[n])
	fill := make([]int32, n)
	copy(fill, r.kidOff[:n])
	for v := 0; v < n; v++ {
		if p := r.bParent[v]; p >= 0 {
			r.kids[fill[p]] = int32(v)
			fill[p]++
		}
	}
	return r
}

// Graph returns the graph the search is bound to.
func (r *RepairSearch) Graph() *graph.Graph { return r.g }

// TieWarnings returns the residual equal-weight-path count accumulated
// across the base run, all repairs, and all fallback runs — the same
// evidence Search.TieWarnings carries that the assignment failed to
// isolate a unique shortest path.
func (r *RepairSearch) TieWarnings() int { return r.ties + r.scratch.TieWarnings }

// Changed returns the detached region of the last Run — the only vertices
// whose (hops, tie, parent, parentE) may differ from the base tree — and
// ok=true when the run was served incrementally. ok=false means the run
// fell back to scratch and every vertex may differ. Only meaningful after
// a Run without a Target; the slice is valid until the next Run.
func (r *RepairSearch) Changed() ([]int32, bool) {
	if r.full {
		return nil, false
	}
	return r.region, true
}

// undo restores the live arrays to the base tree for every vertex patched
// (or merely detached) by the previous repair.
func (r *RepairSearch) undo() {
	for _, v := range r.region {
		r.hops[v] = r.bHops[v]
		r.tie[v] = r.bTie[v]
		r.parent[v] = r.bParent[v]
		r.parentE[v] = r.bParentE[v]
	}
	r.region = r.region[:0]
}

// Run executes the query from src under the given restrictions, repairing
// the base tree when possible and falling back to a from-scratch Dijkstra
// otherwise. Results are valid until the next Run (see the type comment
// for which accessors are valid after a Target run).
func (r *RepairSearch) Run(src int, opt Options) {
	r.undo()
	if int32(src) != r.src {
		r.full = true
		r.scratch.Run(src, opt)
		return
	}
	r.full = false
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
	// Detach the subtree of every disabled vertex (including the vertex
	// itself: it is masked and never re-settled) and of the child endpoint
	// of every faulted tree edge. Faulted non-tree edges detach nothing —
	// the canonical tree is the union of the unique canonical paths, so
	// removing a non-tree edge is an exact no-op.
	for _, v := range opt.DisabledVertices {
		r.vOff[v] = ep
		if r.inR[v] != ep {
			r.inR[v] = ep
			r.region = append(r.region, int32(v))
		}
	}
	for _, id := range opt.DisabledEdges {
		e := r.g.EdgeAt(id)
		c := -1
		if int(r.bParentE[e.V]) == id {
			c = e.V
		} else if int(r.bParentE[e.U]) == id {
			c = e.U
		}
		if c >= 0 && r.inR[c] != ep {
			r.inR[c] = ep
			r.region = append(r.region, int32(c))
		}
	}
	if !r.detach() {
		r.full = true
		r.scratch.Run(src, opt)
		return
	}
	if len(r.region) == 0 {
		return // exact no-op: every fault missed the tree
	}
	if opt.Target >= 0 && r.inR[opt.Target] != ep {
		// The target and its whole base path lie outside R: the base view
		// already answers everything the caller may ask.
		return
	}
	r.repair(opt.Target)
}

// detach expands region to the full set of base-tree descendants of its
// roots, accumulating arc volume; it reports false when the volume passes
// volLimit (a from-scratch run is cheaper than repairing that much).
//
//ftbfs:hotpath
func (r *RepairSearch) detach() bool {
	ep := r.ep
	vol := 0
	for i := 0; i < len(r.region); i++ {
		v := r.region[i]
		vol += r.g.Degree(int(v))
		if vol > r.volLimit {
			return false
		}
		for _, c := range r.kids[r.kidOff[v]:r.kidOff[v+1]] {
			if r.inR[c] != ep {
				r.inR[c] = ep
				r.region = append(r.region, c)
			}
		}
	}
	return true
}

// repair re-settles the detached region one hop level at a time. Every
// vertex x in R is seeded with its best crossing arc from the (exact,
// surviving) outside and dropped into the bucket of that hop level; levels
// are then settled in increasing order. By the last-crossing argument the
// canonical path of every x in R decomposes into an exact outside prefix,
// one crossing arc, and a suffix inside R, and because weights are
// hop-major every tie weight at level h is final once level h−1 is
// settled. A relaxation from level h therefore appends its endpoint to
// level h+1 only when the endpoint first reaches that level and otherwise
// lowers its tie weight in place, so the sweep reproduces the unique
// optimum — and therefore the exact parent and parent edge — for every
// vertex it settles. R vertices left unsettled are exactly the ones
// unreachable under the fault set. A Target run stops when the target
// comes up in its level.
//
//ftbfs:hotpath
func (r *RepairSearch) repair(target int) {
	ep := r.ep
	hops, tie, parent, parentE := r.hops, r.tie, r.parent, r.parentE
	seen, done := r.seen, r.done
	inR, vOff, eOff := r.inR, r.vOff, r.eOff
	bHops, bTie := r.bHops, r.bTie
	wTie := r.scratch.w.tie
	levels := r.levels
	lo, hi := len(levels), -1
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

// gated reports whether v is in the detached region but was not settled by
// the repair — i.e. v is unreachable under the last fault set.
func (r *RepairSearch) gated(v int) bool {
	return r.inR[v] == r.ep && r.done[v] != r.ep
}

// Reachable reports whether v is reachable under the last Run's
// restrictions (for Target runs, within the contract set).
func (r *RepairSearch) Reachable(v int) bool {
	if r.full {
		return r.scratch.Reachable(v)
	}
	return !r.gated(v) && r.hops[v] >= 0
}

// HopDist returns the unweighted distance to v, or -1 when unreachable.
func (r *RepairSearch) HopDist(v int) int32 {
	if r.full {
		return r.scratch.HopDist(v)
	}
	if r.gated(v) {
		return -1
	}
	return r.hops[v]
}

// Dist returns the full weight to v and whether v is reachable.
func (r *RepairSearch) Dist(v int) (Weight, bool) {
	if r.full {
		return r.scratch.Dist(v)
	}
	if r.gated(v) || r.hops[v] < 0 {
		return Weight{}, false
	}
	return Weight{Hops: r.hops[v], Tie: r.tie[v]}, true
}

// PathTo returns the unique shortest path from the source to v under W, or
// nil when v is unreachable.
func (r *RepairSearch) PathTo(v int) path.Path {
	if r.full {
		return r.scratch.PathTo(v)
	}
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
	if r.full {
		return r.scratch.ParentOf(v)
	}
	if r.gated(v) {
		return -1
	}
	return int(r.parent[v])
}

// ParentEdgeOf returns the edge ID connecting v to its predecessor, or -1.
func (r *RepairSearch) ParentEdgeOf(v int) int {
	if r.full {
		return r.scratch.ParentEdgeOf(v)
	}
	if r.gated(v) {
		return -1
	}
	return int(r.parentE[v])
}

// LastEdgeTo returns the final edge of the shortest path to v. ok is false
// when v is unreachable or is the source itself.
func (r *RepairSearch) LastEdgeTo(v int) (graph.Edge, bool) {
	if r.full {
		return r.scratch.LastEdgeTo(v)
	}
	if r.gated(v) || r.hops[v] < 0 || r.parent[v] < 0 {
		return graph.Edge{}, false
	}
	return graph.Edge{U: int(r.parent[v]), V: v}.Normalize(), true
}
