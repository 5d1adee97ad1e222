package bfs

import (
	"slices"

	"repro/internal/graph"
)

// Tree is a frozen fault-free BFS tree of one source: its distance table,
// the parent of every reached vertex, and each vertex's children — the base
// a Repairer patches faults against. A Tree is immutable once built, so any
// number of repairers, on any goroutines, may repair against one shared
// tree (RunFrom); the oracle pins one per structure source and the
// verifier builds one per source and side.
type Tree struct {
	g      *graph.Graph
	src    int
	dist   []int32
	parent []int32 // -1 at the source and at unreached vertices
	kids   Subtrees
}

// NewTree runs the fault-free BFS from src over g and freezes it.
func NewTree(g *graph.Graph, src int) *Tree {
	t := new(Tree)
	t.build(NewRunner(g), src)
	return t
}

// build runs the fault-free BFS from src on r and freezes it into t,
// reusing t's buffers when they are large enough.
func (t *Tree) build(r *Runner, src int) {
	r.Run(src, nil, nil)
	n := r.g.N()
	t.g, t.src = r.g, src
	t.dist = resize(t.dist, n)
	copy(t.dist, r.dist)
	t.parent = resize(t.parent, n)
	for v := 0; v < n; v++ {
		p := int32(-1)
		if t.dist[v] > 0 {
			p = r.parent[v]
		}
		t.parent[v] = p
	}
	t.kids.Build(t.parent)
}

// resize returns s with length n, reallocating only when it is too short.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Dists returns the fault-free distance table. Callers must not mutate it.
func (t *Tree) Dists() []int32 { return t.dist }

// Bytes returns the memory held by the tree's tables: distances, parents
// and the child CSR — about 16 bytes per vertex.
func (t *Tree) Bytes() int64 {
	return 4 * int64(len(t.dist)+len(t.parent)+len(t.kids.off)+len(t.kids.kids))
}

// Subtrees is a frozen tree's child lists in CSR form — the children of v
// are kids[off[v]:off[v+1]], in vertex order — and the subtree walk both
// repair kernels detach faults with: Repairer over a Tree, and
// wsp.RepairSearch over a wsp.Tree.
type Subtrees struct {
	off  []int32
	kids []int32
}

// Build fills s from a parent table (parent[v] < 0 marks the root and
// unreached vertices), reusing s's buffers when they are large enough.
func (s *Subtrees) Build(parent []int32) {
	n := len(parent)
	s.off = resize(s.off, n+1)
	clear(s.off)
	for _, p := range parent {
		if p >= 0 {
			s.off[p+1]++
		}
	}
	for i := 0; i < n; i++ {
		s.off[i+1] += s.off[i]
	}
	s.kids = resize(s.kids, int(s.off[n]))
	// off[p] serves as p's fill cursor and ends at p's end, which is where
	// p+1 starts; shifting the table one slot restores the starts.
	for v, p := range parent {
		if p >= 0 {
			s.kids[s.off[p]] = int32(v)
			s.off[p]++
		}
	}
	copy(s.off[1:], s.off[:n])
	s.off[0] = 0
}

// Of returns v's children. Callers must not mutate the slice.
func (s *Subtrees) Of(v int) []int32 { return s.kids[s.off[v]:s.off[v+1]] }

// DetachCap is the arc-volume cap of a detached region of g, max(256, m):
// past it a from-scratch run is cheaper than a repair, so both repair
// kernels fall back.
func DetachCap(g *graph.Graph) int { return max(256, g.M()) }

// Detach grows region — the roots of the detached subtrees, each already
// stamped ep in inR — by every descendant, stamping each, and returns the
// grown region, with false as soon as the region's arc volume in g passes
// limit.
//
//ftbfs:hotpath
func (s *Subtrees) Detach(g *graph.Graph, region []int32, inR []uint32, ep uint32, limit int) ([]int32, bool) {
	off, kids := s.off, s.kids
	vol := 0
	for i := 0; i < len(region); i++ {
		v := region[i]
		vol += g.Degree(int(v))
		if vol > limit {
			return region, false
		}
		for _, c := range kids[off[v]:off[v+1]] {
			if inR[c] != ep {
				inR[c] = ep
				region = append(region, c)
			}
		}
	}
	return region, true
}

// Repairer computes fault-restricted BFS distance tables by incrementally
// repairing a fault-free base Tree instead of re-running BFS from scratch.
// The invariant (arXiv:1505.00692 §2): a faulted non-tree edge changes no
// distance at all (the BFS tree path to every vertex survives), and a
// faulted tree edge can only change vertices in the subtree hanging below
// it. A run therefore classifies each fault, detaches the union R of the
// affected subtrees, seeds every vertex of R from its surviving boundary
// arcs (whose far endpoints keep their exact base distance), and repairs R
// level-synchronously. When R's arc volume exceeds the graph's — repairing
// would cost more than starting over — it falls back to the full Runner,
// which also builds the repairer-owned tree.
//
// There is one kernel and two ways to name its base. RunFrom repairs
// against a caller-held Tree, typically one shared by many repairers —
// switching trees costs one n-entry table copy, not a BFS. The oracle and
// the verifier both work this way. Run names a source instead and repairs
// against a repairer-owned tree, rebuilt in place (one full BFS) whenever
// the source moves; only the traced replay in bench/trace.go still calls
// it. Distances are the only output, bit-identical to a from-scratch run
// by construction; paths are walked back over a distance table (the
// oracle's Route does so).
//
// A Repairer is not safe for concurrent use; create one per goroutine and
// keep it. The trees it repairs against may be shared freely.
type Repairer struct {
	g *graph.Graph
	r *Runner // owned-tree builds + full-recompute fallback

	t   *Tree // base of the live table; nil until the first run
	own *Tree // Run's tree; nil until Run first needs it

	// out is the live table: t's distances with the current repair
	// patched in. Every patched vertex is in region; undo restores them.
	out    []int32
	region []int32

	ep    uint32
	inR   []uint32
	done  []uint32
	eMask []uint32

	seeds     []int64 // packed (level<<32 | vertex), sorted by level
	cur, next []int32

	full     bool
	volLimit int
}

// NewRepairer returns a repairer bound to g. It holds no base tree of its
// own until Run first needs one.
func NewRepairer(g *graph.Graph) *Repairer {
	n := g.N()
	return &Repairer{
		g:        g,
		r:        NewRunner(g),
		out:      make([]int32, n),
		inR:      make([]uint32, n),
		done:     make([]uint32, n),
		eMask:    make([]uint32, g.M()),
		seeds:    make([]int64, 0, 64),
		cur:      make([]int32, 0, n),
		next:     make([]int32, 0, n),
		volLimit: DetachCap(g),
	}
}

// undo restores the live table to the tree's distances for every vertex
// the previous repair detached.
func (r *Repairer) undo() {
	base, out := r.t.dist, r.out
	for _, v := range r.region {
		out[v] = base[v]
	}
	r.region = r.region[:0]
}

// Run computes the distance table from src with the given edges disabled
// (the edge-failure model; vertex faults go through the Runner), repairing
// against the current tree when it belongs to src and rebuilding the
// repairer-owned tree when the source moves. Results are valid until the
// next run.
func (r *Repairer) Run(src int, disabledEdges []int) {
	t := r.t
	if t == nil || t.src != src {
		if r.own == nil {
			r.own = new(Tree)
		}
		r.t = nil // the live table may rest on own, which is rebuilt in place
		r.own.build(r.r, src)
		t = r.own
	}
	r.RunFrom(t, disabledEdges)
}

// RunFrom computes the distance table from t's source with the given edges
// disabled, repairing against t. t must be built over the repairer's
// graph; it is only read, so it may be shared with other repairers.
// Results are valid until the next run.
func (r *Repairer) RunFrom(t *Tree, disabledEdges []int) {
	if t.g != r.g {
		panic("bfs: RunFrom with a tree of another graph")
	}
	if t != r.t {
		copy(r.out, t.dist)
		r.region = r.region[:0]
		r.t = t
	} else {
		r.undo()
	}
	r.full = false
	if len(disabledEdges) == 0 {
		return
	}
	r.ep++
	if r.ep == 0 { // wrapped; reset stamps
		for i := range r.inR {
			r.inR[i], r.done[i] = 0, 0
		}
		for i := range r.eMask {
			r.eMask[i] = 0
		}
		r.ep = 1
	}
	ep := r.ep
	for _, id := range disabledEdges {
		r.eMask[id] = ep
	}
	// Classify: a fault is a tree edge iff its deeper endpoint claims it
	// as the parent link; only those detach a subtree.
	dist, parent := t.dist, t.parent
	for _, id := range disabledEdges {
		e := r.g.EdgeAt(id)
		c := -1
		if dist[e.V] > 0 && int(parent[e.V]) == e.U && dist[e.V] == dist[e.U]+1 {
			c = e.V
		} else if dist[e.U] > 0 && int(parent[e.U]) == e.V && dist[e.U] == dist[e.V]+1 {
			c = e.U
		}
		if c >= 0 && r.inR[c] != ep {
			r.inR[c] = ep
			r.region = append(r.region, int32(c))
		}
	}
	if len(r.region) == 0 {
		return // every fault is a non-tree edge: exact no-op
	}
	var ok bool
	if r.region, ok = t.kids.Detach(r.g, r.region, r.inR, ep, r.volLimit); !ok {
		r.full = true
		r.region = r.region[:0]
		r.r.Run(t.src, disabledEdges, nil)
		return
	}
	r.repair()
}

// repair re-settles the detached region level-synchronously. Each x in R
// is seeded with min over surviving boundary arcs (u,x), u outside R, of
// base(u)+1 — exact because outside distances are unchanged — and the
// two-queue sweep admits seeds in level order, so every vertex settles at
// its true fault-restricted distance (last-crossing argument). Region
// vertices never reached stay Unreachable.
//
//ftbfs:hotpath
func (r *Repairer) repair() {
	ep := r.ep
	inR, done, eMask := r.inR, r.done, r.eMask
	base, out := r.t.dist, r.out
	r.seeds = r.seeds[:0]
	for _, x := range r.region {
		out[x] = Unreachable
		best := int32(-1)
		for _, a := range r.g.Arcs(int(x)) {
			if inR[a.To] == ep || eMask[a.ID] == ep || base[a.To] < 0 {
				continue
			}
			if d := base[a.To] + 1; best < 0 || d < best {
				best = d
			}
		}
		if best >= 0 {
			r.seeds = append(r.seeds, int64(best)<<32|int64(x))
		}
	}
	if len(r.seeds) == 0 {
		return // region fully disconnected from the survivors
	}
	slices.Sort(r.seeds)
	cur, next := r.cur[:0], r.next[:0]
	si := 0
	d := int32(r.seeds[0] >> 32)
	for si < len(r.seeds) || len(cur) > 0 {
		if len(cur) == 0 && si < len(r.seeds) {
			if lv := int32(r.seeds[si] >> 32); lv > d {
				d = lv // jump over empty levels
			}
		}
		for si < len(r.seeds) && int32(r.seeds[si]>>32) == d {
			x := int32(r.seeds[si] & 0xffffffff)
			si++
			if done[x] != ep {
				cur = append(cur, x)
			}
		}
		next = next[:0]
		for _, x := range cur {
			if done[x] == ep {
				continue
			}
			done[x] = ep
			out[x] = d
			for _, a := range r.g.Arcs(int(x)) {
				if inR[a.To] != ep || done[a.To] == ep || eMask[a.ID] == ep {
					continue
				}
				next = append(next, a.To)
			}
		}
		cur, next = next, cur
		d++
	}
	r.cur, r.next = cur[:0], next[:0]
}

// Dist returns the hop distance to v under the last run, or Unreachable.
func (r *Repairer) Dist(v int) int32 {
	if r.full {
		return r.r.dist[v]
	}
	return r.out[v]
}

// Dists returns the distance table of the last run. The slice is owned by
// the repairer and overwritten by the next run.
func (r *Repairer) Dists() []int32 {
	if r.full {
		return r.r.dist
	}
	return r.out
}

// Changed returns the vertices whose distance may differ from the base
// tree's table after the last run, and ok=true when the run was served
// incrementally (possibly as a no-op: an empty slice means no distance
// changed). ok=false means a full recompute ran and every vertex may
// differ. The slice is valid until the next run.
func (r *Repairer) Changed() ([]int32, bool) {
	if r.full {
		return nil, false
	}
	return r.region, true
}
