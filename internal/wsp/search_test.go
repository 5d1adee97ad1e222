package wsp

import (
	"repro/internal/graph"
	"repro/internal/path"
)

// Search is the textbook binary-heap Dijkstra under a fixed weight
// assignment with per-run vertex/edge masks: the independent reference
// the tests hold RepairSearch to. Results of a Run are valid until the
// next Run. With a Target, every vertex settled before the target — every
// vertex with fewer hops among them — stays valid; others read
// unreachable.
type Search struct {
	g *graph.Graph
	w *Assignment

	distHops []int32
	distTie  []int64
	parent   []int32
	parentE  []int32
	seen     []uint32 // epoch when dist first set
	done     []uint32 // epoch when settled
	vOff     []uint32 // epoch when vertex disabled
	eOff     []uint32 // epoch when edge disabled
	epoch    uint32

	heap heapSlice

	// ties counts relaxations that found two distinct equal-weight paths
	// to a vertex. It accumulates across runs.
	ties int
}

type heapItem struct {
	hops int32
	tie  int64
	v    int32
}

type heapSlice []heapItem

func (h heapSlice) less(i, j int) bool {
	if h[i].hops != h[j].hops {
		return h[i].hops < h[j].hops
	}
	if h[i].tie != h[j].tie {
		return h[i].tie < h[j].tie
	}
	return h[i].v < h[j].v
}

func (h *heapSlice) push(it heapItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *heapSlice) pop() heapItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s.less(l, m) {
			m = l
		}
		if r < len(s) && s.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// NewSearch returns a search scratch bound to g and the assignment w.
// The assignment must cover g's edges.
func NewSearch(g *graph.Graph, w *Assignment) *Search {
	n, m := g.N(), g.M()
	return &Search{
		g:        g,
		w:        w,
		distHops: make([]int32, n),
		distTie:  make([]int64, n),
		parent:   make([]int32, n),
		parentE:  make([]int32, n),
		seen:     make([]uint32, n),
		done:     make([]uint32, n),
		vOff:     make([]uint32, n),
		eOff:     make([]uint32, m),
		heap:     make(heapSlice, 0, n),
	}
}

// Run executes Dijkstra from src under the given restrictions.
func (s *Search) Run(src int, opt Options) {
	s.epoch++
	if s.epoch == 0 { // wrapped; reset stamps
		for i := range s.seen {
			s.seen[i], s.done[i], s.vOff[i] = 0, 0, 0
		}
		for i := range s.eOff {
			s.eOff[i] = 0
		}
		s.epoch = 1
	}
	ep := s.epoch
	for _, v := range opt.DisabledVertices {
		s.vOff[v] = ep
	}
	for _, e := range opt.DisabledEdges {
		s.eOff[e] = ep
	}
	s.heap = s.heap[:0]
	if s.vOff[src] == ep {
		return
	}
	s.distHops[src], s.distTie[src] = 0, 0
	s.parent[src], s.parentE[src] = -1, -1
	s.seen[src] = ep
	// Hoist the hot per-vertex arrays out of s so the relaxation loop works
	// on locals instead of re-loading fields around every heap call.
	distHops, distTie := s.distHops, s.distTie
	seen, done := s.seen, s.done
	vOff, eOff := s.vOff, s.eOff
	tie := s.w.tie
	s.heap.push(heapItem{hops: 0, tie: 0, v: int32(src)})
	for len(s.heap) > 0 {
		it := s.heap.pop()
		v := int(it.v)
		if done[v] == ep {
			continue
		}
		if it.hops != distHops[v] || it.tie != distTie[v] {
			continue // stale entry
		}
		done[v] = ep
		if opt.Target >= 0 && v == opt.Target {
			return
		}
		for _, a := range s.g.Arcs(v) {
			u, eid := a.To, a.ID
			if vOff[u] == ep || eOff[eid] == ep || done[u] == ep {
				continue
			}
			nh := it.hops + 1
			nt := it.tie + tie[eid]
			if seen[u] != ep {
				seen[u] = ep
				distHops[u], distTie[u] = nh, nt
				s.parent[u], s.parentE[u] = int32(v), eid
				s.heap.push(heapItem{hops: nh, tie: nt, v: u})
				continue
			}
			if nh < distHops[u] || (nh == distHops[u] && nt < distTie[u]) {
				distHops[u], distTie[u] = nh, nt
				s.parent[u], s.parentE[u] = int32(v), eid
				s.heap.push(heapItem{hops: nh, tie: nt, v: u})
			} else if nh == distHops[u] && nt == distTie[u] && int(s.parent[u]) != v {
				s.ties++
			}
		}
	}
}

// TieWarnings returns the equal-weight relaxations counted across runs.
func (s *Search) TieWarnings() int { return s.ties }

// Reachable reports whether v was settled in the last run. With a Target
// option, only vertices settled before the target report true.
func (s *Search) Reachable(v int) bool { return s.done[v] == s.epoch }

// HopDist returns the unweighted distance to v from the last run's source,
// or -1 when unreachable.
func (s *Search) HopDist(v int) int32 {
	if s.done[v] != s.epoch {
		return -1
	}
	return s.distHops[v]
}

// Dist returns the full weight to v and whether v is reachable.
func (s *Search) Dist(v int) (Weight, bool) {
	if s.done[v] != s.epoch {
		return Weight{}, false
	}
	return Weight{Hops: s.distHops[v], Tie: s.distTie[v]}, true
}

// PathTo returns the unique shortest path from the source to v under W, or
// nil when v is unreachable.
func (s *Search) PathTo(v int) path.Path {
	if s.done[v] != s.epoch {
		return nil
	}
	n := int(s.distHops[v]) + 1
	p := make(path.Path, n)
	i := n - 1
	for u := v; u != -1; u = int(s.parent[u]) {
		p[i] = u
		i--
	}
	return p
}

// ParentOf returns the predecessor of v on its shortest path (-1 for the
// source or unreachable vertices).
func (s *Search) ParentOf(v int) int {
	if s.done[v] != s.epoch {
		return -1
	}
	return int(s.parent[v])
}

// ParentEdgeOf returns the edge ID connecting v to its predecessor, or -1.
func (s *Search) ParentEdgeOf(v int) int {
	if s.done[v] != s.epoch {
		return -1
	}
	return int(s.parentE[v])
}
