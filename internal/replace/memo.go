package replace

import (
	"slices"

	"repro/internal/path"
	"repro/internal/wsp"
)

// memoBound caps the single-fault memo at memoBound·n captured vertices
// per engine; past it the least recently used entry is dropped.
const memoBound = 8

// sfEntry is one Step-1 search G(u_k, u_i)∖{e_i}: the search with edge
// e_i and the π vertices u_{k+1..i} masked, k = i being the unmasked
// G∖{e_i}. Because π(s, u_{i+1}) is the T0 path, the masks depend on
// (e_i, k) and not on the target, so every target below e_i asks the same
// search. The entry is one full repair run, kept as a delta over T0: its
// sorted detached region with the hops and parents found there, or a
// dense copy of both when the run fell back. Vertices outside the region
// keep their T0 values.
type sfEntry struct {
	i, k   int     // the key: π index of e_i, and the mask bound k
	verts  []int32 // sorted detached region; unused when dense
	hops   []int32 // per verts entry, or per vertex when dense; -1: unreachable
	parent []int32
	dense  bool
	ties   int // TieWarnings the run observed, charged to every use

	prev, next *sfEntry // LRU list, most recently used first
}

// captured is the number of vertices the entry holds.
func (en *sfEntry) captured() int { return len(en.hops) }

// at returns v's hop distance (-1: unreachable) and parent in the entry's
// search.
func (en *sfEntry) at(t *wsp.Tree, v int) (int32, int) {
	if en.dense {
		return en.hops[v], int(en.parent[v])
	}
	if j, ok := slices.BinarySearch(en.verts, int32(v)); ok {
		return en.hops[j], int(en.parent[j])
	}
	return t.HopDist(v), t.ParentOf(v)
}

// pathTo returns the entry's canonical path to v, or nil when v is
// unreachable.
func (en *sfEntry) pathTo(t *wsp.Tree, v int) path.Path {
	h, _ := en.at(t, v)
	if h < 0 {
		return nil
	}
	p := make(path.Path, h+1)
	for i, u := int(h), v; i >= 0; i-- {
		p[i] = u
		_, u = en.at(t, u)
	}
	return p
}

// sfMemo holds the single-fault searches of the edges on the current
// target's π: slots[i] has the entries of e_i, indexed by k. Targets
// claimed in T0 preorder visit each subtree back to back, so an edge's
// entries serve every target below it and are dropped when the first
// target outside its subtree arrives.
type sfMemo struct {
	slots      []sfSlot
	size       int // captured vertices over all entries
	peak       int // high-water mark of size
	evictions  int // entries dropped by the bound (not by leaving a subtree)
	head, tail *sfEntry
	free       []*sfEntry // dropped entries whose buffers the next fill reuses
}

// sfSlot holds the entries of one π edge, indexed by k.
type sfSlot struct {
	eid int
	byK []*sfEntry
}

// enter aligns the memo with the π edges of a new target: it keeps the
// slots of the shared prefix and drops every entry below it.
func (m *sfMemo) enter(piEdges []int) {
	i := 0
	for i < len(m.slots) && i < len(piEdges) && m.slots[i].eid == piEdges[i] {
		i++
	}
	for j := i; j < len(m.slots); j++ {
		for k, en := range m.slots[j].byK {
			if en != nil {
				m.drop(en)
				m.slots[j].byK[k] = nil
			}
		}
	}
	m.slots = slices.Grow(m.slots[:i], len(piEdges)-i)[:len(piEdges)]
	for j := i; j < len(piEdges); j++ {
		sl := &m.slots[j]
		sl.eid = piEdges[j]
		sl.byK = slices.Grow(sl.byK[:0], j+1)[:j+1]
		clear(sl.byK)
	}
}

// unlink removes en from the LRU list.
func (m *sfMemo) unlink(en *sfEntry) {
	if en.prev != nil {
		en.prev.next = en.next
	} else {
		m.head = en.next
	}
	if en.next != nil {
		en.next.prev = en.prev
	} else {
		m.tail = en.prev
	}
	en.prev, en.next = nil, nil
}

// pushFront makes en the most recently used entry.
func (m *sfMemo) pushFront(en *sfEntry) {
	en.next = m.head
	if m.head != nil {
		m.head.prev = en
	}
	m.head = en
	if m.tail == nil {
		m.tail = en
	}
}

// drop unlinks en and recycles its buffers; the caller clears its slot.
func (m *sfMemo) drop(en *sfEntry) {
	m.unlink(en)
	m.size -= en.captured()
	m.free = append(m.free, en)
}

// singleFault returns the search G(u_k, u_i)∖{e_i} for the current
// target, running it on a miss. Each call is one logical search. The
// entry stays valid only until the next call.
func (e *Engine) singleFault(tr *TargetResult, i, k int) *sfEntry {
	m := &e.memo
	e.stats.Dijkstras++
	en := m.slots[i].byK[k]
	if en != nil {
		m.unlink(en)
	} else {
		en = e.fillSingleFault(tr, i, k)
		m.slots[i].byK[k] = en
		m.size += en.captured()
		for m.size > memoBound*e.g.N() && m.tail != nil {
			old := m.tail
			m.slots[old.i].byK[old.k] = nil
			m.drop(old)
			m.evictions++
		}
		m.peak = max(m.peak, m.size)
	}
	m.pushFront(en)
	e.ties += en.ties
	return en
}

// fillSingleFault runs G(u_k, u_i)∖{e_i} as one full repair and captures
// it as a delta over T0, in a recycled entry when one is free.
func (e *Engine) fillSingleFault(tr *TargetResult, i, k int) *sfEntry {
	e.disabledV = append(e.disabledV[:0], tr.Pi[k+1:i+1]...)
	t0 := e.search.TieWarnings()
	e.search.Run(e.s, wsp.Options{Target: -1, DisabledEdges: tr.PiEdgeIDs[i : i+1], DisabledVertices: e.disabledV})
	e.stats.KernelRuns++
	var en *sfEntry
	if n := len(e.memo.free); n > 0 {
		en = e.memo.free[n-1]
		e.memo.free = e.memo.free[:n-1]
	} else {
		en = new(sfEntry)
	}
	en.i, en.k = i, k
	en.ties = e.search.TieWarnings() - t0
	e.memoTies += en.ties
	region, ok := e.search.Changed()
	en.dense = !ok
	n := len(region)
	if en.dense {
		n = e.g.N()
	} else {
		en.verts = append(en.verts[:0], region...)
		slices.Sort(en.verts)
	}
	en.hops = slices.Grow(en.hops[:0], n)[:n]
	en.parent = slices.Grow(en.parent[:0], n)[:n]
	for j := range n {
		v := j
		if !en.dense {
			v = int(en.verts[j])
		}
		en.hops[j] = e.search.HopDist(v)
		en.parent[j] = int32(e.search.ParentOf(v))
	}
	return en
}
