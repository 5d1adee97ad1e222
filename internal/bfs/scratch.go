package bfs

import (
	"sync"

	"repro/internal/graph"
)

// Scratch is a per-worker arena bundling every BFS buffer a fault-event
// loop needs: a from-scratch Runner (dist/parent/queue/bitset/masks) and a
// lazily built Repairer sharing the same graph. Ownership rule: a Scratch
// belongs to exactly one goroutine between Acquire and Release (or for the
// lifetime of a locally constructed one); results read from its Runner or
// Repairer are invalid after Release. Holding a Scratch across fault
// events is the point — the Repairer's base tree amortizes across every
// event sharing a source.
type Scratch struct {
	g      *graph.Graph
	runner *Runner
	rep    *Repairer
}

// NewScratch returns an arena bound to g with the Runner materialized.
func NewScratch(g *graph.Graph) *Scratch {
	return &Scratch{g: g, runner: NewRunner(g)}
}

// Runner returns the arena's from-scratch BFS runner.
func (s *Scratch) Runner() *Runner { return s.runner }

// Repairer returns the arena's incremental repairer, building it on first
// use so runner-only workers never pay for the base-tree buffers.
func (s *Scratch) Repairer() *Repairer {
	if s.rep == nil {
		s.rep = NewRepairer(s.g)
	}
	return s.rep
}

// ScratchPool hands out Scratch arenas for one graph. It wraps sync.Pool,
// so arenas (and their warm base trees) are recycled across goroutines
// instead of reallocated per fan-out.
type ScratchPool struct {
	pool sync.Pool
}

// NewScratchPool returns a pool of arenas bound to g.
func NewScratchPool(g *graph.Graph) *ScratchPool {
	p := &ScratchPool{}
	p.pool.New = func() any { return NewScratch(g) }
	return p
}

// Acquire returns an arena for exclusive use by the calling goroutine.
func (p *ScratchPool) Acquire() *Scratch { return p.pool.Get().(*Scratch) }

// Release returns the arena to the pool. The caller must not touch the
// arena, or any result obtained through it, afterwards.
func (p *ScratchPool) Release(s *Scratch) { p.pool.Put(s) }
