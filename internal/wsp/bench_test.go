package wsp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

func BenchmarkSearchFull(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := gen.SparseGNP(n, 8, 1)
			s := NewSearch(g, NewAssignment(g.M(), 1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Run(0, Options{Target: -1})
			}
		})
	}
}

func BenchmarkSearchEarlyExit(b *testing.B) {
	g := gen.SparseGNP(1600, 8, 1)
	s := NewSearch(g, NewAssignment(g.M(), 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(0, Options{Target: i % g.N()})
	}
}

func BenchmarkSearchMasked(b *testing.B) {
	g := gen.SparseGNP(400, 8, 1)
	s := NewSearch(g, NewAssignment(g.M(), 1))
	faults := []int{1, 5}
	off := []int{7, 9, 11}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(0, Options{Target: -1, DisabledEdges: faults, DisabledVertices: off})
	}
}

// BenchmarkRepairSearch times the repair kernel on fault sets shaped like
// Cons2FTBFS's pair events on SparseGNP(1000, 6, 1) from source 0: a tree
// edge near the root (the π edge, detaching a large subtree) plus an edge
// of the replacement path around it (the detour edge), with the target
// drawn from the detached subtree. "target" runs stop at the target, as
// the per-target builders do; "full" runs settle the whole region, as
// unionTrees does. Cases are cycled after one warm pass, so allocs/op
// reads the warm kernel.
func BenchmarkRepairSearch(b *testing.B) {
	g := gen.SparseGNP(1000, 6, 1)
	w := NewAssignment(g.M(), 1)
	base := NewSearch(g, w)
	base.Run(0, Options{Target: -1})
	rng := rand.New(rand.NewSource(1))
	var near []int // vertices one or two hops from the root
	for v := 0; v < g.N(); v++ {
		if d := base.HopDist(v); d == 1 || d == 2 {
			near = append(near, v)
		}
	}
	type event struct {
		target int
		faults []int
	}
	var events []event
	detour := NewSearch(g, w)
	for len(events) < 256 {
		c := near[rng.Intn(len(near))]
		e1 := base.ParentEdgeOf(c)
		var sub []int
		for v := 0; v < g.N(); v++ {
			for u := v; u >= 0; u = base.ParentOf(u) {
				if u == c {
					sub = append(sub, v)
					break
				}
			}
		}
		v := sub[rng.Intn(len(sub))]
		detour.Run(0, Options{Target: v, DisabledEdges: []int{e1}})
		p := detour.PathTo(v)
		if len(p) < 2 {
			continue
		}
		i := rng.Intn(len(p) - 1)
		e2, _ := g.EdgeID(p[i], p[i+1])
		events = append(events, event{target: v, faults: []int{e1, e2}})
	}
	for _, mode := range []string{"target", "full"} {
		b.Run(mode, func(b *testing.B) {
			r := NewRepairSearch(g, w, 0)
			opt := func(ev event) Options {
				if mode == "full" {
					return Options{Target: -1, DisabledEdges: ev.faults}
				}
				return Options{Target: ev.target, DisabledEdges: ev.faults}
			}
			for _, ev := range events {
				r.Run(0, opt(ev))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Run(0, opt(events[i%len(events)]))
			}
		})
	}
}
