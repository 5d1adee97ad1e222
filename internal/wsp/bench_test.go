package wsp

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
)

// BenchmarkRepairSearch times the repair kernel on fault sets shaped like
// Cons2FTBFS's pair events on SparseGNP(1000, 6, 1) from source 0: a tree
// edge near the root (the π edge, detaching a large subtree) plus an edge
// of the replacement path around it (the detour edge), with the target
// drawn from the detached subtree. "target" runs stop at the target, as
// the per-target builders do; "full" runs settle the whole region, as
// unionTrees does; "base" runs are target runs repaired against T_{e1},
// the canonical tree of G∖{e1}, as Steps 2–3 repair, with the events in
// e1 order and the base switched when e1 changes. Cases are cycled after
// one warm pass, so allocs/op reads the warm kernel. The scratch-* cases time the scratch sweep on the
// same graph: "scratch-full" builds a tree (NewTree is one scratch run),
// "scratch-target" runs from a source other than the tree's to a cycling
// target, and "scratch-masked" runs from that source with two edges and
// three vertices disabled.
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
	b.Run("base", func(b *testing.B) {
		r := NewRepairSearch(NewTree(g, w, 0))
		byE1 := slices.Clone(events)
		slices.SortStableFunc(byE1, func(x, y event) int { return x.faults[0] - y.faults[0] })
		bases := make([]*Delta, len(byE1))
		for k, ev := range byE1 {
			if k > 0 && byE1[k-1].faults[0] == ev.faults[0] {
				bases[k] = bases[k-1]
				continue
			}
			bases[k] = new(Delta)
			r.Run(0, Options{Target: -1, DisabledEdges: ev.faults[:1]})
			r.Capture(bases[k])
		}
		run := func(k int) {
			if bases[k] != r.base {
				r.SetBase(bases[k])
			}
			r.Run(0, Options{Target: byE1[k].target, DisabledEdges: byE1[k].faults})
		}
		for k := range byE1 {
			run(k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(i % len(byE1))
		}
	})
	for _, mode := range []string{"target", "full"} {
		b.Run(mode, func(b *testing.B) {
			r := NewRepairSearch(NewTree(g, w, 0))
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
	b.Run("scratch-full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewTree(g, w, 0)
		}
	})
	other := g.N() / 2
	for _, mode := range []string{"scratch-target", "scratch-masked"} {
		b.Run(mode, func(b *testing.B) {
			r := NewRepairSearch(NewTree(g, w, 0))
			opt := Options{Target: -1, DisabledEdges: []int{1, 5}, DisabledVertices: []int{7, 9, 11}}
			if mode == "scratch-target" {
				opt = Options{}
			}
			r.Run(other, Options{Target: -1}) // grow the level buckets
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "scratch-target" {
					opt.Target = i % g.N()
				}
				r.Run(other, opt)
			}
		})
	}
}
