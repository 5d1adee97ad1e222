package bfs

import (
	"testing"

	"repro/internal/gen"
)

func TestDistancesPathGraph(t *testing.T) {
	g := gen.PathGraph(5)
	d := Distances(g, 0, nil)
	for v := 0; v < 5; v++ {
		if d[v] != int32(v) {
			t.Fatalf("dist(%d) = %d", v, d[v])
		}
	}
}

func TestRunnerFaults(t *testing.T) {
	g := gen.Cycle(8)
	e01, _ := g.EdgeID(0, 1)
	r := NewRunner(g)
	r.Run(0, []int{e01}, nil)
	if r.Dist(1) != 7 {
		t.Fatalf("dist(1) with cut = %d, want 7", r.Dist(1))
	}
	r.Run(0, nil, nil)
	if r.Dist(1) != 1 {
		t.Fatalf("mask leaked: dist(1) = %d", r.Dist(1))
	}
}

func TestRunnerDisabledVertexAndSource(t *testing.T) {
	g := gen.PathGraph(5)
	r := NewRunner(g)
	r.Run(0, nil, []int{2})
	if r.Dist(3) != Unreachable || r.Dist(1) != 1 {
		t.Fatalf("vertex mask wrong: d3=%d d1=%d", r.Dist(3), r.Dist(1))
	}
	r.Run(0, nil, []int{0})
	for v := 0; v < 5; v++ {
		if r.Dist(v) != Unreachable {
			t.Fatalf("disabled source still reaches %d", v)
		}
	}
}

func TestRunnerPathTo(t *testing.T) {
	g := gen.Grid(3, 3)
	r := NewRunner(g)
	r.Run(0, nil, nil)
	p := r.PathTo(8)
	if p == nil || p.Len() != int(r.Dist(8)) || !p.ValidIn(g) {
		t.Fatalf("PathTo(8) = %v (dist %d)", p, r.Dist(8))
	}
	if p.First() != 0 || p.Last() != 8 {
		t.Fatalf("endpoints wrong: %v", p)
	}
	r.Run(0, nil, []int{8})
	if r.PathTo(8) != nil {
		t.Fatalf("unreachable PathTo should be nil")
	}
}

func TestEpochWraparound(t *testing.T) {
	g := gen.PathGraph(4)
	r := NewRunner(g)
	e01, _ := g.EdgeID(0, 1)
	e12, _ := g.EdgeID(1, 2)

	// Leave stale non-zero stamps in BOTH mask arrays, then force the next
	// Run to wrap. The wrap path must clear the stale stamps: if it kept
	// them, epoch 1 would spuriously re-disable edge e12 and vertex 3.
	r.Run(0, []int{e12}, []int{3})
	r.epoch = ^uint32(0)
	r.Run(0, []int{e01}, nil) // wraps; only e01 may be masked
	if r.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", r.epoch)
	}
	if r.Dist(1) != Unreachable {
		t.Fatalf("mask ignored after wrap: dist(1) = %d", r.Dist(1))
	}

	// A wrap with NO masks must take the fast path with clean state too.
	r.epoch = ^uint32(0)
	r.Run(0, nil, nil)
	for v, want := range []int32{0, 1, 2, 3} {
		if r.Dist(v) != want {
			t.Fatalf("post-wrap unmasked dist(%d) = %d, want %d", v, r.Dist(v), want)
		}
	}

	// Vertex masks still apply on the run that wraps.
	r.epoch = ^uint32(0)
	r.Run(0, nil, []int{2})
	if r.Dist(1) != 1 || r.Dist(3) != Unreachable {
		t.Fatalf("vertex mask after wrap: d1=%d d3=%d", r.Dist(1), r.Dist(3))
	}
}

func TestMasksAllocatedLazily(t *testing.T) {
	g := gen.SparseGNP(50, 4, 7)
	r := NewRunner(g)
	r.Run(0, nil, nil)
	if r.eOff != nil || r.vOff != nil {
		t.Fatalf("unmasked run allocated disable masks")
	}
	e01, ok := g.EdgeID(0, int(g.Arcs(0)[0].To))
	if !ok {
		t.Fatalf("no incident edge at 0")
	}
	r.Run(0, []int{e01}, nil)
	if len(r.eOff) != g.M() || len(r.vOff) != g.N() {
		t.Fatalf("masked run did not allocate masks: %d/%d", len(r.eOff), len(r.vOff))
	}
	// The one-shot helpers never mask, so they must not pay the M-sized
	// edge mask either.
	r2 := NewRunner(g)
	r2.Run(0, nil, nil)
	if r2.eOff != nil {
		t.Fatalf("one-shot style run allocated eOff")
	}
}

func TestDistsSliceReused(t *testing.T) {
	g := gen.PathGraph(3)
	r := NewRunner(g)
	r.Run(0, nil, nil)
	d := r.Dists()
	if d[2] != 2 {
		t.Fatalf("Dists()[2] = %d", d[2])
	}
	r.Run(2, nil, nil)
	if d[0] != 2 { // same backing array, now from source 2
		t.Fatalf("Dists should be runner-owned storage; got %d", d[0])
	}
}
