package bfs

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestBitsetRegimeDisconnected checks the per-run reset on a graph most of
// whose vertices no run reaches: a disconnected graph must report
// Unreachable for every vertex outside the source component, including
// when the source itself is disabled.
func TestBitsetRegimeDisconnected(t *testing.T) {
	// A path on vertices 0..9; vertices 10..199 isolated.
	b := graph.NewBuilder(200)
	for v := 0; v < 9; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.Freeze()
	r := NewRunner(g)
	r.Run(0, nil, nil)
	for v := 0; v < 10; v++ {
		if r.Dist(v) != int32(v) {
			t.Fatalf("dist[%d] = %d, want %d", v, r.Dist(v), v)
		}
	}
	for v := 10; v < 200; v++ {
		if r.Dist(v) != Unreachable {
			t.Fatalf("dist[%d] = %d, want Unreachable", v, r.Dist(v))
		}
	}
	// Disabled source: everything unreachable.
	r.Run(0, nil, []int{0})
	for v := 0; v < 200; v++ {
		if r.Dist(v) != Unreachable {
			t.Fatalf("disabled source: dist[%d] = %d, want Unreachable", v, r.Dist(v))
		}
	}
}

// refBFS is an independent, naive BFS used as ground truth for the large
// graph test — no shared code with the runner's scan loops.
func refBFS(g *graph.Graph, src int, disabledEdges []int) []int32 {
	off := make(map[int]bool, len(disabledEdges))
	for _, e := range disabledEdges {
		off[e] = true
	}
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, a := range g.Arcs(v) {
			if off[int(a.ID)] || dist[a.To] != Unreachable {
				continue
			}
			dist[a.To] = dist[v] + 1
			queue = append(queue, int(a.To))
		}
	}
	return dist
}

// TestBitsetRegimeThreshold checks the unmasked and masked scans over a
// graph of more than 64k vertices against an independent reference BFS.
func TestBitsetRegimeThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("large graph generation in -short mode")
	}
	n := 1<<16 + 1024
	g := gen.TreePlusChords(n, 500, 7)
	r := NewRunner(g)
	r.Run(0, nil, nil)
	want := refBFS(g, 0, nil)
	for v := 0; v < n; v++ {
		if r.Dist(v) != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, r.Dist(v), want[v])
		}
	}
	// A masked run through the same (reused) runner must also agree.
	faults := []int{3, 17, 4000}
	r.Run(0, faults, nil)
	want = refBFS(g, 0, faults)
	for v := 0; v < n; v++ {
		if r.Dist(v) != want[v] {
			t.Fatalf("masked dist[%d] = %d, want %d", v, r.Dist(v), want[v])
		}
	}
}
