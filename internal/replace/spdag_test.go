package replace

import (
	"testing"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/path"
)

// spDAG is the shortest-path DAG of a graph from a source with some edges
// removed: the directed acyclic graph of all edges that lie on some
// shortest path. Enumerating its paths gives an independent ground truth
// for the engine's divergence choices
// (TestStep1DivergenceNotLaterThanCleanPaths).
type spDAG struct {
	src  int
	dist []int32
	// preds[v] lists the DAG predecessors of v: neighbours u with
	// dist(u) + 1 = dist(v), removed edges excluded.
	preds [][]int32
}

// newSPDAG builds the DAG of g from src with the given edges removed.
func newSPDAG(g *graph.Graph, src int, disabledEdges []int) *spDAG {
	off := make(map[int]bool, len(disabledEdges))
	for _, id := range disabledEdges {
		off[id] = true
	}
	r := bfs.NewRunner(g)
	r.Run(src, disabledEdges, nil)
	d := &spDAG{src: src, dist: append([]int32(nil), r.Dists()...), preds: make([][]int32, g.N())}
	for v := 0; v < g.N(); v++ {
		if d.dist[v] <= 0 {
			continue
		}
		for _, a := range g.Arcs(v) {
			if !off[int(a.ID)] && d.dist[a.To] == d.dist[v]-1 {
				d.preds[v] = append(d.preds[v], a.To)
			}
		}
	}
	return d
}

// allPaths enumerates every shortest source→v path, source first, stopping
// after max paths (0 means no cap; counts grow exponentially on dense
// DAGs).
func (d *spDAG) allPaths(v int, max int) []path.Path {
	if d.dist[v] == bfs.Unreachable {
		return nil
	}
	var out []path.Path
	buf := make([]int, 0, d.dist[v]+1)
	var walk func(u int) bool
	walk = func(u int) bool {
		buf = append(buf, u)
		defer func() { buf = buf[:len(buf)-1] }()
		if u == d.src {
			p := make(path.Path, len(buf))
			for i, w := range buf {
				p[len(buf)-1-i] = w
			}
			out = append(out, p)
			return max == 0 || len(out) < max
		}
		for _, pr := range d.preds[u] {
			if !walk(int(pr)) {
				return false
			}
		}
		return true
	}
	walk(v)
	return out
}

// binomial returns n choose k.
func binomial(n, k int) int {
	c := 1
	for i := 1; i <= k; i++ {
		c = c * (n - k + i) / i
	}
	return c
}

func TestCountPathsGrid(t *testing.T) {
	// In an a×b grid the number of shortest corner-to-corner paths is the
	// binomial coefficient C(a+b-2, a-1).
	g := gen.Grid(3, 4) // C(5,2) = 10
	d := newSPDAG(g, 0, nil)
	if got := len(d.allPaths(11, 0)); got != 10 {
		t.Fatalf("grid path count = %d, want 10", got)
	}
	if d.dist[11] != 5 {
		t.Fatalf("dist = %d", d.dist[11])
	}
}

func TestCountPathsUnderFaults(t *testing.T) {
	g := gen.Cycle(6)
	d := newSPDAG(g, 0, nil)
	// Opposite vertex: two shortest routes around the cycle.
	if got := len(d.allPaths(3, 0)); got != 2 {
		t.Fatalf("cycle count = %d, want 2", got)
	}
	e01, _ := g.EdgeID(0, 1)
	d = newSPDAG(g, 0, []int{e01})
	if got := len(d.allPaths(3, 0)); got != 1 {
		t.Fatalf("faulted cycle count = %d, want 1", got)
	}
	if got := len(d.allPaths(1, 0)); got != 1 { // the long way round
		t.Fatalf("count to 1 = %d", got)
	}
	if d.dist[1] != 5 {
		t.Fatalf("dist to 1 = %d", d.dist[1])
	}
}

func TestCountPathsUnreachable(t *testing.T) {
	gb := graph.NewBuilder(3)
	gb.MustAddEdge(0, 1)
	d := newSPDAG(gb.Freeze(), 0, nil)
	if d.allPaths(2, 0) != nil {
		t.Fatalf("unreachable vertex has paths")
	}
	if d.dist[2] != bfs.Unreachable {
		t.Fatalf("unreachable dist wrong")
	}
}

func TestAllPathsMatchCount(t *testing.T) {
	g := gen.Grid(3, 3)
	d := newSPDAG(g, 0, nil)
	for v := 1; v < g.N(); v++ {
		ps := d.allPaths(v, 0)
		r, c := v/3, v%3
		if want := binomial(r+c, r); len(ps) != want {
			t.Fatalf("v=%d: enumerated %d, want C(%d,%d) = %d", v, len(ps), r+c, r, want)
		}
		seen := map[string]bool{}
		for _, p := range ps {
			if int32(p.Len()) != d.dist[v] || !p.ValidIn(g) || !p.IsSimple() {
				t.Fatalf("invalid enumerated path %v", p)
			}
			if p.First() != 0 || p.Last() != v {
				t.Fatalf("endpoints wrong: %v", p)
			}
			if seen[p.String()] {
				t.Fatalf("duplicate path %v", p)
			}
			seen[p.String()] = true
		}
	}
}

func TestAllPathsCap(t *testing.T) {
	g := gen.Grid(4, 4)
	d := newSPDAG(g, 0, nil)
	if ps := d.allPaths(15, 3); len(ps) != 3 {
		t.Fatalf("cap ignored: %d", len(ps))
	}
	if got := len(d.allPaths(15, 0)); got != binomial(6, 3) {
		t.Fatalf("uncapped enumeration found %d paths, want %d", got, binomial(6, 3))
	}
}
