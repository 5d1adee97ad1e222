package wsp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/path"
)

func TestWeightLessAdd(t *testing.T) {
	a := Weight{Hops: 2, Tie: 100}
	b := Weight{Hops: 3, Tie: 1}
	if !a.Less(b) || b.Less(a) {
		t.Fatalf("hops should dominate")
	}
	c := Weight{Hops: 2, Tie: 99}
	if !c.Less(a) || a.Less(c) {
		t.Fatalf("tie should break equal hops")
	}
	sum := a.Add(c)
	if sum.Hops != 4 || sum.Tie != 199 {
		t.Fatalf("Add = %+v", sum)
	}
}

func TestAssignmentDeterministic(t *testing.T) {
	a := NewAssignment(10, 42)
	b := NewAssignment(10, 42)
	for i := 0; i < 10; i++ {
		if a.EdgeWeight(i) != b.EdgeWeight(i) {
			t.Fatalf("same seed produced different assignments")
		}
		w := a.EdgeWeight(i)
		if w.Hops != 1 || w.Tie <= 0 || w.Tie >= TieRange {
			t.Fatalf("edge weight out of range: %+v", w)
		}
	}
	c := NewAssignment(10, 43)
	same := true
	for i := 0; i < 10; i++ {
		if a.EdgeWeight(i) != c.EdgeWeight(i) {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical assignments")
	}
}

// kernel is what the Search tests ask of a WSP search. They run on the
// heap reference and on RepairSearch's scratch sweep.
type kernel interface {
	Run(src int, opt Options)
	Reachable(v int) bool
	HopDist(v int) int32
	PathTo(v int) path.Path
	ParentOf(v int) int
	ParentEdgeOf(v int) int
	TieWarnings() int
}

// otherSource sends every Run to a RepairSearch over a tree rooted at a
// vertex other than the run's source, so each run is a scratch sweep. The
// graph needs two vertices.
type otherSource struct {
	*RepairSearch               // the one the last Run went to
	at0, at1      *RepairSearch // over trees rooted at vertices 0 and 1
}

func newOtherSource(g *graph.Graph, w *Assignment) *otherSource {
	return &otherSource{at0: NewRepairSearch(NewTree(g, w, 0)), at1: NewRepairSearch(NewTree(g, w, 1))}
}

func (k *otherSource) Run(src int, opt Options) {
	k.RepairSearch = k.at0
	if src == 0 {
		k.RepairSearch = k.at1
	}
	k.RepairSearch.Run(src, opt)
}

// TieWarnings sums both searches' counts, so it accumulates across runs
// as Search's does.
func (k *otherSource) TieWarnings() int { return k.at0.ties + k.at1.ties }

// newKernel makes a kernel over g under w.
type newKernel func(g *graph.Graph, w *Assignment) kernel

// forKernels runs f as one subtest per kernel: "heap" on the reference
// Search, "scratch" on RepairSearch's scratch sweep.
func forKernels(t *testing.T, f func(t *testing.T, newK newKernel)) {
	t.Run("heap", func(t *testing.T) {
		f(t, func(g *graph.Graph, w *Assignment) kernel { return NewSearch(g, w) })
	})
	t.Run("scratch", func(t *testing.T) {
		f(t, func(g *graph.Graph, w *Assignment) kernel { return newOtherSource(g, w) })
	})
}

func TestSearchPathOnPathGraph(t *testing.T) {
	forKernels(t, func(t *testing.T, newK newKernel) {
		g := gen.PathGraph(5)
		s := newK(g, NewAssignment(g.M(), 1))
		s.Run(0, Options{Target: -1})
		for v := 0; v < 5; v++ {
			if s.HopDist(v) != int32(v) {
				t.Fatalf("dist(%d) = %d", v, s.HopDist(v))
			}
		}
		p := s.PathTo(4)
		if p.String() != "0-1-2-3-4" {
			t.Fatalf("PathTo(4) = %v", p)
		}
		if e34, _ := g.EdgeID(3, 4); s.ParentOf(4) != 3 || s.ParentEdgeOf(4) != e34 {
			t.Fatalf("parent of 4 = (%d, edge %d), want (3, edge %d)", s.ParentOf(4), s.ParentEdgeOf(4), e34)
		}
		if s.ParentOf(0) != -1 || s.ParentEdgeOf(0) != -1 {
			t.Fatalf("source has parent (%d, edge %d)", s.ParentOf(0), s.ParentEdgeOf(0))
		}
	})
}

func TestSearchDisabledEdge(t *testing.T) {
	forKernels(t, func(t *testing.T, newK newKernel) {
		g := gen.Cycle(6) // 0-1-2-3-4-5-0
		e01, _ := g.EdgeID(0, 1)
		s := newK(g, NewAssignment(g.M(), 1))
		s.Run(0, Options{Target: -1, DisabledEdges: []int{e01}})
		if s.HopDist(1) != 5 {
			t.Fatalf("dist(1) with 0-1 cut = %d, want 5", s.HopDist(1))
		}
	})
}

func TestSearchDisabledVertex(t *testing.T) {
	forKernels(t, func(t *testing.T, newK newKernel) {
		g := gen.PathGraph(5)
		s := newK(g, NewAssignment(g.M(), 1))
		s.Run(0, Options{Target: -1, DisabledVertices: []int{2}})
		if s.Reachable(3) || s.Reachable(4) {
			t.Fatalf("vertices past the cut should be unreachable")
		}
		if s.HopDist(3) != -1 {
			t.Fatalf("HopDist of unreachable = %d", s.HopDist(3))
		}
		if s.PathTo(4) != nil {
			t.Fatalf("PathTo of unreachable should be nil")
		}
	})
}

func TestSearchDisabledSource(t *testing.T) {
	forKernels(t, func(t *testing.T, newK newKernel) {
		g := gen.PathGraph(3)
		s := newK(g, NewAssignment(g.M(), 1))
		s.Run(0, Options{Target: -1, DisabledVertices: []int{0}})
		for v := 0; v < 3; v++ {
			if s.Reachable(v) {
				t.Fatalf("disabled source: %d reachable", v)
			}
		}
	})
}

func TestSearchTargetEarlyExit(t *testing.T) {
	forKernels(t, func(t *testing.T, newK newKernel) {
		g := gen.PathGraph(10)
		s := newK(g, NewAssignment(g.M(), 1))
		s.Run(0, Options{Target: 3})
		if s.HopDist(3) != 3 {
			t.Fatalf("target dist = %d", s.HopDist(3))
		}
		if s.Reachable(9) {
			t.Fatalf("early exit should not settle beyond target")
		}
	})
}

func TestSearchMaskResetBetweenRuns(t *testing.T) {
	forKernels(t, func(t *testing.T, newK newKernel) {
		g := gen.Cycle(4)
		e01, _ := g.EdgeID(0, 1)
		s := newK(g, NewAssignment(g.M(), 1))
		s.Run(0, Options{Target: -1, DisabledEdges: []int{e01}})
		if s.HopDist(1) != 3 {
			t.Fatalf("masked run dist = %d", s.HopDist(1))
		}
		s.Run(0, Options{Target: -1})
		if s.HopDist(1) != 1 {
			t.Fatalf("mask leaked into next run: dist = %d", s.HopDist(1))
		}
	})
}

// Property: hop distances agree with plain BFS on random graphs, with and
// without random fault sets.
func TestSearchQuickAgainstBFS(t *testing.T) {
	forKernels(t, func(t *testing.T, newK newKernel) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 5 + rng.Intn(40)
			g := gen.SparseGNP(n, 4, seed)
			s := newK(g, NewAssignment(g.M(), seed+7))
			r := bfs.NewRunner(g)
			for trial := 0; trial < 5; trial++ {
				var faults []int
				for k := rng.Intn(3); k > 0; k-- {
					faults = append(faults, rng.Intn(g.M()))
				}
				src := rng.Intn(n)
				s.Run(src, Options{Target: -1, DisabledEdges: faults})
				r.Run(src, faults, nil)
				for v := 0; v < n; v++ {
					if s.HopDist(v) != r.Dist(v) {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: the canonical path is valid, simple, has the reported length,
// and its subpaths are themselves canonical (subpath optimality of unique
// shortest paths).
func TestSearchQuickCanonicalSubpaths(t *testing.T) {
	forKernels(t, func(t *testing.T, newK newKernel) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 5 + rng.Intn(30)
			g := gen.SparseGNP(n, 5, seed)
			w := NewAssignment(g.M(), seed+13)
			s := newK(g, w)
			src := rng.Intn(n)
			s.Run(src, Options{Target: -1})
			// Record full paths for every target.
			paths := make(map[int]string)
			for v := 0; v < n; v++ {
				p := s.PathTo(v)
				if p == nil {
					return false // connected graph
				}
				if !p.ValidIn(g) || !p.IsSimple() || int32(p.Len()) != s.HopDist(v) {
					return false
				}
				paths[v] = p.String()
			}
			// Subpath optimality: the canonical path to an intermediate
			// vertex u on the canonical path to v equals that path's prefix.
			for v := 0; v < n; v++ {
				p := s.PathTo(v)
				for i := range p {
					prefix := p.Sub(0, i)
					if paths[p[i]] != prefix.String() {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: re-running the same search gives identical trees (determinism),
// and tie warnings stay zero on small random graphs.
func TestSearchQuickDeterminism(t *testing.T) {
	forKernels(t, func(t *testing.T, newK newKernel) {
		f := func(seed int64) bool {
			n := 30
			g := gen.SparseGNP(n, 6, seed)
			w := NewAssignment(g.M(), seed)
			s1 := newK(g, w)
			s2 := newK(g, w)
			s1.Run(0, Options{Target: -1})
			s2.Run(0, Options{Target: -1})
			for v := 0; v < n; v++ {
				if s1.ParentOf(v) != s2.ParentOf(v) || s1.ParentEdgeOf(v) != s2.ParentEdgeOf(v) {
					return false
				}
			}
			return s1.TieWarnings() == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSearchEpochWraparound runs each kernel across a wrap of its epoch
// counter: on the heap, on the scratch sweep, and on RepairSearch from its
// tree's own source. A first run at epoch 1 leaves stamps equal to the
// epoch the wrap resets to, so a wrap that kept them would apply the first
// run's mask again.
func TestSearchEpochWraparound(t *testing.T) {
	g := gen.PathGraph(4)
	w := NewAssignment(g.M(), 1)
	heap := NewSearch(g, w)
	scratch := newOtherSource(g, w)
	home := NewRepairSearch(NewTree(g, w, 0))
	for _, c := range []struct {
		name     string
		k        kernel
		setEpoch func(uint32)
	}{
		{"heap", heap, func(e uint32) { heap.epoch = e }},
		{"scratch", scratch, func(e uint32) { scratch.at1.ep = e }},
		{"home", home, func(e uint32) { home.ep = e }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := c.k
			c.setEpoch(0)
			s.Run(0, Options{Target: -1, DisabledVertices: []int{1}}) // epoch 1
			if s.Reachable(3) {
				t.Fatalf("mask ignored at epoch 1")
			}
			c.setEpoch(^uint32(0) - 1) // the next run takes the last epoch
			s.Run(0, Options{Target: -1, DisabledVertices: []int{2}})
			if s.Reachable(3) {
				t.Fatalf("mask ignored at the last epoch before the wrap")
			}
			s.Run(0, Options{Target: -1}) // wraps to 0, resets stamps, runs at epoch 1
			if !s.Reachable(3) || s.HopDist(3) != 3 {
				t.Fatalf("post-wrap run wrong: dist=%d", s.HopDist(3))
			}
			s.Run(0, Options{Target: -1, DisabledVertices: []int{2}})
			if s.Reachable(3) || !s.Reachable(1) {
				t.Fatalf("post-wrap masked run wrong: reachable(1)=%v reachable(3)=%v", s.Reachable(1), s.Reachable(3))
			}
		})
	}
}
