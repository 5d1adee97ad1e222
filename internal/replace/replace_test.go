package replace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/wsp"
)

func newEngine(t *testing.T, g *graph.Graph, s int, seed int64) *Engine {
	t.Helper()
	return NewEngine(wsp.NewTree(g, wsp.NewAssignment(g.M(), seed), s))
}

func TestTreeBasics(t *testing.T) {
	g := gen.Grid(3, 3)
	tree := wsp.NewTree(g, wsp.NewAssignment(g.M(), 1), 0)
	eng := NewEngine(tree)
	if tree.Source() != 0 || tree.Graph() != g {
		t.Fatal("accessors wrong")
	}
	if tree.HopDist(8) != 4 {
		t.Fatalf("HopDist(8) = %d", tree.HopDist(8))
	}
	if got := len(eng.TreeEdges()); got != 8 {
		t.Fatalf("tree edge count = %d, want n-1", got)
	}
	pi := eng.PiTo(8)
	if pi.Len() != 4 || pi.First() != 0 || pi.Last() != 8 || !pi.ValidIn(g) {
		t.Fatalf("PiTo(8) = %v", pi)
	}
	// E(v,T0) contains the parent edge of every non-root vertex.
	for v := 1; v < g.N(); v++ {
		ids := eng.TreeEdgesAt(v)
		if len(ids) == 0 {
			t.Fatalf("TreeEdgesAt(%d) empty", v)
		}
	}
}

func TestBuildTargetNilCases(t *testing.T) {
	gb := graph.NewBuilder(4)
	gb.MustAddEdge(0, 1)
	gb.MustAddEdge(2, 3)
	g := gb.Freeze()
	eng := newEngine(t, g, 0, 1)
	if eng.BuildTarget(0, false) != nil {
		t.Fatal("source target should be nil")
	}
	if eng.BuildTarget(2, false) != nil {
		t.Fatal("unreachable target should be nil")
	}
	if eng.BuildTargetSingle(0, false) != nil || eng.BuildTargetSingle(3, false) != nil {
		t.Fatal("single-step nil cases wrong")
	}
}

// TestSingleFaultPathsAreOptimal checks Lemma 3.1 for Step 1: every chosen
// replacement path is a shortest path of G \ {e_i} and avoids the fault.
func TestSingleFaultPathsAreOptimal(t *testing.T) {
	g := gen.GNP(24, 0.2, 5)
	eng := newEngine(t, g, 0, 9)
	r := bfs.NewRunner(g)
	for v := 1; v < g.N(); v++ {
		tr := eng.BuildTarget(v, true)
		if tr == nil {
			t.Fatalf("nil target %d", v)
		}
		for _, rec := range tr.Records {
			if rec.Kind != KindSingle {
				continue
			}
			r.Run(0, rec.FaultIDs, nil)
			if rec.Unreachable {
				if r.Dist(v) != bfs.Unreachable {
					t.Fatalf("v=%d e=%d: recorded unreachable but dist=%d", v, rec.EIdx, r.Dist(v))
				}
				continue
			}
			if int32(rec.Path.Len()) != r.Dist(v) {
				t.Fatalf("v=%d e=%d: len=%d want %d", v, rec.EIdx, rec.Path.Len(), r.Dist(v))
			}
			if rec.Path.ContainsAnyEdgeID(g, rec.FaultIDs) {
				t.Fatalf("v=%d e=%d: path traverses its fault", v, rec.EIdx)
			}
			if !rec.Path.ValidIn(g) || !rec.Path.IsSimple() {
				t.Fatalf("v=%d e=%d: invalid path %v", v, rec.EIdx, rec.Path)
			}
		}
	}
}

// TestDetourShape checks Claim 3.4: every Step-1 path decomposes as
// π(s,x) ∘ D ∘ π(y,v) with the detour interior disjoint from π and the
// failing edge inside π(x,y).
func TestDetourShape(t *testing.T) {
	g := gen.GNP(26, 0.18, 13)
	eng := newEngine(t, g, 0, 3)
	for v := 1; v < g.N(); v++ {
		tr := eng.BuildTarget(v, true)
		if tr == nil {
			continue
		}
		piPos := tr.Pi.Pos()
		for i, det := range tr.Detours {
			if !det.Valid {
				continue
			}
			if det.XPos >= det.YPos {
				t.Fatalf("v=%d i=%d: XPos=%d YPos=%d", v, i, det.XPos, det.YPos)
			}
			// Fault inside π(x,y).
			if !(det.XPos <= i && i < det.YPos) {
				t.Fatalf("v=%d: fault %d outside detour span [%d,%d)", v, i, det.XPos, det.YPos)
			}
			// Interior disjoint from π.
			for j := 1; j+1 < len(det.Path); j++ {
				if _, on := piPos[det.Path[j]]; on {
					t.Fatalf("v=%d i=%d: detour interior vertex %d on π", v, i, det.Path[j])
				}
			}
			// Endpoints on π at the declared positions.
			if piPos[det.X()] != det.XPos || piPos[det.Y()] != det.YPos {
				t.Fatalf("v=%d i=%d: endpoint positions inconsistent", v, i)
			}
			// Edge IDs consistent with the path.
			if len(det.EdgeIDs) != det.Path.Len() {
				t.Fatalf("v=%d i=%d: edge id count %d != len %d", v, i, len(det.EdgeIDs), det.Path.Len())
			}
		}
	}
}

// TestDualFaultPathsAreOptimal checks that every Step-2/Step-3 path is a
// shortest path of G \ F avoiding F.
func TestDualFaultPathsAreOptimal(t *testing.T) {
	g := gen.GNP(20, 0.22, 21)
	eng := newEngine(t, g, 0, 17)
	r := bfs.NewRunner(g)
	records := 0
	for v := 1; v < g.N(); v++ {
		tr := eng.BuildTarget(v, true)
		if tr == nil {
			continue
		}
		for _, rec := range tr.Records {
			if rec.Kind == KindSingle {
				continue
			}
			records++
			r.Run(0, rec.FaultIDs, nil)
			if rec.Unreachable {
				if r.Dist(v) != bfs.Unreachable {
					t.Fatalf("v=%d %v: recorded unreachable, dist=%d", v, rec.FaultIDs, r.Dist(v))
				}
				continue
			}
			if rec.Path == nil {
				t.Fatalf("v=%d %v: reachable but no path", v, rec.FaultIDs)
			}
			if int32(rec.Path.Len()) != r.Dist(v) {
				t.Fatalf("v=%d F=%v kind=%v: len=%d want %d", v, rec.FaultIDs, rec.Kind, rec.Path.Len(), r.Dist(v))
			}
			if rec.Path.ContainsAnyEdgeID(g, rec.FaultIDs) {
				t.Fatalf("v=%d F=%v: path traverses fault", v, rec.FaultIDs)
			}
			if !rec.Path.ValidIn(g) {
				t.Fatalf("v=%d F=%v: invalid path", v, rec.FaultIDs)
			}
		}
	}
	if records == 0 {
		t.Fatal("no dual-fault records exercised")
	}
}

// TestNewEndingDivergenceUnique checks Claim 3.5 for Step-3 new-ending
// paths: the suffix from the π-divergence point never returns to π before v.
func TestNewEndingDivergenceUnique(t *testing.T) {
	g := gen.GNP(24, 0.18, 33)
	eng := newEngine(t, g, 0, 29)
	newEnding := 0
	for v := 1; v < g.N(); v++ {
		tr := eng.BuildTarget(v, true)
		if tr == nil {
			continue
		}
		piPos := tr.Pi.Pos()
		for _, rec := range tr.Records {
			if rec.Kind != KindPiD || !rec.NewEnding || rec.UsedFallback || rec.Path == nil {
				continue
			}
			newEnding++
			if rec.BPos < 0 {
				t.Fatalf("v=%d: new-ending path without divergence", v)
			}
			// After position BPos on the path, no π vertex until v.
			for j := rec.BPos + 1; j+1 < len(rec.Path); j++ {
				if _, on := piPos[rec.Path[j]]; on {
					t.Fatalf("v=%d F=%v: new-ending path returns to π at %d (pos %d, b=%d): %v | pi=%v",
						v, rec.FaultIDs, rec.Path[j], j, rec.BPos, rec.Path, tr.Pi)
				}
			}
			// Its last edge must not be a tree edge of T0 incident to v.
			if rec.LastEdgeID < 0 {
				t.Fatalf("v=%d: new-ending path without last edge", v)
			}
		}
	}
	if newEnding == 0 {
		t.Skip("no new-ending paths on this instance")
	}
}

// TestStep3OrderDecreasing checks the (e,t)-processing order of Step 3.
func TestStep3OrderDecreasing(t *testing.T) {
	g := gen.GNP(22, 0.2, 41)
	eng := newEngine(t, g, 0, 43)
	for v := 1; v < g.N(); v++ {
		tr := eng.BuildTarget(v, true)
		if tr == nil {
			continue
		}
		lastE, lastT := 1<<30, 1<<30
		for _, rec := range tr.Records {
			if rec.Kind != KindPiD {
				continue
			}
			if rec.EIdx > lastE || (rec.EIdx == lastE && rec.SecondIdx >= lastT) {
				t.Fatalf("v=%d: order violated: (%d,%d) after (%d,%d)", v, rec.EIdx, rec.SecondIdx, lastE, lastT)
			}
			lastE, lastT = rec.EIdx, rec.SecondIdx
		}
	}
}

// TestHEdgesIncidentToTarget checks that H(v) only contains edges touching v
// plus that NewEdges excludes tree edges.
func TestHEdgesIncidentToTarget(t *testing.T) {
	g := gen.GNP(20, 0.25, 3)
	eng := newEngine(t, g, 0, 11)
	for v := 1; v < g.N(); v++ {
		tr := eng.BuildTarget(v, true)
		if tr == nil {
			continue
		}
		for _, id := range tr.HEdges {
			e := g.EdgeAt(id)
			if e.U != v && e.V != v {
				t.Fatalf("v=%d: H(v) edge %v not incident to v", v, e)
			}
		}
		tree := make(map[int]bool)
		for _, id := range eng.TreeEdgesAt(v) {
			tree[id] = true
		}
		for _, id := range tr.NewEdges {
			if tree[id] {
				t.Fatalf("v=%d: NewEdges contains tree edge %d", v, id)
			}
		}
	}
}

// Property: on random sparse graphs, replacement paths from random engines
// always realize the true fault-restricted distances (Step 1–3 combined).
func TestQuickReplacementOptimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(16)
		g := gen.SparseGNP(n, 3, seed)
		eng := NewEngine(wsp.NewTree(g, wsp.NewAssignment(g.M(), seed+1), 0))
		r := bfs.NewRunner(g)
		for v := 1; v < n; v++ {
			tr := eng.BuildTarget(v, true)
			if tr == nil {
				return false
			}
			for _, rec := range tr.Records {
				r.Run(0, rec.FaultIDs, nil)
				want := r.Dist(v)
				if rec.Unreachable {
					if want != bfs.Unreachable {
						return false
					}
					continue
				}
				if rec.Path == nil || int32(rec.Path.Len()) != want {
					return false
				}
				if rec.Path.ContainsAnyEdgeID(g, rec.FaultIDs) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if KindSingle.String() != "single" || KindPiPi.String() != "(pi,pi)" || KindPiD.String() != "(pi,D)" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind string wrong")
	}
}
