package lowerbound

import (
	"context"
	"errors"

	"testing"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/verify"
)

func TestBuildTowerRejectsBadArgs(t *testing.T) {
	if _, _, err := BuildTower(0, 3); err == nil {
		t.Fatal("f=0 accepted")
	}
	if _, _, err := BuildTower(1, 1); err == nil {
		t.Fatal("d=1 accepted")
	}
}

func TestTowerSizeMatchesConstruction(t *testing.T) {
	for _, tc := range []struct{ f, d int }{{1, 2}, {1, 3}, {1, 5}, {2, 2}, {2, 3}, {2, 4}, {3, 2}, {3, 3}} {
		g, tower, err := BuildTower(tc.f, tc.d)
		if err != nil {
			t.Fatalf("f=%d d=%d: %v", tc.f, tc.d, err)
		}
		if g.N() != TowerSize(tc.f, tc.d) {
			t.Errorf("f=%d d=%d: N=%d, TowerSize=%d", tc.f, tc.d, g.N(), TowerSize(tc.f, tc.d))
		}
		if len(tower.Leaves) != NumLeaves(tc.f, tc.d) {
			t.Errorf("f=%d d=%d: leaves=%d, want %d", tc.f, tc.d, len(tower.Leaves), NumLeaves(tc.f, tc.d))
		}
		// Towers are trees: unique paths (Lemma 4.3(1)).
		if g.M() != g.N()-1 {
			t.Errorf("f=%d d=%d: tower not a tree: n=%d m=%d", tc.f, tc.d, g.N(), g.M())
		}
		if !g.ConnectedFrom(tower.Root) {
			t.Errorf("f=%d d=%d: tower disconnected", tc.f, tc.d)
		}
	}
}

// TestLemma43 checks all four properties of Lemma 4.3 on several towers.
func TestLemma43(t *testing.T) {
	for _, tc := range []struct{ f, d int }{{1, 4}, {2, 3}, {3, 2}} {
		g, tower, err := BuildTower(tc.f, tc.d)
		if err != nil {
			t.Fatal(err)
		}
		r := bfs.NewRunner(g)
		r.Run(tower.Root, nil, nil)
		// (4) depths strictly decrease left to right, and match BFS.
		for i, lf := range tower.Leaves {
			if int32(lf.Depth) != r.Dist(lf.V) {
				t.Fatalf("f=%d d=%d leaf %d: recorded depth %d, BFS %d", tc.f, tc.d, i, lf.Depth, r.Dist(lf.V))
			}
			if i > 0 && tower.Leaves[i-1].Depth <= lf.Depth {
				t.Fatalf("f=%d d=%d: depths not strictly decreasing at leaf %d", tc.f, tc.d, i)
			}
		}
		for j, lf := range tower.Leaves {
			if len(lf.Label) > tc.f {
				t.Fatalf("leaf %d label too large: %d > f=%d", j, len(lf.Label), tc.f)
			}
			faults := make([]int, 0, len(lf.Label))
			for _, e := range lf.Label {
				id, ok := g.EdgeID(e.U, e.V)
				if !ok {
					t.Fatalf("label edge %v missing from tower", e)
				}
				faults = append(faults, id)
			}
			r.Run(tower.Root, faults, nil)
			// (2) the labelled leaf keeps its exact distance.
			if r.Dist(lf.V) != int32(lf.Depth) {
				t.Fatalf("f=%d d=%d leaf %d: dist under own label = %d, want %d",
					tc.f, tc.d, j, r.Dist(lf.V), lf.Depth)
			}
			// (3) every leaf to the right is disconnected; every leaf to
			// the left keeps its distance.
			for i, other := range tower.Leaves {
				switch {
				case i > j:
					if r.Dist(other.V) != bfs.Unreachable {
						t.Fatalf("f=%d d=%d: leaf %d survives label of leaf %d", tc.f, tc.d, i, j)
					}
				case i < j:
					if r.Dist(other.V) != int32(other.Depth) {
						t.Fatalf("f=%d d=%d: left leaf %d distance changed under label of %d", tc.f, tc.d, i, j)
					}
				}
			}
		}
	}
}

func TestNewInstanceSizing(t *testing.T) {
	for _, tc := range []struct{ f, n int }{{1, 60}, {1, 200}, {2, 120}, {2, 400}, {3, 700}} {
		inst, err := NewInstance(tc.f, tc.n)
		if err != nil {
			t.Fatalf("f=%d n=%d: %v", tc.f, tc.n, err)
		}
		if inst.G.N() > tc.n {
			t.Fatalf("f=%d n=%d: built %d vertices", tc.f, tc.n, inst.G.N())
		}
		if len(inst.X) < 1 {
			t.Fatalf("f=%d n=%d: empty X", tc.f, tc.n)
		}
		wantB := len(inst.Tower.Leaves) * len(inst.X)
		if len(inst.Bipartite) != wantB {
			t.Fatalf("bipartite count %d, want %d", len(inst.Bipartite), wantB)
		}
		if !inst.G.ConnectedFrom(inst.Source) {
			t.Fatalf("instance disconnected")
		}
	}
}

func TestNewInstanceTooSmall(t *testing.T) {
	if _, err := NewInstance(2, 20); err == nil {
		t.Fatal("tiny n accepted")
	}
	if _, err := NewInstance(0, 100); err == nil {
		t.Fatal("f=0 accepted")
	}
	if _, err := NewInstanceD(2, 2, 45); err == nil {
		t.Fatal("no room for X accepted")
	}
}

// TestBipartiteEdgesNecessary is the heart of Theorem 4.1: for every leaf
// and every x, under the leaf's necessity fault set the unique shortest
// s–x route runs through that leaf, so removing the bipartite edge
// lengthens the distance.
func TestBipartiteEdgesNecessary(t *testing.T) {
	for _, tc := range []struct{ f, n int }{{1, 80}, {2, 130}} {
		inst, err := NewInstance(tc.f, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		g := inst.G
		r := bfs.NewRunner(g)
		for l, lf := range inst.Tower.Leaves {
			faults := inst.FaultSetFor(l)
			if len(faults) > tc.f {
				t.Fatalf("f=%d leaf %d: fault set size %d exceeds f", tc.f, l, len(faults))
			}
			r.Run(inst.Source, faults, nil)
			for xi, x := range inst.X {
				want := int32(lf.Depth + 1)
				if got := r.Dist(x); got != want {
					t.Fatalf("f=%d leaf %d x%d: dist under faults = %d, want %d", tc.f, l, xi, got, want)
				}
				// Removing the bipartite edge must strictly lengthen it.
				eid := inst.BipartiteEdge(l, xi)
				r.Run(inst.Source, append([]int{eid}, faults...), nil)
				if got := r.Dist(x); got != bfs.Unreachable && got <= want {
					t.Fatalf("f=%d leaf %d x%d: edge not necessary (dist %d)", tc.f, l, xi, got)
				}
				r.Run(inst.Source, faults, nil) // restore for next x
			}
		}
	}
}

// TestDualStructureOnInstanceContainsBipartite builds the Theorem-1.1
// structure on G*_2 and checks it retains every bipartite edge and verifies.
func TestDualStructureOnInstanceContainsBipartite(t *testing.T) {
	inst, err := NewInstance(2, 110)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.BuildDual(inst.G, inst.Source, &core.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range inst.Bipartite {
		if !st.Edges.Has(id) {
			e := inst.G.EdgeAt(id)
			t.Fatalf("dual structure dropped necessary bipartite edge %v", e)
		}
	}
	rep := verify.FTBFS(inst.G, st.Edges, []int{inst.Source}, 2, nil)
	if !rep.OK {
		t.Fatalf("structure on G*_2 fails verification: %v", rep.Violations)
	}
}

func TestMultiInstance(t *testing.T) {
	mi, err := NewMultiInstance(1, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(mi.Sources) != 3 {
		t.Fatalf("sources = %v", mi.Sources)
	}
	if mi.G.N() > 300 {
		t.Fatalf("oversized: %d", mi.G.N())
	}
	r := bfs.NewRunner(mi.G)
	// Necessity per tower: sample every leaf of each tower with X[0].
	for ti := range mi.Towers {
		tw := &mi.Towers[ti]
		for l, lf := range tw.Leaves {
			faults := mi.FaultSetFor(ti, l)
			if len(faults) > mi.F {
				t.Fatalf("tower %d leaf %d: |F|=%d > f", ti, l, len(faults))
			}
			r.Run(tw.Root, faults, nil)
			want := int32(lf.Depth + 1)
			if got := r.Dist(mi.X[0]); got != want {
				t.Fatalf("tower %d leaf %d: dist = %d, want %d", ti, l, got, want)
			}
			eid, ok := mi.G.EdgeID(lf.V, mi.X[0])
			if !ok {
				t.Fatalf("missing bipartite edge")
			}
			r.Run(tw.Root, append([]int{eid}, faults...), nil)
			if got := r.Dist(mi.X[0]); got != bfs.Unreachable && got <= want {
				t.Fatalf("tower %d leaf %d: edge not necessary", ti, l)
			}
		}
	}
}

func TestMultiInstanceErrors(t *testing.T) {
	if _, err := NewMultiInstance(1, 0, 100); err == nil {
		t.Fatal("σ=0 accepted")
	}
	if _, err := NewMultiInstance(2, 5, 60); err == nil {
		t.Fatal("tiny n accepted")
	}
}

// TestInstanceCancelled: the quadratic bipartite enumeration honors its
// context (lbgen's SIGINT/-timeout path); a live context changes nothing.
func TestInstanceCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewInstanceCtx(ctx, 2, 300); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewInstanceCtx: err = %v, want context.Canceled", err)
	}
	if _, err := NewMultiInstanceCtx(ctx, 1, 2, 400); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewMultiInstanceCtx: err = %v, want context.Canceled", err)
	}
	plain, err := NewInstance(2, 300)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := NewInstanceCtx(context.Background(), 2, 300)
	if err != nil {
		t.Fatal(err)
	}
	if plain.G.M() != ctxed.G.M() || len(plain.Bipartite) != len(ctxed.Bipartite) {
		t.Fatalf("ctx-threaded instance differs: m %d vs %d", plain.G.M(), ctxed.G.M())
	}
}
