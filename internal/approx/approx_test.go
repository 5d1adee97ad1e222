package approx

import (
	"context"
	"errors"

	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/verify"
)

func TestBuildErrors(t *testing.T) {
	g := gen.PathGraph(4)
	if _, err := Build(g, nil, 1, nil); err == nil {
		t.Fatal("empty sources accepted")
	}
	if _, err := Build(g, []int{9}, 1, nil); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := Build(g, []int{0}, 3, nil); err == nil {
		t.Fatal("f=3 accepted")
	}
}

func TestApproxVerifiesAcrossFamilies(t *testing.T) {
	cases := []struct {
		name    string
		f       int
		sources []int
	}{
		{"f0", 0, []int{0}},
		{"f1", 1, []int{0}},
		{"f2", 2, []int{0}},
		{"f1-multi", 1, []int{0, 7}},
		{"f2-multi", 2, []int{0, 5, 11}},
	}
	g := gen.GNP(16, 0.25, 7)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, err := Build(g, c.sources, c.f, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep := verify.FTBFS(g, st.Edges, c.sources, c.f, nil)
			if !rep.OK {
				t.Fatalf("verify failed: %v", rep.Violations)
			}
		})
	}
}

func TestApproxOnMoreFamilies(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":   gen.Grid(4, 4),
		"cycle":  gen.Cycle(12),
		"chords": gen.TreePlusChords(18, 4, 5),
	}
	for name, gr := range graphs {
		for _, f := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/f%d", name, f), func(t *testing.T) {
				st, err := Build(gr, []int{0}, f, nil)
				if err != nil {
					t.Fatal(err)
				}
				rep := verify.FTBFS(gr, st.Edges, []int{0}, f, nil)
				if !rep.OK {
					t.Fatalf("verify: %v", rep.Violations)
				}
				// A cycle's only f≥1 FT-BFS is the whole cycle.
				if name == "cycle" && st.NumEdges() != gr.M() {
					t.Fatalf("cycle structure dropped edges: %d < %d", st.NumEdges(), gr.M())
				}
			})
		}
	}
}

// TestApproxNearOptimalOnTree: on a tree the unique FT-BFS is the tree
// itself (distances are preserved trivially; unreachable stays unreachable),
// so the approximation must return exactly n-1 edges.
func TestApproxNearOptimalOnTree(t *testing.T) {
	g := gen.TreePlusChords(20, 0, 3)
	st, err := Build(g, []int{0}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumEdges() != g.N()-1 {
		t.Fatalf("tree approx kept %d edges, want %d", st.NumEdges(), g.N()-1)
	}
}

// TestApproxWithinLogFactorOfExact compares the approximation against the
// Theorem-1.1 construction (an upper bound on any optimum's achievable
// size): approx ≤ (ln|U|+1) · OPT must hold, and in practice approx should
// be within a log factor of the exact structure.
func TestApproxWithinLogFactorOfExact(t *testing.T) {
	g := gen.GNP(18, 0.25, 13)
	ap, err := Build(g, []int{0}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The exact structure is feasible, so OPT ≤ |ex|; greedy is within
	// ln(U)+1 of OPT per vertex, hence globally within that of 2·OPT
	// (each edge counted from both endpoints).
	u := float64(sched.NumFaultSets(g.M(), 2))
	bound := (math.Log(u) + 1) * 2 * float64(ex.NumEdges())
	if float64(ap.NumEdges()) > bound {
		t.Fatalf("approx %d exceeds theoretical bound %.1f", ap.NumEdges(), bound)
	}
}

func TestApproxUniverseCap(t *testing.T) {
	g := gen.Complete(60) // m = 1770 → ~1.57M pairs for f=2, ×3 sources > cap
	if _, err := Build(g, []int{0, 1, 2}, 2, nil); err == nil {
		t.Fatal("universe cap not enforced")
	}
}

// TestUniverseCapRefusedUpFront: an oversized universe is refused before
// any of it is built, so the refusal allocates almost nothing.
func TestUniverseCapRefusedUpFront(t *testing.T) {
	g := gen.Complete(40) // m = 780 → 304,591 fault sets |F| ≤ 2, ×10 sources > cap
	sources := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	var err error
	allocs := testing.AllocsPerRun(1, func() {
		_, err = Build(g, sources, 2, nil)
	})
	if err == nil {
		t.Fatal("universe cap not enforced")
	}
	if allocs > 10 {
		t.Fatalf("refusal made %.0f allocations", allocs)
	}
}

// TestBuildCancelled: the approximation pass honors Options.Ctx between
// distance-table rows and cover vertices.
func TestBuildCancelled(t *testing.T) {
	g := gen.SparseGNP(30, 4, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := Build(g, []int{0}, 1, &core.Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st != nil {
		t.Fatal("partial structure escaped")
	}
	// With a live context the counters complete and the result is
	// unaffected by the progress plumbing.
	prog := &core.Progress{}
	st, err = Build(g, []int{0}, 1, &core.Options{Progress: prog})
	if err != nil {
		t.Fatal(err)
	}
	ps := prog.Snapshot()
	if ps.UnitsDone != ps.UnitsTotal || ps.UnitsTotal == 0 {
		t.Fatalf("units %d/%d at completion", ps.UnitsDone, ps.UnitsTotal)
	}
	if ps.Dijkstras != int64(st.Stats.Dijkstras) {
		t.Fatalf("progress Dijkstras %d != stats %d", ps.Dijkstras, st.Stats.Dijkstras)
	}
	if ps.EdgesKept != int64(st.NumEdges()) {
		t.Fatalf("progress edges %d != structure %d", ps.EdgesKept, st.NumEdges())
	}
}
