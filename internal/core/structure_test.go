package core

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

// buildAndVerify builds with the given builder and exhaustively verifies the
// result for the structure's fault budget.
func buildAndVerify(t *testing.T, name string, g *graph.Graph, s int,
	build func(*graph.Graph, int, *Options) (*Structure, error)) *Structure {
	t.Helper()
	st, err := build(g, s, &Options{Seed: 7})
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	rep := verify.FTBFS(g, st.Edges, []int{s}, st.Faults, nil)
	if !rep.OK {
		t.Fatalf("%s: verification failed (%d checked): first violations %v",
			name, rep.FaultSetsChecked, rep.Violations)
	}
	return st
}

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{
		"path10":    gen.PathGraph(10),
		"cycle9":    gen.Cycle(9),
		"grid4x4":   gen.Grid(4, 4),
		"gnp20":     gen.GNP(20, 0.2, 3),
		"gnp25d":    gen.GNP(25, 0.35, 11),
		"sparse30":  gen.SparseGNP(30, 3.5, 5),
		"layered":   gen.Layered(4, 5, 0.4, 2),
		"chords":    gen.TreePlusChords(24, 6, 9),
		"complete8": gen.Complete(8),
		"hcube4":    gen.Hypercube(4),
	}
	for name, g := range gs {
		if err := gen.Validate(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return gs
}

func TestBuildDualVerifiesEverywhere(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			st := buildAndVerify(t, name, g, 0, BuildDual)
			if st.NumEdges() > g.M() {
				t.Fatalf("structure larger than graph")
			}
			if st.Stats.TieWarnings != 0 {
				t.Errorf("tie warnings: %d", st.Stats.TieWarnings)
			}
		})
	}
}

func TestBuildDualFromOtherSources(t *testing.T) {
	g := gen.GNP(18, 0.25, 4)
	for _, s := range []int{3, 9, 17} {
		buildAndVerify(t, "gnp18", g, s, BuildDual)
	}
}

func TestBuildSingleVerifies(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			buildAndVerify(t, name, g, 0, BuildSingle)
		})
	}
}

func TestBuildSingleSmallerThanDual(t *testing.T) {
	g := gen.GNP(30, 0.3, 8)
	one, err := BuildSingle(g, 0, &Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	two, err := BuildDual(g, 0, &Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if one.NumEdges() > two.NumEdges() {
		t.Fatalf("single (%d edges) larger than dual (%d edges)", one.NumEdges(), two.NumEdges())
	}
}

func TestBuildExhaustiveMatchesDefinition(t *testing.T) {
	g := gen.GNP(14, 0.25, 6)
	for f := 0; f <= 2; f++ {
		st, err := BuildExhaustive(g, 0, f, &Options{Seed: 3})
		if err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		rep := verify.FTBFS(g, st.Edges, []int{0}, f, nil)
		if !rep.OK {
			t.Fatalf("f=%d: %v", f, rep.Violations)
		}
	}
}

func TestBuildExhaustiveF3SmallGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("f=3 exhaustive build is cubic in m")
	}
	g := gen.Cycle(8)
	st, err := BuildExhaustive(g, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A cycle minus 3 edges: any f=3 FT-BFS of a cycle must keep all edges.
	if st.NumEdges() != g.M() {
		t.Fatalf("cycle f=3 structure has %d edges, want %d", st.NumEdges(), g.M())
	}
	rep := verify.Sampled(g, st.Edges, []int{0}, 3, 200, 1, nil)
	if !rep.OK {
		t.Fatalf("sampled verify: %v", rep.Violations)
	}
}

func TestBuildExhaustiveRejectsBadArgs(t *testing.T) {
	g := gen.PathGraph(4)
	if _, err := BuildExhaustive(g, -1, 1, nil); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := BuildExhaustive(g, 0, 4, nil); err == nil {
		t.Fatal("f=4 accepted")
	}
}

// TestBuildDualRejectsBadSource covers the per-target builders' source
// check, which runs before T0 is built.
func TestBuildDualRejectsBadSource(t *testing.T) {
	g := gen.PathGraph(4)
	for _, s := range []int{-1, 4} {
		if _, err := BuildDual(g, s, nil); err == nil {
			t.Fatalf("BuildDual accepted source %d", s)
		}
		if _, err := BuildSingle(g, s, nil); err == nil {
			t.Fatalf("BuildSingle accepted source %d", s)
		}
	}
}

func TestBuildFullPathsSupersetOfDual(t *testing.T) {
	g := gen.GNP(20, 0.25, 12)
	dual, err := BuildDual(g, 0, &Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildFullPaths(g, 0, &Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dual.Edges.ForEach(func(id int) {
		if !full.Edges.Has(id) {
			t.Fatalf("edge %d in dual but not in full-paths structure", id)
		}
	})
	rep := verify.FTBFS(g, full.Edges, []int{0}, 2, nil)
	if !rep.OK {
		t.Fatalf("full-paths structure invalid: %v", rep.Violations)
	}
}

func TestBuildMultiSource(t *testing.T) {
	g := gen.GNP(16, 0.3, 2)
	st, err := BuildMultiSource(g, []int{0, 5, 5, 11}, &Options{Seed: 1}, BuildDual)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sources) != 3 {
		t.Fatalf("sources deduped to %v", st.Sources)
	}
	rep := verify.FTBFS(g, st.Edges, []int{0, 5, 11}, 2, nil)
	if !rep.OK {
		t.Fatalf("multi-source verify: %v", rep.Violations)
	}
}

func TestBuildMultiSourceEmpty(t *testing.T) {
	g := gen.PathGraph(3)
	if _, err := BuildMultiSource(g, nil, nil, BuildDual); err == nil {
		t.Fatal("empty source set accepted")
	}
}

func TestStructureAccessors(t *testing.T) {
	g := gen.PathGraph(5)
	st, err := BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A path graph admits no alternative routes: H must be the whole path.
	if st.NumEdges() != 4 {
		t.Fatalf("path structure edges = %d", st.NumEdges())
	}
	if len(st.DisabledEdges()) != 0 {
		t.Fatalf("path structure should keep every edge")
	}
	sub := st.Subgraph()
	if sub.M() != 4 || sub.N() != 5 {
		t.Fatalf("subgraph wrong: n=%d m=%d", sub.N(), sub.M())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := gen.GNP(22, 0.25, 19)
	a, err := BuildDual(g, 0, &Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildDual(g, 0, &Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed, different sizes: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	ida, idb := a.Edges.IDs(), b.Edges.IDs()
	for i := range ida {
		if ida[i] != idb[i] {
			t.Fatalf("same seed, different edge sets")
		}
	}
}

func TestDualOnDisconnectedGraph(t *testing.T) {
	gb := graph.NewBuilder(6)
	gb.MustAddEdge(0, 1)
	gb.MustAddEdge(1, 2)
	gb.MustAddEdge(3, 4) // separate component
	gb.MustAddEdge(4, 5)
	g := gb.Freeze()
	st, err := BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := verify.FTBFS(g, st.Edges, []int{0}, 2, nil)
	if !rep.OK {
		t.Fatalf("disconnected verify: %v", rep.Violations)
	}
}

func TestSummaryContainsEnvelopes(t *testing.T) {
	g := gen.GNP(20, 0.3, 3)
	st, err := BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := st.Summary()
	for _, want := range []string{"sources=[0] f=2", "edges kept", "Theorem 1.1", "searches"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	one, err := BuildSingle(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(one.Summary(), "n^{3/2}") {
		t.Fatalf("single summary missing envelope:\n%s", one.Summary())
	}
	vx, err := BuildVertexExhaustive(g, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vx.Summary(), "vertex faults") {
		t.Fatalf("vertex summary missing model:\n%s", vx.Summary())
	}
}

// TestParallelBuildMatchesSequential: the per-target builders produce the
// same edge set AND the same BuildStats at every worker count — the
// shared base tree's search is counted once, where the tree is built, and
// each worker's engine counts only its own runs.
func TestParallelBuildMatchesSequential(t *testing.T) {
	g := gen.SparseGNP(60, 5, 21)
	for name, build := range map[string]func(*graph.Graph, int, *Options) (*Structure, error){
		"dual":   BuildDual,
		"single": BuildSingle,
	} {
		seq, err := build(g, 0, &Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 7} {
			par, err := build(g, 0, &Options{Seed: 9, Parallelism: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !sameEdgeSets(seq, par) {
				t.Fatalf("%s workers=%d: edge sets differ (%d vs %d edges)",
					name, workers, par.NumEdges(), seq.NumEdges())
			}
			if par.Stats != seq.Stats {
				t.Fatalf("%s workers=%d: stats %+v, sequential %+v", name, workers, par.Stats, seq.Stats)
			}
		}
	}
}

func TestParallelBuildSingleAndCollect(t *testing.T) {
	g := gen.GNP(24, 0.25, 13)
	par, err := BuildSingle(g, 0, &Options{Seed: 2, Parallelism: 3, CollectPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := verify.FTBFS(g, par.Edges, []int{0}, 1, nil)
	if !rep.OK {
		t.Fatalf("parallel single verify: %v", rep.Violations)
	}
	filled := 0
	for _, tr := range par.Targets {
		if tr != nil {
			filled++
		}
	}
	if filled != g.N()-1 {
		t.Fatalf("collected %d targets, want %d", filled, g.N()-1)
	}
}

// sameEdgeSets reports whether two structures keep exactly the same edges.
func sameEdgeSets(a, b *Structure) bool {
	ida, idb := a.Edges.IDs(), b.Edges.IDs()
	if len(ida) != len(idb) {
		return false
	}
	for i := range ida {
		if ida[i] != idb[i] {
			return false
		}
	}
	return true
}

// TestBuildExhaustiveParallelMatches checks Options.Parallelism on the
// exhaustive builder: identical edge set and counters for any worker
// count, including workers exceeding the work.
func TestBuildExhaustiveParallelMatches(t *testing.T) {
	g := gen.GNP(14, 0.3, 6)
	for _, f := range []int{0, 1, 2} {
		seq, err := BuildExhaustive(g, 0, f, &Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8, 64} {
			par, err := BuildExhaustive(g, 0, f, &Options{Seed: 5, Parallelism: workers})
			if err != nil {
				t.Fatalf("f=%d workers=%d: %v", f, workers, err)
			}
			if !sameEdgeSets(seq, par) {
				t.Fatalf("f=%d workers=%d: edge sets differ (%d vs %d edges)",
					f, workers, seq.NumEdges(), par.NumEdges())
			}
			if par.Stats.Dijkstras != seq.Stats.Dijkstras {
				t.Fatalf("f=%d workers=%d: Dijkstras %d vs %d",
					f, workers, par.Stats.Dijkstras, seq.Stats.Dijkstras)
			}
			if par.Stats.TieWarnings != seq.Stats.TieWarnings {
				t.Fatalf("f=%d workers=%d: TieWarnings %d vs %d",
					f, workers, par.Stats.TieWarnings, seq.Stats.TieWarnings)
			}
		}
	}
}

// TestBuildVertexExhaustiveParallelMatches is the same equivalence check
// for the vertex-failure builder.
func TestBuildVertexExhaustiveParallelMatches(t *testing.T) {
	g := gen.GNP(14, 0.3, 6)
	for _, f := range []int{1, 2} {
		seq, err := BuildVertexExhaustive(g, 0, f, &Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 5, 16} {
			par, err := BuildVertexExhaustive(g, 0, f, &Options{Seed: 5, Parallelism: workers})
			if err != nil {
				t.Fatalf("f=%d workers=%d: %v", f, workers, err)
			}
			if !sameEdgeSets(seq, par) {
				t.Fatalf("f=%d workers=%d: edge sets differ", f, workers)
			}
			if par.Stats.Dijkstras != seq.Stats.Dijkstras || par.Stats.TieWarnings != seq.Stats.TieWarnings {
				t.Fatalf("f=%d workers=%d: stats differ: %+v vs %+v", f, workers, par.Stats, seq.Stats)
			}
		}
	}
}

// TestMultiSourceStatsAggregation checks BuildMultiSource reports every
// BuildStats field: sums for totals (Dijkstras, Fallbacks, TieWarnings,
// NewEndingPiD), maxima for the per-vertex envelopes (MaxNewEdges, MaxE1,
// MaxE2). MaxE1/MaxE2/NewEndingPiD were silently dropped before.
func TestMultiSourceStatsAggregation(t *testing.T) {
	g := gen.SparseGNP(80, 4, 2) // exercises E1, E2 and new-ending paths
	sources := []int{0, 17, 41}
	opts := &Options{Seed: 9}
	var want BuildStats
	for _, s := range sources {
		st, err := BuildDual(g, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		want.merge(&st.Stats)
	}
	if want.MaxE1 == 0 || want.MaxE2 == 0 || want.NewEndingPiD == 0 {
		t.Fatalf("test graph exercises no E1/E2/new-ending paths: %+v", want)
	}
	ms, err := BuildMultiSource(g, sources, opts, BuildDual)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Stats != want {
		t.Fatalf("multi-source stats = %+v, want %+v", ms.Stats, want)
	}
}

func TestDisabledEdgesComplement(t *testing.T) {
	g := gen.GNP(30, 0.3, 5)
	st, err := BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	disabled := st.DisabledEdges()
	if len(disabled) == 0 {
		t.Fatalf("expected a non-trivial structure (some disabled edges)")
	}
	// The list must be exactly the complement of Edges.
	want := g.M() - st.Edges.Len()
	if len(disabled) != want {
		t.Fatalf("DisabledEdges len = %d, want %d", len(disabled), want)
	}
	for i, id := range disabled {
		if st.Edges.Has(id) {
			t.Fatalf("DisabledEdges contains kept edge %d", id)
		}
		if i > 0 && id <= disabled[i-1] {
			t.Fatalf("DisabledEdges not increasing at %d: %v", i, disabled[i-1:i+1])
		}
	}
}
