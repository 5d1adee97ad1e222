package verify

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// without returns the edge set of g minus the given edge IDs.
func without(g *graph.Graph, ids ...int) *graph.EdgeSet {
	h := graph.NewEdgeSet(g.M())
	for id := range g.M() {
		h.Add(id)
	}
	for _, id := range ids {
		h.Remove(id)
	}
	return h
}

func TestDetectsMissingEdgeF0(t *testing.T) {
	g := gen.PathGraph(4)
	// H missing the last path edge: fault-free distances already break.
	rep := FTBFS(g, without(g, 2), []int{0}, 0, nil)
	if rep.OK {
		t.Fatal("broken structure passed")
	}
	v := rep.Violations[0]
	if v.V != 3 || v.GotH != -1 || v.WantG != 3 {
		t.Fatalf("violation details wrong: %+v", v)
	}
}

func TestDetectsSingleFaultGap(t *testing.T) {
	g := gen.Cycle(6)
	// H = spanning path only (drop edge 5-0... pick the closing edge).
	closing, _ := g.EdgeID(5, 0)
	rep := FTBFS(g, without(g, closing), []int{0}, 1, nil)
	if rep.OK {
		t.Fatal("cycle minus closing edge cannot tolerate 1 fault")
	}
	// But it is a perfectly fine f=0 structure... it is NOT: dist(0,5)
	// changes from 1 to 5. Confirm f=0 also fails.
	rep0 := FTBFS(g, without(g, closing), []int{0}, 0, nil)
	if rep0.OK {
		t.Fatal("f=0 should fail too: distance to 5 doubled")
	}
}

func TestAcceptsFullGraph(t *testing.T) {
	g := gen.GNP(14, 0.3, 3)
	for f := 0; f <= 2; f++ {
		rep := FTBFS(g, without(g), []int{0}, f, nil)
		if !rep.OK {
			t.Fatalf("G itself must verify at f=%d: %v", f, rep.Violations)
		}
	}
}

func TestRejectsBadF(t *testing.T) {
	g := gen.PathGraph(3)
	if rep := FTBFS(g, without(g), []int{0}, 4, nil); rep.OK {
		t.Fatal("f=4 exhaustive should be rejected")
	}
	if rep := FTBFS(g, without(g), []int{0}, -1, nil); rep.OK {
		t.Fatal("negative f should be rejected")
	}
}

func TestExhaustiveF3(t *testing.T) {
	// A cycle needs all edges for f ≥ 1; the full graph passes at f=3,
	// dropping one edge fails.
	g := gen.Cycle(7)
	if rep := FTBFS(g, without(g), []int{0}, 3, nil); !rep.OK {
		t.Fatalf("full cycle should verify at f=3: %v", rep.Violations)
	}
	if rep := FTBFS(g, without(g, 0), []int{0}, 3, nil); rep.OK {
		t.Fatal("cycle minus an edge passed f=3")
	}
	// The f=3 guard: a big dense graph must be rejected, not attempted.
	big := gen.Complete(60)
	if rep := FTBFS(big, without(big), []int{0}, 3, nil); rep.OK {
		t.Fatal("oversized f=3 exhaustive should be rejected")
	}
}

func TestPrunedMatchesFullEnumeration(t *testing.T) {
	g := gen.Complete(12) // dense graph, sparse structure → real pruning
	st, err := core.BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	pruned := FTBFS(g, st.Edges, []int{0}, 2, nil)
	full := FTBFS(g, st.Edges, []int{0}, 2, &Options{NoPrune: true})
	if pruned.OK != full.OK {
		t.Fatalf("pruned=%v full=%v disagree", pruned.OK, full.OK)
	}
	if pruned.FaultSetsPruned == 0 {
		t.Fatal("expected some pruning on a sparse structure")
	}
	if pruned.FaultSetsChecked+pruned.FaultSetsPruned != full.FaultSetsChecked {
		t.Fatalf("checked+pruned=%d, full=%d",
			pruned.FaultSetsChecked+pruned.FaultSetsPruned, full.FaultSetsChecked)
	}
}

// TestPrunedCatchesViolationsTooWhenBroken plants a violation in an edge
// outside H and confirms the pruned pass still catches it (pruning only
// applies once fault-free distances hold).
func TestPrunedCatchesPlantedViolation(t *testing.T) {
	// Graph: triangle 0-1-2 plus pendant 2-3.
	gb := graph.NewBuilder(4)
	gb.MustAddEdge(0, 1)
	gb.MustAddEdge(1, 2)
	gb.MustAddEdge(0, 2)
	gb.MustAddEdge(2, 3)
	g := gb.Freeze()
	// H drops edge (0,2): fault-free dist(2) becomes 2 ≠ 1 → caught in
	// the base pass, pruning never hides it.
	id, _ := g.EdgeID(0, 2)
	rep := FTBFS(g, without(g, id), []int{0}, 1, nil)
	if rep.OK {
		t.Fatal("violation not caught")
	}
}

func TestMaxViolationsCap(t *testing.T) {
	g := gen.PathGraph(10)
	// Empty H: every vertex violates at F=∅ already.
	rep := FTBFS(g, graph.NewEdgeSet(g.M()), []int{0}, 0, &Options{MaxViolations: 3})
	if rep.OK || len(rep.Violations) != 3 {
		t.Fatalf("cap not respected: %d violations", len(rep.Violations))
	}
}

func TestMultiSourceVerification(t *testing.T) {
	g := gen.GNP(14, 0.3, 21)
	st, err := core.BuildMultiSource(g, []int{0, 7}, nil, core.BuildDual)
	if err != nil {
		t.Fatal(err)
	}
	rep := FTBFS(g, st.Edges, []int{0, 7}, 2, nil)
	if !rep.OK {
		t.Fatalf("multi-source: %v", rep.Violations)
	}
	// The single-source structure for 0 alone should generally fail for
	// source 7 at f=2 unless the graph is tiny; just confirm the verifier
	// runs and reports coherently.
	single, err := core.BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep7 := FTBFS(g, single.Edges, []int{7}, 0, nil)
	_ = rep7 // may or may not pass; the call must simply not panic
}

func TestSampledVerifier(t *testing.T) {
	g := gen.GNP(20, 0.25, 5)
	st, err := core.BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := Sampled(g, st.Edges, []int{0}, 2, 300, 7, nil)
	if !rep.OK {
		t.Fatalf("sampled found violations in a verified structure: %v", rep.Violations)
	}
	if rep.FaultSetsChecked != 300 {
		t.Fatalf("checked %d, want 300", rep.FaultSetsChecked)
	}
	// Sampled must also catch a gross violation quickly: empty H.
	rep = Sampled(g, graph.NewEdgeSet(g.M()), []int{0}, 2, 50, 7, nil)
	if rep.OK {
		t.Fatal("sampled missed empty structure")
	}
	// A budget above m draws sets of at most m edges.
	p := gen.PathGraph(2)
	if rep := Sampled(p, without(p), []int{0}, 3, 10, 1, nil); !rep.OK || rep.FaultSetsChecked != 10 {
		t.Fatalf("sampled f=3 on one edge: %+v", rep)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Source: 0, Faults: []int{3}, V: 5, GotH: -1, WantG: 4}
	if v.String() == "" {
		t.Fatal("empty violation string")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	g := gen.GNP(18, 0.3, 17)
	st, err := core.BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq := FTBFS(g, st.Edges, []int{0}, 2, nil)
	for _, workers := range []int{2, 4} {
		par := FTBFS(g, st.Edges, []int{0}, 2, &Options{Parallelism: workers})
		if par.OK != seq.OK {
			t.Fatalf("workers=%d: OK %v vs %v", workers, par.OK, seq.OK)
		}
		if par.FaultSetsChecked+par.FaultSetsPruned != seq.FaultSetsChecked+seq.FaultSetsPruned {
			t.Fatalf("workers=%d: coverage %d+%d vs %d+%d", workers,
				par.FaultSetsChecked, par.FaultSetsPruned,
				seq.FaultSetsChecked, seq.FaultSetsPruned)
		}
	}

	// A capped broken pass reports the first MaxViolations counterexamples
	// in enumeration order — sources as given, then fault sets, then
	// targets — whatever the worker count.
	g = gen.Cycle(10)
	closing, _ := g.EdgeID(9, 0)
	want := []string{
		"source 7, faults [], target 0: dist_H=7 dist_G=3",
		"source 7, faults [], target 1: dist_H=6 dist_G=4",
		"source 7, faults [0], target 0: dist_H=-1 dist_G=3",
	}
	for _, workers := range []int{1, 2, 4} {
		rep := FTBFS(g, without(g, closing), []int{7, 0}, 1, &Options{Parallelism: workers, MaxViolations: 3})
		var got []string
		for _, v := range rep.Violations {
			got = append(got, v.String())
		}
		if rep.OK || !slices.Equal(got, want) {
			t.Fatalf("workers=%d: OK=%v violations\n%s\nwant\n%s", workers, rep.OK,
				strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

func TestParallelFindsViolationsDeterministically(t *testing.T) {
	g := gen.Cycle(10)
	closing, _ := g.EdgeID(9, 0)
	h := without(g, closing)
	a := FTBFS(g, h, []int{0}, 1, &Options{Parallelism: 4, MaxViolations: 5})
	b := FTBFS(g, h, []int{0}, 1, &Options{Parallelism: 4, MaxViolations: 5})
	if a.OK || b.OK {
		t.Fatal("broken structure passed in parallel mode")
	}
	if len(a.Violations) != len(b.Violations) {
		t.Fatalf("nondeterministic violation counts: %d vs %d", len(a.Violations), len(b.Violations))
	}
	for i := range a.Violations {
		if a.Violations[i].String() != b.Violations[i].String() {
			t.Fatalf("nondeterministic violation order at %d", i)
		}
	}
}

func TestParallelF3AndVertexEdgeCases(t *testing.T) {
	// Parallel f=3 on a small cycle.
	g := gen.Cycle(7)
	rep := FTBFS(g, without(g), []int{0}, 3, &Options{Parallelism: 3})
	if !rep.OK {
		t.Fatalf("parallel f=3 full cycle: %v", rep.Violations)
	}
	rep = FTBFS(g, without(g, 0), []int{0}, 3, &Options{Parallelism: 3})
	if rep.OK {
		t.Fatal("parallel f=3 missed a violation")
	}
	// Parallel f=0: base pass only.
	rep = FTBFS(g, without(g), []int{0}, 0, &Options{Parallelism: 2})
	if !rep.OK || rep.FaultSetsChecked != 1 {
		t.Fatalf("parallel f=0: checked=%d", rep.FaultSetsChecked)
	}
}

func TestVertexVerifierMultiSource(t *testing.T) {
	g := gen.GNP(12, 0.35, 3)
	st, err := core.BuildMultiSource(g, []int{0, 5}, nil, func(gg *graph.Graph, s int, o *core.Options) (*core.Structure, error) {
		return core.BuildVertexExhaustive(gg, s, 1, o)
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := VertexFTBFS(g, st.Edges, []int{0, 5}, 1, nil)
	if !rep.OK {
		t.Fatalf("multi-source vertex verify: %v", rep.Violations)
	}
	// f=2 vertex pass over the f=2 structure.
	st2, err := core.BuildVertexExhaustive(g, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep = VertexFTBFS(g, st2.Edges, []int{0}, 2, nil)
	if !rep.OK {
		t.Fatalf("f=2 vertex verify: %v", rep.Violations)
	}
}

func TestSampledZeroFaultBudget(t *testing.T) {
	g := gen.PathGraph(5)
	rep := Sampled(g, without(g), []int{0}, 0, 10, 1, nil)
	if !rep.OK || rep.FaultSetsChecked != 10 {
		t.Fatalf("sampled f=0: %+v", rep)
	}
}

// TestVerifyInterrupted: a cancelled context stops every verification
// mode early with Interrupted set (and therefore OK false) instead of
// burning through the full fault-set enumeration.
func TestVerifyInterrupted(t *testing.T) {
	g := gen.SparseGNP(30, 4, 3)
	st, err := core.BuildDual(g, 0, &core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	full := FTBFS(g, st.Edges, []int{0}, 2, nil)
	if !full.OK {
		t.Fatal("structure should verify uninterrupted")
	}
	for name, rep := range map[string]Report{
		"sequential": FTBFS(g, st.Edges, []int{0}, 2, &Options{Ctx: ctx}),
		"parallel":   FTBFS(g, st.Edges, []int{0}, 2, &Options{Ctx: ctx, Parallelism: 4}),
		"sampled":    Sampled(g, st.Edges, []int{0}, 2, 500, 1, &Options{Ctx: ctx}),
	} {
		if !rep.Interrupted {
			t.Errorf("%s: Interrupted not set", name)
		}
		if rep.OK {
			t.Errorf("%s: OK despite interruption", name)
		}
		if rep.FaultSetsChecked >= full.FaultSetsChecked && name != "sampled" {
			t.Errorf("%s: checked %d fault sets, full pass checks %d — no early stop",
				name, rep.FaultSetsChecked, full.FaultSetsChecked)
		}
	}
	vst, err := core.BuildVertexExhaustive(g, 0, 1, &core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep := VertexFTBFS(g, vst.Edges, []int{0}, 1, &Options{Ctx: ctx}); !rep.Interrupted || rep.OK {
		t.Errorf("vertex: Interrupted=%v OK=%v", rep.Interrupted, rep.OK)
	}
}

// TestVertexParallelMatchesSequential: the vertex verifier reports the
// same violations at every worker count, and the same counts on passes
// that run to completion, on intact and damaged structures, one and two
// sources, capped and uncapped.
func TestVertexParallelMatchesSequential(t *testing.T) {
	g := gen.GNP(14, 0.3, 5)
	for _, sources := range [][]int{{0}, {0, 7}} {
		st, err := core.BuildMultiSource(g, sources, nil, func(gg *graph.Graph, s int, o *core.Options) (*core.Structure, error) {
			return core.BuildVertexExhaustive(gg, s, 2, o)
		})
		if err != nil {
			t.Fatal(err)
		}
		damaged := st.Edges.Clone()
		for _, a := range g.Arcs(sources[len(sources)-1])[:2] {
			damaged.Remove(int(a.ID))
		}
		for name, h := range map[string]*graph.EdgeSet{"intact": st.Edges, "damaged": damaged} {
			for _, maxV := range []int{3, 1000} {
				seq := VertexFTBFS(g, h, sources, 2, &Options{MaxViolations: maxV})
				if seq.OK != (name == "intact") {
					t.Fatalf("%v %s: OK = %v", sources, name, seq.OK)
				}
				complete := len(seq.Violations) < maxV
				if name == "damaged" && complete == (maxV == 3) {
					t.Fatalf("%v %s: %d violations under cap %d", sources, name, len(seq.Violations), maxV)
				}
				for _, workers := range []int{2, 4} {
					par := VertexFTBFS(g, h, sources, 2, &Options{MaxViolations: maxV, Parallelism: workers})
					if par.OK != seq.OK || !slices.EqualFunc(par.Violations, seq.Violations, func(a, b Violation) bool {
						return a.String() == b.String()
					}) {
						t.Fatalf("%v %s cap %d workers %d: violations\n%v\nwant\n%v",
							sources, name, maxV, workers, par.Violations, seq.Violations)
					}
					if complete && (par.FaultSetsChecked != seq.FaultSetsChecked || par.FaultSetsPruned != seq.FaultSetsPruned) {
						t.Fatalf("%v %s workers %d: checked %d pruned %d, want %d %d", sources, name, workers,
							par.FaultSetsChecked, par.FaultSetsPruned, seq.FaultSetsChecked, seq.FaultSetsPruned)
					}
				}
			}
		}
	}
}
