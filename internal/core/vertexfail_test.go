package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

func TestVertexExhaustiveVerifies(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"gnp":    gen.GNP(16, 0.3, 7),
		"grid":   gen.Grid(4, 4),
		"cycle":  gen.Cycle(10),
		"chords": gen.TreePlusChords(18, 5, 3),
	} {
		for f := 0; f <= 2; f++ {
			st, err := BuildVertexExhaustive(g, 0, f, nil)
			if err != nil {
				t.Fatalf("%s f=%d: %v", name, f, err)
			}
			if !st.VertexFaults {
				t.Fatalf("%s: VertexFaults flag unset", name)
			}
			rep := verify.VertexFTBFS(g, st.Edges, []int{0}, f, nil)
			if !rep.OK {
				t.Fatalf("%s f=%d: %v", name, f, rep.Violations)
			}
		}
	}
}

func TestVertexExhaustiveErrors(t *testing.T) {
	g := gen.PathGraph(4)
	if _, err := BuildVertexExhaustive(g, -1, 1, nil); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := BuildVertexExhaustive(g, 0, 3, nil); err == nil {
		t.Fatal("f=3 accepted")
	}
}

func TestVertexVsEdgeStructureDiffer(t *testing.T) {
	// On a cycle: any single vertex failure splits it into a path — the
	// vertex structure must keep the whole cycle (as must the edge one).
	g := gen.Cycle(8)
	v1, err := BuildVertexExhaustive(g, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v1.NumEdges() != g.M() {
		t.Fatalf("cycle vertex structure dropped edges: %d", v1.NumEdges())
	}
}

func TestVertexVerifierCatchesBreakage(t *testing.T) {
	g := gen.Cycle(6)
	// Remove one edge from H: a vertex failure on the far side makes some
	// vertex unreachable in H\{x} but not in G\{x}.
	rep := verify.VertexFTBFS(g, without(g, 0), []int{0}, 1, nil)
	if rep.OK {
		t.Fatal("broken vertex structure passed")
	}
	if rep2 := verify.VertexFTBFS(g, without(g), []int{0}, 3, nil); rep2.OK {
		t.Fatal("f=3 should be rejected")
	}
}

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
