package wsp

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// checkRepairMatchesScratch compares every accessor of a RepairSearch
// against a from-scratch Search after identical runs. For full runs
// (target < 0) all vertices must agree bit-for-bit; for Target runs only
// the contract set (target + its path) is compared.
func checkRepairMatchesScratch(t *testing.T, rep *RepairSearch, ref *Search, target int, tag string) {
	t.Helper()
	g := rep.Graph()
	check := func(v int) {
		t.Helper()
		if rep.Reachable(v) != ref.Reachable(v) {
			t.Fatalf("%s: Reachable(%d) = %v repair vs %v scratch", tag, v, rep.Reachable(v), ref.Reachable(v))
		}
		if rep.HopDist(v) != ref.HopDist(v) {
			t.Fatalf("%s: HopDist(%d) = %d repair vs %d scratch", tag, v, rep.HopDist(v), ref.HopDist(v))
		}
		dw, dok := rep.Dist(v)
		sw, sok := ref.Dist(v)
		if dw != sw || dok != sok {
			t.Fatalf("%s: Dist(%d) = (%v,%v) repair vs (%v,%v) scratch", tag, v, dw, dok, sw, sok)
		}
		if rep.ParentOf(v) != ref.ParentOf(v) {
			t.Fatalf("%s: ParentOf(%d) = %d repair vs %d scratch", tag, v, rep.ParentOf(v), ref.ParentOf(v))
		}
		if rep.ParentEdgeOf(v) != ref.ParentEdgeOf(v) {
			t.Fatalf("%s: ParentEdgeOf(%d) = %d repair vs %d scratch", tag, v, rep.ParentEdgeOf(v), ref.ParentEdgeOf(v))
		}
		re, rok := rep.LastEdgeTo(v)
		se, sok2 := ref.LastEdgeTo(v)
		if re != se || rok != sok2 {
			t.Fatalf("%s: LastEdgeTo(%d) = (%v,%v) repair vs (%v,%v) scratch", tag, v, re, rok, se, sok2)
		}
		rp, sp := rep.PathTo(v), ref.PathTo(v)
		if len(rp) != len(sp) {
			t.Fatalf("%s: PathTo(%d) has %d vs %d vertices", tag, v, len(rp), len(sp))
		}
		for i := range rp {
			if rp[i] != sp[i] {
				t.Fatalf("%s: PathTo(%d) differs at %d: %v vs %v", tag, v, i, rp, sp)
			}
		}
	}
	if target >= 0 {
		check(target)
		for _, u := range ref.PathTo(target) {
			check(u)
		}
		return
	}
	for v := 0; v < g.N(); v++ {
		check(v)
	}
}

// TestRepairSearchEquivalence drives a RepairSearch and a from-scratch
// Search through identical fault sequences over random graphs and demands
// bit-identical answers: the repair kernel must be observationally
// indistinguishable, including parent tie-breaks, so golden structure
// fingerprints cannot move.
func TestRepairSearchEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := gen.SparseGNP(220, 5, seed)
		w := NewAssignment(g.M(), seed*101)
		src := int(seed) % g.N()
		rep := NewRepairSearch(g, w, src)
		ref := NewSearch(g, w)
		// Construction state must equal a fault-free run.
		ref.Run(src, Options{Target: -1})
		checkRepairMatchesScratch(t, rep, ref, -1, "base")
		rng := rand.New(rand.NewSource(seed * 7))
		for trial := 0; trial < 60; trial++ {
			opt := Options{Target: -1}
			for k := rng.Intn(4); k > 0; k-- {
				opt.DisabledEdges = append(opt.DisabledEdges, rng.Intn(g.M()))
			}
			if rng.Intn(3) == 0 {
				v := rng.Intn(g.N())
				if v != src {
					opt.DisabledVertices = append(opt.DisabledVertices, v)
				}
			}
			if rng.Intn(4) == 0 {
				opt.Target = rng.Intn(g.N())
			}
			rep.Run(src, opt)
			ref.Run(src, opt)
			checkRepairMatchesScratch(t, rep, ref, opt.Target, "trial")
		}
	}
}

// TestRepairSearchFaultClasses pins the classification boundaries one at a
// time: non-tree faults (exact no-op), a leaf subtree, a deep subtree
// (fault on the source's own tree edge), disconnecting faults, a disabled
// source, and a foreign source (scratch delegation).
func TestRepairSearchFaultClasses(t *testing.T) {
	g := gen.TreePlusChords(150, 40, 9)
	w := NewAssignment(g.M(), 77)
	src := 0
	rep := NewRepairSearch(g, w, src)
	ref := NewSearch(g, w)

	var treeEdges, nonTree []int
	for id := 0; id < g.M(); id++ {
		e := g.EdgeAt(id)
		if rep.ParentEdgeOf(e.U) == id || rep.ParentEdgeOf(e.V) == id {
			treeEdges = append(treeEdges, id)
		} else {
			nonTree = append(nonTree, id)
		}
	}
	if len(treeEdges) == 0 || len(nonTree) == 0 {
		t.Fatalf("degenerate instance: %d tree edges, %d non-tree", len(treeEdges), len(nonTree))
	}
	cases := []Options{
		{Target: -1, DisabledEdges: nonTree[:min(3, len(nonTree))]}, // pure no-op
		{Target: -1, DisabledEdges: treeEdges[len(treeEdges)-1:]},   // leaf-ish subtree
		{Target: -1, DisabledEdges: treeEdges[:1]},                  // subtree at the root
		{Target: -1, DisabledEdges: []int{treeEdges[0], treeEdges[len(treeEdges)/2], nonTree[0]}},
		{Target: -1, DisabledVertices: []int{g.N() - 1}},
		{Target: -1, DisabledVertices: []int{src}}, // everything unreachable
	}
	for i, opt := range cases {
		rep.Run(src, opt)
		ref.Run(src, opt)
		checkRepairMatchesScratch(t, rep, ref, -1, "class")
		_ = i
	}
	// Foreign source delegates to scratch and stays correct.
	other := g.N() / 2
	opt := Options{Target: -1, DisabledEdges: treeEdges[:2]}
	rep.Run(other, opt)
	ref.Run(other, opt)
	checkRepairMatchesScratch(t, rep, ref, -1, "foreign-src")
	// And the repair path still works after the excursion.
	opt = Options{Target: -1, DisabledEdges: treeEdges[:2]}
	rep.Run(src, opt)
	ref.Run(src, opt)
	checkRepairMatchesScratch(t, rep, ref, -1, "home-src")
}

// TestRepairSearchVolumeFallback forces the volume cap and checks the
// fallback is transparent (and recoverable on the next small repair).
func TestRepairSearchVolumeFallback(t *testing.T) {
	g := gen.SparseGNP(200, 5, 3)
	w := NewAssignment(g.M(), 5)
	rep := NewRepairSearch(g, w, 0)
	ref := NewSearch(g, w)
	rep.volLimit = 1 // every non-empty detach falls back
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		opt := Options{Target: -1, DisabledEdges: []int{rng.Intn(g.M()), rng.Intn(g.M())}}
		rep.Run(0, opt)
		ref.Run(0, opt)
		checkRepairMatchesScratch(t, rep, ref, -1, "capped")
		if _, ok := rep.Changed(); ok {
			// A fault set of only non-tree edges legitimately repairs
			// in-place even with the cap (empty region); anything else
			// must have delegated.
			if len(rep.region) != 0 {
				t.Fatalf("trial %d: non-empty region survived volLimit=1", trial)
			}
		}
	}
	rep.volLimit = g.M()
	opt := Options{Target: -1, DisabledEdges: []int{0}}
	rep.Run(0, opt)
	ref.Run(0, opt)
	checkRepairMatchesScratch(t, rep, ref, -1, "recovered")
}
