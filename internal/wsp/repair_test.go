package wsp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/path"
)

// checkRepairMatchesScratch compares every accessor of a RepairSearch
// against a from-scratch Search after both ran from src under opt. For full
// runs (opt.Target < 0) all vertices must agree bit-for-bit. For Target
// runs it checks each clause of the Target contract against a Target: -1
// Search with the same masks, which it runs on ref after checking the
// target and every vertex on its path against ref's Target run:
//   - when the run was a repair rather than a scratch sweep, every vertex
//     outside the detached region;
//   - when the target lies in the detached region or the run was a scratch
//     sweep, every vertex with fewer hops than the target (every vertex
//     when the target is unreachable);
//   - every other vertex reads as unreachable or at its true distance.
func checkRepairMatchesScratch(t *testing.T, rep *RepairSearch, ref *Search, src int, opt Options, tag string) {
	t.Helper()
	g := rep.g
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
	if opt.Target < 0 {
		for v := 0; v < g.N(); v++ {
			check(v)
		}
		return
	}
	check(opt.Target)
	for _, u := range ref.PathTo(opt.Target) {
		check(u)
	}
	all := opt
	all.Target = -1
	ref.Run(src, all)
	below := int32(-1) // hop bound of the fewer-hops clause; -1: clause off
	if rep.full || rep.inR[opt.Target] == rep.ep {
		if below = ref.HopDist(opt.Target); below < 0 {
			below = int32(g.N()) // unreachable target: the run settled everything
		}
	}
	for v := 0; v < g.N(); v++ {
		if h := ref.HopDist(v); (!rep.full && rep.inR[v] != rep.ep) || (h >= 0 && h < below) {
			check(v)
		} else if d := rep.HopDist(v); d >= 0 && d != h {
			t.Fatalf("%s: HopDist(%d) = %d repair outside the contract set, true distance %d", tag, v, d, h)
		}
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
		rep := NewRepairSearch(NewTree(g, w, src))
		ref := NewSearch(g, w)
		// Construction state must equal a fault-free run.
		ref.Run(src, Options{Target: -1})
		checkRepairMatchesScratch(t, rep, ref, src, Options{Target: -1}, "base")
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
			checkRepairMatchesScratch(t, rep, ref, src, opt, "trial")
		}
	}
}

// TestRepairSearchFaultClasses pins the classification boundaries one at a
// time: non-tree faults (exact no-op), a leaf subtree, a deep subtree
// (fault on the source's own tree edge), disconnecting faults, a disabled
// source, and a foreign source (a scratch sweep).
func TestRepairSearchFaultClasses(t *testing.T) {
	g := gen.TreePlusChords(150, 40, 9)
	w := NewAssignment(g.M(), 77)
	src := 0
	rep := NewRepairSearch(NewTree(g, w, src))
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
		checkRepairMatchesScratch(t, rep, ref, src, opt, "class")
		_ = i
	}
	// A foreign source takes the scratch sweep and stays correct.
	other := g.N() / 2
	opt := Options{Target: -1, DisabledEdges: treeEdges[:2]}
	rep.Run(other, opt)
	ref.Run(other, opt)
	checkRepairMatchesScratch(t, rep, ref, other, opt, "foreign-src")
	// And the repair path still works after the excursion.
	opt = Options{Target: -1, DisabledEdges: treeEdges[:2]}
	rep.Run(src, opt)
	ref.Run(src, opt)
	checkRepairMatchesScratch(t, rep, ref, src, opt, "home-src")
}

// TestRepairSearchVolumeFallback forces the volume cap and checks the
// scratch sweep it falls back to is transparent (and recoverable on the
// next small repair): full runs with edge faults, and Target runs masked
// like the G(u_k, v) searches of the per-target rules — an edge e_i of
// the target's base path faulted and π's vertices u_{k+1..i} disabled.
func TestRepairSearchVolumeFallback(t *testing.T) {
	g := gen.SparseGNP(200, 5, 3)
	w := NewAssignment(g.M(), 5)
	tree := NewTree(g, w, 0)
	rep := NewRepairSearch(tree)
	ref := NewSearch(g, w)
	rep.volLimit = 1 // every non-empty detach falls back
	rng := rand.New(rand.NewSource(11))
	masked := 0
	for trial := 0; trial < 20; trial++ {
		opt := Options{Target: -1, DisabledEdges: []int{rng.Intn(g.M()), rng.Intn(g.M())}}
		rep.Run(0, opt)
		ref.Run(0, opt)
		checkRepairMatchesScratch(t, rep, ref, 0, opt, "capped")
		if _, ok := rep.Changed(); ok {
			// A fault set of only non-tree edges legitimately repairs
			// in-place even with the cap (empty region); anything else
			// must have fallen back.
			if len(rep.region) != 0 {
				t.Fatalf("trial %d: non-empty region survived volLimit=1", trial)
			}
		}
		pi := tree.PathTo(rng.Intn(g.N()))
		if len(pi) < 3 {
			continue
		}
		i := 1 + rng.Intn(len(pi)-2) // e_i = (u_i, u_{i+1}), below a masked vertex
		k := rng.Intn(i)
		ei, _ := g.EdgeID(pi[i], pi[i+1])
		opt = Options{Target: pi.Last(), DisabledEdges: []int{ei}, DisabledVertices: pi[k+1 : i+1]}
		rep.Run(0, opt)
		ref.Run(0, opt)
		if _, ok := rep.Changed(); ok {
			t.Fatalf("trial %d: masked Target run repaired past volLimit=1", trial)
		}
		checkRepairMatchesScratch(t, rep, ref, 0, opt, "capped-masked")
		masked++
	}
	if masked < 10 {
		t.Fatalf("only %d masked Target runs", masked)
	}
	rep.volLimit = g.M()
	opt := Options{Target: -1, DisabledEdges: []int{0}}
	rep.Run(0, opt)
	ref.Run(0, opt)
	checkRepairMatchesScratch(t, rep, ref, 0, opt, "recovered")
}

// TestRepairSearchResidualTie pins tie detection on a graph where every
// hop-shortest path ties: with all tie weights 1 on a grid, every path of d
// hops weighs (d, d). Faulting vertex 1's tree edge makes the repair
// re-settle tied vertices. Weights must still equal Search's and the equal
// arrivals must show up in TieWarnings. Parents are checked only for being
// optimal: under a residual tie the kept parent is the first candidate the
// sweep meets, which may differ from the one Search keeps.
func TestRepairSearchResidualTie(t *testing.T) {
	g := gen.Grid(4, 4)
	ones := make([]int64, g.M())
	for i := range ones {
		ones[i] = 1
	}
	w := &Assignment{tie: ones}
	tr := NewTree(g, w, 0)
	if tr.Ties() == 0 {
		t.Fatal("the base search of an all-ties grid counted no ties")
	}
	rep := NewRepairSearch(tr)
	ref := NewSearch(g, w)
	opt := Options{Target: -1, DisabledEdges: []int{rep.ParentEdgeOf(1)}}
	rep.Run(0, opt)
	ref.Run(0, opt)
	if region, ok := rep.Changed(); !ok || len(region) == 0 {
		t.Fatalf("fault on vertex 1's tree edge did not repair: region %v, ok %v", region, ok)
	}
	for v := 0; v < g.N(); v++ {
		rw, rok := rep.Dist(v)
		sw, sok := ref.Dist(v)
		if rw != sw || rok != sok || rep.HopDist(v) != ref.HopDist(v) {
			t.Fatalf("Dist(%d) = (%v,%v) repair vs (%v,%v) scratch", v, rw, rok, sw, sok)
		}
		p := rep.ParentOf(v)
		if p < 0 {
			continue
		}
		pw, _ := rep.Dist(p)
		eid := rep.ParentEdgeOf(v)
		if e := g.EdgeAt(eid); eid == opt.DisabledEdges[0] ||
			(e != graph.Edge{U: p, V: v}.Normalize()) || pw.Add(w.EdgeWeight(eid)) != rw {
			t.Fatalf("vertex %d: parent %d over edge %d is not an optimal surviving parent", v, p, eid)
		}
	}
	if rep.TieWarnings() == 0 {
		t.Fatal("TieWarnings stayed at 0 across a repair of tied vertices")
	}
}

// FuzzRepairSearchEquivalence holds RepairSearch to the Target contract the
// builders rely on (see checkRepairMatchesScratch). The first three bytes
// pick the graph (family, size, generator seed), the source, and whether
// the volume cap is forced to 1, so that every run which detaches anything
// takes the scratch sweep from the tree's own source. Every following
// 5-byte group is one run: a target or -1, up to three faulted edges (the
// first optionally an edge of the target's base path, as in Cons2FTBFS),
// optionally the interior of a stretch of that path disabled — the
// G(u_k, v) masks of the per-target selection rules — and now and then a
// foreign source. Every run is compared against the heap reference Search.
func FuzzRepairSearchEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 3+5*48)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, seed := 16+int(data[1]&0x7f), int64(data[0])
		var g *graph.Graph
		if data[1]&0x80 != 0 {
			g = gen.TreePlusChords(n, n/4, seed)
		} else {
			g = gen.SparseGNP(n, 4, seed)
		}
		if g.M() == 0 {
			return
		}
		w := NewAssignment(g.M(), seed+1)
		src := int(data[2]&0x7f) % g.N()
		rep := NewRepairSearch(NewTree(g, w, src))
		if data[2]&0x80 != 0 {
			rep.volLimit = 1
		}
		ref := NewSearch(g, w)
		base := NewSearch(g, w)
		base.Run(src, Options{Target: -1})
		for runs, rest := 0, data[3:]; len(rest) >= 5 && runs < 64; runs, rest = runs+1, rest[5:] {
			c := rest[0]
			opt := Options{Target: -1}
			var pi path.Path
			if c&0x04 == 0 {
				opt.Target = int(rest[1]) % g.N()
				pi = base.PathTo(opt.Target)
			}
			for k := 0; k < int(c&0x03); k++ {
				id := int(rest[2+k]) % g.M()
				if k == 0 && c&0x80 != 0 && len(pi) >= 2 {
					i := int(rest[2]) % (len(pi) - 1)
					id, _ = g.EdgeID(pi[i], pi[i+1])
				}
				opt.DisabledEdges = append(opt.DisabledEdges, id)
			}
			if c&0x08 != 0 && len(pi) >= 3 {
				// Disable π's interior strictly between u_k and u_j.
				j := 1 + int(rest[3])%(len(pi)-1)
				for x := 1 + int(rest[4])%j; x < j; x++ {
					opt.DisabledVertices = append(opt.DisabledVertices, pi[x])
				}
			}
			runSrc := src
			if c&0x70 == 0 {
				runSrc = (src + 1 + int(rest[1])) % g.N()
			}
			rep.Run(runSrc, opt)
			ref.Run(runSrc, opt)
			checkRepairMatchesScratch(t, rep, ref, runSrc, opt, fmt.Sprintf("run %d (src %d, %+v)", runs, runSrc, opt))
		}
	})
}
