package wsp

import (
	"fmt"
	"math/rand"
	"slices"
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

// TestRepairSearchPatchedBase repairs against T_e, the canonical tree of
// G∖{e}, on a 40-cycle with the chord (1, 3) from vertex 0: T0 is 20 hops
// deep, but without e = (0, 1) the tree runs the long way round, 38 hops
// deep to vertex 1, so a second fault re-seeds vertices at levels T0
// never reaches and the level buckets must grow. Each base is checked
// just after it is set, then under every second fault f, with and
// without a target; the runs switch between T_e, T_{e'} for e' = (0, 39),
// and T0, over the delta of a repair and the delta of a run forced to
// fall back. Another search over the same tree captures the deltas, so
// the buckets of the one under test have never been deeper than T0.
func TestRepairSearchPatchedBase(t *testing.T) {
	b := graph.NewBuilder(40)
	for v := range 40 {
		b.MustAddEdge(v, (v+1)%40)
	}
	b.MustAddEdge(1, 3)
	g := b.Freeze()
	w := NewAssignment(g.M(), 3)
	tree := NewTree(g, w, 0)
	rep, capture := NewRepairSearch(tree), NewRepairSearch(tree)
	ref := NewSearch(g, w)
	e, _ := g.EdgeID(0, 1)
	e2, _ := g.EdgeID(0, 39)
	var d, d2 Delta
	lim := capture.volLimit
	for _, fallback := range []bool{false, true} {
		rep.SetBase(nil)
		if fallback {
			capture.volLimit = 1
		}
		capture.Run(0, Options{Target: -1, DisabledEdges: []int{e}})
		if _, ok := capture.Changed(); ok == fallback {
			t.Fatalf("fallback forced %v, run repaired %v", fallback, ok)
		}
		capture.Capture(&d)
		capture.volLimit = lim
		capture.Run(0, Options{Target: -1, DisabledEdges: []int{e2}})
		capture.Capture(&d2)
		for _, base := range []struct {
			d *Delta
			e []int
		}{{&d, []int{e}}, {&d2, []int{e2}}, {nil, nil}, {&d, []int{e}}} {
			rep.SetBase(base.d)
			ref.Run(0, Options{Target: -1, DisabledEdges: base.e})
			tag := fmt.Sprintf("fallback %v, base %v", fallback, base.e)
			checkRepairMatchesScratch(t, rep, ref, 0, Options{Target: -1}, tag)
			// below[f] counts the vertices whose base path uses edge f:
			// exactly the region a run faulting f on top may detach.
			below := make([]int, g.M())
			for v := range g.N() {
				for p := v; ref.ParentEdgeOf(p) >= 0; p = ref.ParentOf(p) {
					below[ref.ParentEdgeOf(p)]++
				}
			}
			for f := range g.M() {
				for _, target := range []int{-1, 2, 20} {
					opt := Options{Target: target, DisabledEdges: append(slices.Clone(base.e), f)}
					swept := rep.Run(0, opt)
					ref.Run(0, opt)
					checkRepairMatchesScratch(t, rep, ref, 0, opt, tag)
					if region, ok := rep.Changed(); target < 0 && ok && len(region) != below[f] {
						t.Fatalf("%s, f %d: detached %d vertices, want the %d below f", tag, f, len(region), below[f])
					}
					if target < 0 && swept != (below[f] > 0) {
						t.Fatalf("%s, f %d: swept = %v with %d vertices below f", tag, f, swept, below[f])
					}
				}
			}
		}
	}
}

// TestCaptureFallback holds Capture to one tree whichever way the run
// went. Every one-fault run on T0, and every run of Step 1's masked shape
// (a tree edge and the vertex above it), is made by a search that repairs
// and by one whose volume cap forces a fallback. The two deltas must
// overlay T0 to the same values at every vertex; the repaired one lists
// the run's detached region, sorted, and every entry of the fallen-back
// one differs from T0.
func TestCaptureFallback(t *testing.T) {
	g := gen.SparseGNP(120, 4, 3)
	tree := NewTree(g, NewAssignment(g.M(), 5), 0)
	rep, forced := NewRepairSearch(tree), NewRepairSearch(tree)
	forced.volLimit = 1
	t0 := func(v int) [4]int64 {
		return [4]int64{int64(tree.hops[v]), tree.tie[v], int64(tree.parent[v]), int64(tree.parentE[v])}
	}
	at := func(d *Delta, v int) [4]int64 {
		if j, ok := slices.BinarySearch(d.Verts, int32(v)); ok {
			return [4]int64{int64(d.Hops[j]), d.Tie[j], int64(d.Parent[j]), int64(d.ParentE[j])}
		}
		return t0(v)
	}
	var a, b Delta
	fellBack := 0
	for e := range g.M() {
		opts := []Options{{Target: -1, DisabledEdges: []int{e}}}
		if c := g.EdgeAt(e).V; tree.ParentEdgeOf(c) == e && tree.ParentOf(c) != 0 {
			opts = append(opts, Options{Target: -1, DisabledEdges: []int{e}, DisabledVertices: []int{tree.ParentOf(c)}})
		}
		for _, opt := range opts {
			rep.Run(0, opt)
			rep.Capture(&a)
			if region, ok := rep.Changed(); ok && !slices.Equal(a.Verts, slices.Sorted(slices.Values(region))) {
				t.Fatalf("%+v: delta lists %v, detached region %v", opt, a.Verts, region)
			}
			forced.Run(0, opt)
			forced.Capture(&b)
			if _, ok := forced.Changed(); !ok {
				fellBack++
			}
			for v := range g.N() {
				if at(&a, v) != at(&b, v) {
					t.Fatalf("%+v: vertex %d reads %v from the repair, %v from the fallback", opt, v, at(&a, v), at(&b, v))
				}
			}
			for _, v := range b.Verts {
				if at(&b, int(v)) == t0(int(v)) {
					t.Fatalf("%+v: the fallback delta lists vertex %d, which kept its T0 values", opt, v)
				}
			}
		}
	}
	if fellBack == 0 {
		t.Fatal("no forced run fell back")
	}
}

// FuzzRepairSearchEquivalence holds RepairSearch to the Target contract the
// builders rely on (see checkRepairMatchesScratch). The first four bytes
// pick the graph (family, size, generator seed), the source, whether the
// volume cap is forced to 1, so that every run which detaches anything
// takes the scratch sweep from the tree's own source, and whether the
// runs repair patched bases. Every following 5-byte group is one run.
//
// On T0, a run has a target or -1, up to three faulted edges (the first
// optionally an edge of the target's base path, as in Cons2FTBFS),
// optionally the interior of a stretch of that path disabled — the
// G(u_k, v) masks of the per-target selection rules — and now and then a
// foreign source.
//
// With patched bases, a run picks T0 or one of two bases T_e, the
// canonical tree of G∖{e}: a full one-fault run on T0 that Capture reads
// as a Delta, over its detached region or, when the run fell back (forced
// now and then), over the vertices that differ from T0. e is a random
// edge or an edge of the target's base path, as
// Steps 2–3's e_i is. A run on T_e faults e and up to two more edges, has
// a target or -1, and now and then a foreign source. The runs switch
// between two deltas and T0, only when the pick changes, as Engine does,
// and rebuild the first delta in place.
// Every run is compared against the heap reference Search, and every
// delta, just set, against a full reference run under its own fault.
func FuzzRepairSearchEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 4+5*48)
		rng.Read(seed)
		if i >= 8 { // patched bases, with repairs rather than forced scratch runs
			seed[2] &^= 0x80
			seed[3] |= 0x01
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
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
		patched := data[3]&0x01 != 0
		ref := NewSearch(g, w)
		base := NewSearch(g, w)
		base.Run(src, Options{Target: -1})
		var deltas [2]struct {
			e  int
			d  Delta
			ok bool
		}
		var on *Delta // the base set; switching only on a change, as Engine does
		setBase := func(d *Delta) {
			if d != on {
				rep.SetBase(d)
				on = d
			}
		}
		for runs, rest := 0, data[4:]; len(rest) >= 5 && runs < 64; runs, rest = runs+1, rest[5:] {
			c := rest[0]
			opt := Options{Target: -1}
			var pi path.Path
			if c&0x04 == 0 {
				opt.Target = int(rest[1]) % g.N()
				pi = base.PathTo(opt.Target)
			}
			runSrc := src
			if patched {
				if sel := (c >> 4) & 0x03; sel == 0 {
					setBase(nil)
				} else {
					slot := &deltas[(sel-1)&1]
					if sel == 3 || !slot.ok {
						e := int(rest[2]) % g.M()
						if c&0x80 != 0 && len(pi) >= 2 {
							i := int(rest[2]) % (len(pi) - 1)
							e, _ = g.EdgeID(pi[i], pi[i+1])
						}
						slot.e, slot.ok = e, true
						rep.SetBase(nil) // slot.d may be the base
						lim := rep.volLimit
						if c&0x08 != 0 {
							rep.volLimit = 1
						}
						rep.Run(src, Options{Target: -1, DisabledEdges: []int{e}})
						rep.volLimit = lim
						rep.Capture(&slot.d)
						ref.Run(src, Options{Target: -1, DisabledEdges: []int{e}})
						rep.SetBase(&slot.d)
						on = &slot.d
						checkRepairMatchesScratch(t, rep, ref, src, Options{Target: -1}, fmt.Sprintf("run %d: base T_%d", runs, e))
					}
					setBase(&slot.d)
					opt.DisabledEdges = append(opt.DisabledEdges, slot.e)
				}
				for k := 0; k < min(int(c&0x03), 2); k++ {
					opt.DisabledEdges = append(opt.DisabledEdges, int(rest[3+k])%g.M())
				}
				if c&0x40 != 0 && rest[4]&0x01 != 0 {
					runSrc = (src + 1 + int(rest[1])) % g.N()
				}
			} else {
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
				if c&0x70 == 0 {
					runSrc = (src + 1 + int(rest[1])) % g.N()
				}
			}
			rep.Run(runSrc, opt)
			ref.Run(runSrc, opt)
			checkRepairMatchesScratch(t, rep, ref, runSrc, opt, fmt.Sprintf("run %d (src %d, %+v)", runs, runSrc, opt))
		}
	})
}
