package bfs

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
)

// compareDists demands bit-identical distance tables between the repairer
// and a from-scratch runner after identical runs.
func compareDists(t *testing.T, rep *Repairer, ref *Runner, tag string) {
	t.Helper()
	rd, sd := rep.Dists(), ref.Dists()
	for v := range sd {
		if rd[v] != sd[v] {
			t.Fatalf("%s: dist[%d] = %d repair vs %d scratch", tag, v, rd[v], sd[v])
		}
		if rep.Dist(v) != sd[v] {
			t.Fatalf("%s: Dist(%d) = %d repair vs %d scratch", tag, v, rep.Dist(v), sd[v])
		}
	}
}

// TestRepairRegimeEquivalence drives the repairer through random fault
// sequences and pins every distance table against a from-scratch BFS.
// Sources move mid-sequence to exercise the rebuild of the repairer-owned
// tree.
func TestRepairRegimeEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := gen.SparseGNP(300, 6, seed)
		rep := NewRepairer(g)
		ref := NewRunner(g)
		rng := rand.New(rand.NewSource(seed * 29))
		src := rng.Intn(g.N())
		for trial := 0; trial < 60; trial++ {
			var faults []int
			for k := rng.Intn(4); k > 0; k-- {
				faults = append(faults, rng.Intn(g.M()))
			}
			if rng.Intn(10) == 0 {
				src = rng.Intn(g.N())
			}
			rep.Run(src, faults)
			ref.Run(src, faults, nil)
			compareDists(t, rep, ref, "trial")
			if ch, ok := rep.Changed(); ok {
				// The changed list must cover every vertex whose
				// distance actually moved.
				moved := map[int32]bool{}
				for _, v := range ch {
					moved[v] = true
				}
				for v := 0; v < g.N(); v++ {
					if rep.Dist(v) != rep.t.dist[v] && !moved[int32(v)] {
						t.Fatalf("trial %d: dist[%d] changed but not in Changed()", trial, v)
					}
				}
			}
		}
	}
}

// TestRepairFaultClasses pins each classification boundary in isolation:
// pure non-tree faults (exact no-op with an empty changed set), a leaf
// subtree, a subtree at the root's own tree edge, and a disconnecting
// fault (path graph: the subtree below the cut is unreachable).
func TestRepairFaultClasses(t *testing.T) {
	g := gen.TreePlusChords(150, 40, 5)
	rep := NewRepairer(g)
	ref := NewRunner(g)
	rep.Run(0, nil)
	treeEdges, nonTree := splitTreeEdges(rep.t)
	if len(treeEdges) == 0 || len(nonTree) == 0 {
		t.Fatalf("degenerate instance: %d tree, %d non-tree", len(treeEdges), len(nonTree))
	}
	// Pure non-tree faults: exact no-op.
	rep.Run(0, nonTree[:min(3, len(nonTree))])
	ref.Run(0, nonTree[:min(3, len(nonTree))], nil)
	compareDists(t, rep, ref, "non-tree")
	if ch, ok := rep.Changed(); !ok || len(ch) != 0 {
		t.Fatalf("non-tree faults: Changed() = (%v, %v), want empty incremental", ch, ok)
	}
	// Leaf-ish and root subtrees.
	for _, id := range []int{treeEdges[len(treeEdges)-1], treeEdges[0]} {
		rep.Run(0, []int{id})
		ref.Run(0, []int{id}, nil)
		compareDists(t, rep, ref, "subtree")
		if _, ok := rep.Changed(); !ok {
			t.Fatalf("tree fault %d unexpectedly fell back to full recompute", id)
		}
	}
	// Disconnecting fault: cutting a path strands the far side.
	pg := gen.PathGraph(40)
	prep, pref := NewRepairer(pg), NewRunner(pg)
	prep.Run(0, []int{20})
	pref.Run(0, []int{20}, nil)
	compareDists(t, prep, pref, "disconnect")
	for v := 21; v < 40; v++ {
		if prep.Dist(v) != Unreachable {
			t.Fatalf("disconnect: dist[%d] = %d, want Unreachable", v, prep.Dist(v))
		}
	}
}

// splitTreeEdges partitions t's graph's edges into those that are some
// vertex's parent link in t and the rest.
func splitTreeEdges(t *Tree) (treeEdges, nonTree []int) {
	for id := 0; id < t.g.M(); id++ {
		e := t.g.EdgeAt(id)
		if (t.dist[e.V] == t.dist[e.U]+1 && int(t.parent[e.V]) == e.U) ||
			(t.dist[e.U] == t.dist[e.V]+1 && int(t.parent[e.U]) == e.V) {
			treeEdges = append(treeEdges, id)
		} else {
			nonTree = append(nonTree, id)
		}
	}
	return treeEdges, nonTree
}

// TestSharedTreeEquivalence has two repairers share one Tree per source
// and interleave sources and fault sets through RunFrom, so each tree
// serves both repairers and a repairer's consecutive runs often switch
// trees (a table copy) rather than undo a repair on the same one. The fault
// sets cover every class — non-tree no-ops, subtree-local repairs, volume
// fallbacks (one repairer runs under a tiny volume cap) and disconnecting
// cuts (the graph is a tree plus chords, full of bridges) — and each class
// must occur. Every table must equal a from-scratch Runner's, and every
// incremental Changed() set must cover the vertices that moved.
func TestSharedTreeEquivalence(t *testing.T) {
	g := gen.TreePlusChords(200, 60, 3)
	srcs := []int{0, 57, 133}
	trees := make([]*Tree, len(srcs))
	edges := make([][2][]int, len(srcs)) // per source: tree edges, non-tree edges
	for i, s := range srcs {
		trees[i] = NewTree(g, s)
		edges[i][0], edges[i][1] = splitTreeEdges(trees[i])
	}
	reps := []*Repairer{NewRepairer(g), NewRepairer(g)}
	reps[1].volLimit = 24
	ref := NewRunner(g)
	rng := rand.New(rand.NewSource(11))
	var noop, local, fallback, cut int
	for trial := 0; trial < 600; trial++ {
		rep := reps[trial%2]
		i := rng.Intn(len(srcs))
		tr := trees[i]
		var faults []int
		for k := rng.Intn(3); k >= 0; k-- {
			class := edges[i][rng.Intn(2)]
			faults = append(faults, class[rng.Intn(len(class))])
		}
		rep.RunFrom(tr, faults)
		ref.Run(srcs[i], faults, nil)
		tag := fmt.Sprintf("trial %d src %d faults %v", trial, srcs[i], faults)
		compareDists(t, rep, ref, tag)
		ch, ok := rep.Changed()
		switch {
		case !ok:
			fallback++
		case len(ch) == 0:
			noop++
		default:
			local++
			moved := map[int32]bool{}
			for _, v := range ch {
				moved[v] = true
			}
			for v := 0; v < g.N(); v++ {
				if rep.Dist(v) != tr.dist[v] && !moved[int32(v)] {
					t.Fatalf("%s: dist[%d] moved but not in Changed()", tag, v)
				}
			}
		}
		for v := 0; v < g.N(); v++ {
			if rep.Dist(v) == Unreachable && tr.dist[v] != Unreachable {
				cut++
				break
			}
		}
	}
	t.Logf("%d no-op, %d local, %d fallback, %d cut", noop, local, fallback, cut)
	if noop == 0 || local == 0 || fallback == 0 || cut == 0 {
		t.Fatalf("fault classes not all covered: %d no-op, %d local, %d fallback, %d cut",
			noop, local, fallback, cut)
	}
}

// TestRepairVolumeFallback forces the volume cap and checks the fallback
// answers are identical and recovery works.
func TestRepairVolumeFallback(t *testing.T) {
	g := gen.SparseGNP(200, 5, 7)
	rep := NewRepairer(g)
	ref := NewRunner(g)
	rep.Run(0, nil)
	rep.volLimit = 1
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		faults := []int{rng.Intn(g.M()), rng.Intn(g.M())}
		rep.Run(0, faults)
		ref.Run(0, faults, nil)
		compareDists(t, rep, ref, "capped")
	}
	rep.volLimit = g.M()
	faults := []int{1, 2, 3}
	rep.Run(0, faults)
	ref.Run(0, faults, nil)
	compareDists(t, rep, ref, "recovered")
}

// FuzzRepairEquivalence fuzzes (graph seed, source, fault selection) and
// demands the repaired table equal the from-scratch table bit for bit,
// through Run and through RunFrom on shared trees.
func FuzzRepairEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(0), uint64(0x1234), uint8(2))
	f.Add(int64(2), uint16(7), uint64(0xffff_ffff), uint8(4))
	f.Add(int64(3), uint16(299), uint64(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, srcRaw uint16, faultBits uint64, nFaults uint8) {
		g := gen.SparseGNP(120, 5, 1+(seed&7))
		src := int(srcRaw) % g.N()
		k := int(nFaults) % 5
		var faults []int
		for i := 0; i < k; i++ {
			faults = append(faults, int((faultBits>>(i*13))&0x1fff)%g.M())
		}
		rep := NewRepairer(g)
		ref := NewRunner(g)
		rep.Run(src, faults)
		ref.Run(src, faults, nil)
		compareDists(t, rep, ref, "fuzz")
		// Second run over the same base exercises the undo path.
		rep.Run(src, faults[:k/2])
		ref.Run(src, faults[:k/2], nil)
		compareDists(t, rep, ref, "fuzz-undo")

		// The same input through RunFrom on a tree shared with a second
		// repairer that alternates between it and another source's tree.
		other := (src + g.N()/2) % g.N()
		tr, otr := NewTree(g, src), NewTree(g, other)
		a, b := NewRepairer(g), NewRepairer(g)
		for round := 0; round < 2; round++ {
			a.RunFrom(tr, faults)
			ref.Run(src, faults, nil)
			compareDists(t, a, ref, "fuzz-shared")
			b.RunFrom(otr, faults)
			ref.Run(other, faults, nil)
			compareDists(t, b, ref, "fuzz-shared-other")
			b.RunFrom(tr, faults[:k/2])
			ref.Run(src, faults[:k/2], nil)
			compareDists(t, b, ref, "fuzz-shared-switch")
		}
	})
}

func BenchmarkRepairVsScratch(b *testing.B) {
	g := gen.SparseGNP(1600, 6, 2015)
	faultSets := make([][]int, 64)
	rng := rand.New(rand.NewSource(9))
	for i := range faultSets {
		faultSets[i] = []int{rng.Intn(g.M()), rng.Intn(g.M())}
	}
	b.Run("scratch", func(b *testing.B) {
		r := NewRunner(g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Run(0, faultSets[i%len(faultSets)], nil)
		}
	})
	b.Run("repair", func(b *testing.B) {
		r := NewRepairer(g)
		r.Run(0, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Run(0, faultSets[i%len(faultSets)])
		}
	})
}

// treeHash digests every table of a frozen tree: distances, parents and
// the child CSR.
func treeHash(t *Tree) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprint(h, t.src, t.dist, t.parent, t.kids.off, t.kids.kids)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestSharedTreeStaysFrozen has several goroutines repair random fault
// sets against one shared Tree through RunFrom — no-ops, subtree repairs
// and volume fallbacks — and requires every table of the tree
// bit-identical afterwards. Under -race it also shows the repairs only
// read the tree.
func TestSharedTreeStaysFrozen(t *testing.T) {
	g := gen.SparseGNP(300, 5, 17)
	tr := NewTree(g, 0)
	want := treeHash(tr)
	var wg sync.WaitGroup
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rep := NewRepairer(g)
			if seed == 1 {
				rep.volLimit = 40 // mix volume fallbacks into one worker's runs
			}
			rng := rand.New(rand.NewSource(seed))
			faults := make([]int, 0, 3)
			for trial := 0; trial < 300; trial++ {
				faults = faults[:0]
				for k := 1 + rng.Intn(3); k > 0; k-- {
					faults = append(faults, rng.Intn(g.M()))
				}
				rep.RunFrom(tr, faults)
			}
		}(int64(worker + 1))
	}
	wg.Wait()
	if treeHash(tr) != want {
		t.Fatal("repairs changed the shared tree")
	}
}
