package verify

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// complement lists the IDs of g's edges outside h.
func complement(g *graph.Graph, h *graph.EdgeSet) []int {
	var out []int
	for id := range g.M() {
		if !h.Has(id) {
			out = append(out, id)
		}
	}
	return out
}

// bruteForce checks the definition naively, in the order Report documents:
// sources as given; per source F = ∅ first, then every nonempty fault set
// of size ≤ f (f ≤ 2) in lexicographic order; targets ascending. Vertex
// sets containing a source are skipped uncounted. Edge sets disjoint from
// H are counted as pruned when pruning applies: NoPrune off and the
// source's fault-free tables equal. The pass stops once maxV violations
// are held. Each side is one masked BFS over G: G \ F, and G minus F and
// every edge outside H.
func bruteForce(g *graph.Graph, h *graph.EdgeSet, sources []int, f int, vertices, noPrune bool, maxV int) Report {
	rep := Report{OK: true}
	offH := complement(g, h)
	units := g.M()
	if vertices {
		units = g.N()
	}
	var sets [][]int
	for a := range units {
		if f >= 1 {
			sets = append(sets, []int{a})
		}
		for b := a + 1; b < units && f >= 2; b++ {
			sets = append(sets, []int{a, b})
		}
	}
	slices.SortFunc(sets, slices.Compare)

	rg, rh := bfs.NewRunner(g), bfs.NewRunner(g)
	// check compares one fault set and reports whether the tables were
	// equal and whether the cap is now reached.
	check := func(s int, faults []int) (eq, full bool) {
		rep.FaultSetsChecked++
		if vertices {
			rg.Run(s, nil, faults)
			rh.Run(s, offH, faults)
		} else {
			rg.Run(s, faults, nil)
			rh.Run(s, append(slices.Clone(offH), faults...), nil)
		}
		dg, dh := rg.Dists(), rh.Dists()
		eq = true
		for v := range dg {
			if dg[v] != dh[v] {
				eq, rep.OK = false, false
				rep.Violations = append(rep.Violations, Violation{
					Source: s, Faults: append([]int(nil), faults...), V: v, GotH: dh[v], WantG: dg[v],
				})
				if len(rep.Violations) == maxV {
					return eq, true
				}
			}
		}
		return eq, false
	}
	isSource := func(x int) bool { return slices.Contains(sources, x) }
	for _, s := range sources {
		eq, full := check(s, nil)
		if full {
			return rep
		}
		prune := !vertices && !noPrune && eq
		for _, faults := range sets {
			if vertices && slices.ContainsFunc(faults, isSource) {
				continue
			}
			if prune && !slices.ContainsFunc(faults, h.Has) {
				rep.FaultSetsPruned++
				continue
			}
			if _, full := check(s, faults); full {
				return rep
			}
		}
	}
	return rep
}

// FuzzVerifyMatchesBruteForce holds FTBFS and VertexFTBFS to bruteForce on
// small graphs: the same OK and Violations always, and the same counts on
// passes that run to completion (a capped pass's counts depend on
// scheduling). Sampled runs on the same H: every violation it reports
// must be real, it holds at most MaxViolations, and it must pass wherever
// the exhaustive reference does.
//
// shape packs f (its low two bits, mod 3), then one bit each for the
// vertex model, NoPrune, three workers and a second source; maxViol % 5
// is MaxViolations (0 = the default 8).
func FuzzVerifyMatchesBruteForce(f *testing.F) {
	const (
		vertexBit   = 1 << 2
		noPruneBit  = 1 << 3
		workersBit  = 1 << 4
		twoSources  = 1 << 5
		hFromBuild  = 1
		dropNothing = 0
	)
	// A passing dual structure on GNP(10, 0.3, 1), f = 2, pruned.
	f.Add(uint8(0), uint8(7), int64(1), uint8(hFromBuild), uint8(dropNothing), uint8(dropNothing), uint8(2), uint8(0))
	// Cycle(6) without edge (5,0): violations at F = ∅ already.
	f.Add(uint8(1), uint8(3), int64(1), uint8(0), uint8(6), uint8(dropNothing), uint8(1), uint8(0))
	// Cycle(6) without edge (2,3), sources 0 and 3, MaxViolations 1 over
	// three workers: fault-free distances hold, and the cap is hit at
	// F = {(0,1)}, in the middle of source 0's fault sets.
	f.Add(uint8(1), uint8(3), int64(1), uint8(0), uint8(3), uint8(dropNothing), uint8(1|workersBit|twoSources), uint8(1))
	// Cycle(4) without edge (3,0), f = 1: fault-free distances differ, so
	// F = {(3,0)}, disjoint from H, is checked rather than pruned.
	f.Add(uint8(1), uint8(1), int64(1), uint8(0), uint8(4), uint8(dropNothing), uint8(1), uint8(0))
	// A passing vertex structure for sources 0 and 5, f = 2: vertex sets
	// containing a source are skipped.
	f.Add(uint8(0), uint8(7), int64(1), uint8(hFromBuild), uint8(dropNothing), uint8(dropNothing), uint8(2|vertexBit|twoSources), uint8(0))
	f.Fuzz(func(t *testing.T, family, size uint8, seed int64, hMode, drop1, drop2, shape, maxViol uint8) {
		n := 3 + int(size%10)
		var g *graph.Graph
		switch family % 4 {
		case 0:
			g = gen.GNP(n, 0.3, seed)
		case 1:
			g = gen.Cycle(n)
		case 2:
			g = gen.Grid(2, (n+1)/2)
		default:
			g = gen.TreePlusChords(n, n/3, seed)
		}
		fb := int(shape&3) % 3
		vertices := shape&vertexBit != 0
		noPrune := shape&noPruneBit != 0
		workers := 1
		if shape&workersBit != 0 {
			workers = 3
		}
		sources := []int{0}
		if shape&twoSources != 0 {
			sources = append(sources, g.N()/2)
		}
		opts := &Options{NoPrune: noPrune, MaxViolations: int(maxViol % 5), Parallelism: workers}

		h := without(g)
		if hMode%2 == hFromBuild {
			build := core.BuildDual
			if vertices {
				build = func(g *graph.Graph, s int, o *core.Options) (*core.Structure, error) {
					return core.BuildVertexExhaustive(g, s, fb, o)
				}
			}
			st, err := core.BuildMultiSource(g, sources, nil, build)
			if err != nil {
				t.Fatal(err)
			}
			h = st.Edges
		}
		// A drop byte d removes H's (d mod (|H|+1))-th kept edge in ID
		// order, counting from 1; 0 removes nothing.
		for _, d := range []uint8{drop1, drop2} {
			if k := int(d) % (h.Len() + 1); k > 0 {
				h.Remove(h.IDs()[k-1])
			}
		}

		var got Report
		if vertices {
			got = VertexFTBFS(g, h, sources, fb, opts)
		} else {
			got = FTBFS(g, h, sources, fb, opts)
		}
		want := bruteForce(g, h, sources, fb, vertices, noPrune, opts.maxViol())
		if got.OK != want.OK || got.Interrupted ||
			(len(got.Violations) > 0 || len(want.Violations) > 0) && !reflect.DeepEqual(got.Violations, want.Violations) {
			t.Fatalf("report\n%+v\nwant\n%+v", got, want)
		}
		if len(want.Violations) < opts.maxViol() &&
			(got.FaultSetsChecked != want.FaultSetsChecked || got.FaultSetsPruned != want.FaultSetsPruned) {
			t.Fatalf("complete pass counted %d checked, %d pruned; want %d, %d",
				got.FaultSetsChecked, got.FaultSetsPruned, want.FaultSetsChecked, want.FaultSetsPruned)
		}
		if vertices {
			return
		}

		sampled := Sampled(g, h, sources, fb, 20, seed, &Options{MaxViolations: opts.MaxViolations})
		if want.OK && !sampled.OK || len(sampled.Violations) > opts.maxViol() {
			t.Fatalf("sampled: OK = %v with %d violations (cap %d), reference OK = %v",
				sampled.OK, len(sampled.Violations), opts.maxViol(), want.OK)
		}
		offH := complement(g, h)
		for _, v := range sampled.Violations {
			dg := bfs.Distances(g, v.Source, v.Faults)
			dh := bfs.Distances(g, v.Source, append(slices.Clone(offH), v.Faults...))
			if v.GotH == v.WantG || dg[v.V] != v.WantG || dh[v.V] != v.GotH {
				t.Fatalf("sampled violation %v is not real: dist_G=%d dist_H=%d", v, dg[v.V], dh[v.V])
			}
		}
	})
}
