package replace

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/wsp"
)

// gtauMasked is the G_τ(v) check as the engine used to make it: a masked
// search over G_τ(v)∖F, with v's edges outside H(v) and the faults
// disabled, on a RepairSearch of its own (internal/wsp's tests hold that
// kernel to an independent Dijkstra). It returns the canonical s–v path,
// or nil when dist(s,v,G_τ(v)∖F) is not d.
func gtauMasked(ref *wsp.RepairSearch, g *graph.Graph, s, v int, d int32, inH map[int]bool, faults []int) path.Path {
	var masks []int
	for _, a := range g.Arcs(v) {
		if !inH[int(a.ID)] {
			masks = append(masks, int(a.ID))
		}
	}
	ref.Run(s, wsp.Options{Target: v, DisabledEdges: append(masks, faults...)})
	if ref.HopDist(v) != d {
		return nil
	}
	return ref.PathTo(v)
}

// TestGtauCheckMatchesMaskedSearch holds every (π,D) G_τ(v) check the
// engine derives from its unmasked G∖F run to the masked search it
// replaced: the same verdict (the record is new-ending exactly when the
// masked search is farther) and, for satisfied checks, the same path. It
// replays H(v) from the collected records, so each check sees the
// structure of its turn τ. Each graph is built from vertex 0 and from a
// vertex of least degree: behind a source of degree 1 the first π edge
// detaches the whole graph, past the repair's volume cap. The test
// requires that the checks covered each way the derivation can go: the
// canonical path's last edge already in H(v), the scan over v's H(v)
// neighbours, and unmasked runs that fell back to scratch.
func TestGtauCheckMatchesMaskedSearch(t *testing.T) {
	var checks, byLastEdge, byNeighbours, fellBack int
	for _, g := range []*graph.Graph{
		gen.SparseGNP(300, 6, 1),
		gen.GNP(60, 0.3, 7),
		gen.Grid(8, 8),
		gen.TreePlusChords(60, 8, 3),
	} {
		w := wsp.NewAssignment(g.M(), 1)
		low := 0
		for v := range g.N() {
			if g.Degree(v) < g.Degree(low) {
				low = v
			}
		}
		for _, s := range []int{0, low} {
			c, b, n, f := checkGtau(t, g, w, s)
			checks, byLastEdge, byNeighbours, fellBack = checks+c, byLastEdge+b, byNeighbours+n, fellBack+f
		}
	}
	t.Logf("%d checks: %d by the last edge, %d by the neighbour scan, %d after a fallback", checks, byLastEdge, byNeighbours, fellBack)
	if byLastEdge == 0 || byNeighbours == 0 || fellBack == 0 {
		t.Fatalf("checks missed a branch: %d by the last edge, %d by the neighbour scan, %d after a fallback",
			byLastEdge, byNeighbours, fellBack)
	}
}

// checkGtau runs TestGtauCheckMatchesMaskedSearch's comparison on the
// build of g from s, and returns how many checks it made, how many the
// last edge answered, how many the neighbour scan answered, and after how
// many the unmasked run had fallen back.
func checkGtau(t *testing.T, g *graph.Graph, w *wsp.Assignment, s int) (checks, byLastEdge, byNeighbours, fellBack int) {
	t.Helper()
	tree := wsp.NewTree(g, w, s)
	e := NewEngine(tree)
	ref := wsp.NewRepairSearch(tree)
	unmasked := wsp.NewRepairSearch(tree)
	for _, v := range tree.Preorder() {
		tr := e.BuildTarget(int(v), true)
		if tr == nil {
			continue
		}
		inH := make(map[int]bool)
		for _, id := range e.TreeEdgesAt(tr.V) {
			inH[id] = true
		}
		for _, rec := range tr.Records {
			if rec.Kind == KindPiD && !rec.Unreachable {
				checks++
				d := int32(rec.Path.Len())
				want := gtauMasked(ref, g, s, tr.V, d, inH, rec.FaultIDs)
				if rec.NewEnding != (want == nil) {
					t.Fatalf("s=%d v=%d faults %v: derived check says new-ending=%v, masked search found %v",
						s, tr.V, rec.FaultIDs, rec.NewEnding, want)
				}
				if want != nil && !slices.Equal(rec.Path, want) {
					t.Fatalf("s=%d v=%d faults %v: derived path %v, masked search %v", s, tr.V, rec.FaultIDs, rec.Path, want)
				}
				unmasked.Run(s, wsp.Options{Target: tr.V, DisabledEdges: rec.FaultIDs})
				if _, ok := unmasked.Changed(); !ok {
					fellBack++
				}
				if inH[unmasked.ParentEdgeOf(tr.V)] {
					byLastEdge++
				} else if want != nil {
					byNeighbours++
				}
			}
			if rec.NewEnding {
				inH[rec.LastEdgeID] = true
			}
		}
	}
	return checks, byLastEdge, byNeighbours, fellBack
}

// TestTargetResultsOrderIndependent runs one engine over every target in
// T0 preorder, in reverse preorder and in a shuffled order, and a fresh
// engine per target, for both the dual and the single-failure builder.
// The memo is exact, so all four must give identical TargetResults —
// records, detours, H(v), new edges and counts — and the same logical
// search and tie counts. No engine's memo may outgrow its 8·n bound, and
// Cycle(60)'s long paths must make the preorder engine evict entries to
// stay within it.
func TestTargetResultsOrderIndependent(t *testing.T) {
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		evict bool
	}{
		{"sparse", gen.SparseGNP(150, 5, 3), false},
		{"chords", gen.TreePlusChords(100, 20, 5), false},
		{"grid", gen.Grid(7, 7), false},
		{"cycle", gen.Cycle(60), true},
	} {
		tree := wsp.NewTree(c.g, wsp.NewAssignment(c.g.M(), 7), 0)
		pre := tree.Preorder()
		rev := slices.Clone(pre)
		slices.Reverse(rev)
		shuffled := slices.Clone(pre)
		rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		for _, single := range []bool{false, true} {
			build := func(e *Engine, v int) *TargetResult {
				if single {
					return e.BuildTargetSingle(v, true)
				}
				return e.BuildTarget(v, true)
			}
			want := make([]*TargetResult, c.g.N())
			var wantStats Stats
			for v := range want {
				e := NewEngine(tree)
				want[v] = build(e, v)
				st := e.Stats()
				wantStats.Dijkstras += st.Dijkstras
				wantStats.TieWarnings += st.TieWarnings
			}
			for oi, order := range [][]int32{pre, rev, shuffled} {
				e := NewEngine(tree)
				for _, v := range order {
					if got := build(e, int(v)); !reflect.DeepEqual(got, want[v]) {
						t.Fatalf("%s single=%v order %d: target %d differs from a fresh engine's", c.name, single, oi, v)
					}
				}
				if st := e.Stats(); st.Dijkstras != wantStats.Dijkstras || st.TieWarnings != wantStats.TieWarnings {
					t.Fatalf("%s single=%v order %d: %d searches, %d ties; fresh engines %d, %d",
						c.name, single, oi, st.Dijkstras, st.TieWarnings, wantStats.Dijkstras, wantStats.TieWarnings)
				}
				if e.memo.peak > memoBound*c.g.N() {
					t.Fatalf("%s single=%v order %d: the memo peaked at %d vertices, past its bound %d·n",
						c.name, single, oi, e.memo.peak, memoBound)
				}
				if oi == 0 && c.evict && e.memo.evictions == 0 {
					t.Fatalf("%s single=%v: the memo peaked at %d vertices and never hit its %d·n bound",
						c.name, single, e.memo.peak, memoBound)
				}
			}
		}
	}
}

// TestKernelRunsBelowLogicalSearches pins the logical search count of a
// full dual build to the count of an engine that ran every search, and
// requires the memo and the derived G_τ(v) checks to leave at most 65% of
// them as kernel runs.
func TestKernelRunsBelowLogicalSearches(t *testing.T) {
	g := gen.SparseGNP(300, 6, 1)
	tree := wsp.NewTree(g, wsp.NewAssignment(g.M(), 1), 0)
	e := NewEngine(tree)
	for _, v := range tree.Preorder() {
		e.BuildTarget(int(v), false)
	}
	st := e.Stats()
	const logical = 10744
	if st.Dijkstras != logical {
		t.Fatalf("Dijkstras = %d, want %d", st.Dijkstras, logical)
	}
	if st.KernelRuns*100 > 65*st.Dijkstras {
		t.Fatalf("KernelRuns = %d, more than 65%% of %d logical searches", st.KernelRuns, st.Dijkstras)
	}
}
