package replace

import (
	"testing"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestStep1DivergenceMinimalLinearScan validates the Step-1 binary search
// against a brute-force linear scan of every candidate divergence point:
// the chosen k must be the minimal one whose restricted graph G(u_k, u_i)
// preserves the replacement distance (monotonicity is what the binary
// search relies on — a disagreement here would expose it).
func TestStep1DivergenceMinimalLinearScan(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.GNP(18, 0.25, 31),
		gen.Grid(4, 4),
		gen.TreePlusChords(20, 6, 2),
	} {
		eng := newEngine(t, g, 0, 5)
		r := bfs.NewRunner(g)
		for v := 1; v < g.N(); v++ {
			tr := eng.BuildTarget(v, true)
			if tr == nil {
				continue
			}
			for _, rec := range tr.Records {
				if rec.Kind != KindSingle || rec.Unreachable || rec.UsedFallback {
					continue
				}
				i := rec.EIdx
				eid := tr.PiEdgeIDs[i]
				r.Run(0, []int{eid}, nil)
				d := r.Dist(v)
				// Brute force: minimal k in [0, i] with distance preserved.
				want := -1
				for k := 0; k <= i; k++ {
					var off []int
					for j := k + 1; j <= i; j++ {
						off = append(off, tr.Pi[j])
					}
					r.Run(0, []int{eid}, off)
					if r.Dist(v) == d {
						want = k
						break
					}
					r.Run(0, []int{eid}, nil) // reset masks for next probe
				}
				if want < 0 {
					t.Fatalf("v=%d e=%d: no k preserves distance (impossible: k=i must)", v, i)
				}
				if rec.BPos != want {
					t.Fatalf("v=%d e=%d: engine divergence %d, brute force %d", v, i, rec.BPos, want)
				}
			}
		}
	}
}

// TestStep1DivergenceNotLaterThanCleanPaths cross-checks against the
// shortest-path DAG: among all shortest replacement paths with a unique
// divergence point (detour shape, Claim 3.4), none diverges strictly above
// the engine's choice.
func TestStep1DivergenceNotLaterThanCleanPaths(t *testing.T) {
	g := gen.GNP(16, 0.3, 17)
	eng := newEngine(t, g, 0, 9)
	for v := 1; v < g.N(); v++ {
		tr := eng.BuildTarget(v, true)
		if tr == nil {
			continue
		}
		piPos := tr.Pi.Pos()
		for _, rec := range tr.Records {
			if rec.Kind != KindSingle || rec.Unreachable || rec.UsedFallback {
				continue
			}
			dag := newSPDAG(g, 0, rec.FaultIDs)
			for _, p := range dag.allPaths(v, 200) {
				b := p.FirstDivergence(tr.Pi)
				if b < 0 || b >= rec.BPos {
					continue
				}
				// p diverges above the engine's chosen point; the paper
				// says this can happen only for paths that re-touch π
				// between the divergence point and the failure.
				clean := true
				for j := b + 1; j < len(p)-1; j++ {
					if pos, on := piPos[p[j]]; on && pos <= rec.EIdx {
						clean = false
						break
					}
				}
				if clean {
					t.Fatalf("v=%d e=%d: clean path %v diverges at %d, engine chose %d",
						v, rec.EIdx, p, b, rec.BPos)
				}
			}
		}
	}
}

// TestStep3DivergenceMinimalLinearScan does the same brute-force scan for
// the Step-3 G(u_k, v) selection of new-ending (π,D) paths.
func TestStep3DivergenceMinimalLinearScan(t *testing.T) {
	g := gen.GNP(20, 0.2, 23)
	eng := newEngine(t, g, 0, 3)
	r := bfs.NewRunner(g)
	checked := 0
	for v := 1; v < g.N(); v++ {
		tr := eng.BuildTarget(v, true)
		if tr == nil {
			continue
		}
		l := len(tr.Pi) - 1
		for _, rec := range tr.Records {
			if rec.Kind != KindPiD || !rec.NewEnding || rec.UsedFallback || rec.Unreachable {
				continue
			}
			checked++
			r.Run(0, rec.FaultIDs, nil)
			d := r.Dist(v)
			want := -1
			for k := 0; k <= rec.EIdx; k++ {
				var off []int
				for j := k + 1; j < l; j++ {
					off = append(off, tr.Pi[j])
				}
				r.Run(0, rec.FaultIDs, off)
				if r.Dist(v) == d {
					want = k
					break
				}
			}
			if want < 0 {
				t.Fatalf("v=%d F=%v: no divergence point preserves distance", v, rec.FaultIDs)
			}
			if rec.BPos != want {
				t.Fatalf("v=%d F=%v: engine divergence %d, brute force %d",
					v, rec.FaultIDs, rec.BPos, want)
			}
		}
	}
	if checked == 0 {
		t.Skip("no new-ending (π,D) paths on this instance")
	}
}
