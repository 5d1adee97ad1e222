package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sched"
)

// builders enumerates every builder in this package behind one signature,
// so cancellation and equivalence properties are tested uniformly.
func builders() map[string]func(*graph.Graph, *Options) (*Structure, error) {
	return map[string]func(*graph.Graph, *Options) (*Structure, error){
		"dual":   func(g *graph.Graph, o *Options) (*Structure, error) { return BuildDual(g, 0, o) },
		"single": func(g *graph.Graph, o *Options) (*Structure, error) { return BuildSingle(g, 0, o) },
		"fullpaths": func(g *graph.Graph, o *Options) (*Structure, error) {
			return BuildFullPaths(g, 0, o)
		},
		"exhaustive-f2": func(g *graph.Graph, o *Options) (*Structure, error) {
			return BuildExhaustive(g, 0, 2, o)
		},
		"vertex-f2": func(g *graph.Graph, o *Options) (*Structure, error) {
			return BuildVertexExhaustive(g, 0, 2, o)
		},
		"multi": func(g *graph.Graph, o *Options) (*Structure, error) {
			return BuildMultiSource(g, []int{0, 1, 2}, o, BuildDual)
		},
	}
}

// TestBuildPreCancelled: a context cancelled before the build starts makes
// every builder return ctx.Err() — bare, so errors.Is works — and a nil
// structure, sequentially and in parallel.
func TestBuildPreCancelled(t *testing.T) {
	g := gen.SparseGNP(40, 4, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, build := range builders() {
		for _, par := range []int{0, 4} {
			st, err := build(g, &Options{Seed: 1, Ctx: ctx, Parallelism: par})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s (parallelism %d): err = %v, want context.Canceled", name, par, err)
			}
			if st != nil {
				t.Errorf("%s (parallelism %d): got a partial structure despite cancellation", name, par)
			}
		}
	}
}

// TestBuildCancelMidway cancels a running exhaustive build and checks it
// returns promptly with ctx.Err() and without publishing anything.
func TestBuildCancelMidway(t *testing.T) {
	g := gen.SparseGNP(240, 5, 3) // big enough that f=2 exhaustive runs a while
	prog := &Progress{}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Wait until the build demonstrably made progress, then cancel.
		for prog.Snapshot().Dijkstras < 50 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	start := time.Now()
	st, err := BuildExhaustive(g, 0, 2, &Options{Seed: 1, Ctx: ctx, Progress: prog, Parallelism: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st != nil {
		t.Fatalf("cancelled build published a structure")
	}
	// Not a strict latency assertion (CI noise), but a cancelled build
	// must not run to completion: the full build is ~C(m,2) Dijkstras.
	if done := prog.Snapshot(); done.UnitsTotal > 0 && done.UnitsDone >= done.UnitsTotal {
		t.Fatalf("build ran to completion (%d/%d units) despite cancellation", done.UnitsDone, done.UnitsTotal)
	}
	t.Logf("cancelled after %v, %d/%d units", time.Since(start),
		prog.Snapshot().UnitsDone, prog.Snapshot().UnitsTotal)
}

// TestBuildWithContextIdentical: threading a (live) context and a progress
// sink changes nothing about the output.
func TestBuildWithContextIdentical(t *testing.T) {
	g := gen.SparseGNP(40, 4, 3)
	for name, build := range builders() {
		plain, err := build(g, &Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog := &Progress{}
		ctxed, err := build(g, &Options{Seed: 7, Ctx: context.Background(), Progress: prog})
		if err != nil {
			t.Fatalf("%s with ctx: %v", name, err)
		}
		if plain.NumEdges() != ctxed.NumEdges() {
			t.Fatalf("%s: edge count changed with ctx: %d vs %d", name, plain.NumEdges(), ctxed.NumEdges())
		}
		for _, id := range plain.Edges.IDs() {
			if !ctxed.Edges.Has(id) {
				t.Fatalf("%s: edge %d missing from ctx build", name, id)
			}
		}
	}
}

// TestProgressCounters checks the published counters are complete and
// consistent at build completion for the per-target and exhaustive paths.
func TestProgressCounters(t *testing.T) {
	g := gen.SparseGNP(40, 4, 3)
	t.Run("dual", func(t *testing.T) {
		for _, workers := range []int{1, 3} {
			prog := &Progress{}
			st, err := BuildDual(g, 0, &Options{Seed: 1, Progress: prog, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			ps := prog.Snapshot()
			if ps.UnitsDone != ps.UnitsTotal || ps.UnitsTotal != int64(g.N()) {
				t.Fatalf("workers=%d: units %d/%d, want %d/%d", workers, ps.UnitsDone, ps.UnitsTotal, g.N(), g.N())
			}
			// Extra workers' engine construction is in neither count.
			if ps.Dijkstras != int64(st.Stats.Dijkstras) {
				t.Fatalf("workers=%d: progress Dijkstras %d != stats %d", workers, ps.Dijkstras, st.Stats.Dijkstras)
			}
			// One worker counts kept edges exactly; more may double-count.
			if ps.EdgesKept < int64(st.NumEdges()) || workers == 1 && ps.EdgesKept != int64(st.NumEdges()) {
				t.Fatalf("workers=%d: progress edges %d, structure %d", workers, ps.EdgesKept, st.NumEdges())
			}
			if f := ps.Fraction(); f != 1 {
				t.Fatalf("workers=%d: fraction %f at completion", workers, f)
			}
		}
	})
	t.Run("fullpaths", func(t *testing.T) {
		// The path-closure pass publishes its own units and edge deltas:
		// done == total only at the true end, EdgesKept == |E_H| exactly.
		prog := &Progress{}
		st, err := BuildFullPaths(g, 0, &Options{Seed: 1, Progress: prog})
		if err != nil {
			t.Fatal(err)
		}
		ps := prog.Snapshot()
		if want := int64(2 * g.N()); ps.UnitsDone != want || ps.UnitsTotal != want {
			t.Fatalf("units %d/%d, want %d (dual pass + closure pass)", ps.UnitsDone, ps.UnitsTotal, want)
		}
		if ps.EdgesKept != int64(st.NumEdges()) {
			t.Fatalf("progress edges %d != structure %d", ps.EdgesKept, st.NumEdges())
		}
	})
	t.Run("exhaustive-parallel", func(t *testing.T) {
		prog := &Progress{}
		st, err := BuildExhaustive(g, 0, 2, &Options{Seed: 1, Progress: prog, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		ps := prog.Snapshot()
		want := sched.NumFaultSets(g.M(), 2)
		if ps.UnitsDone != want || ps.UnitsTotal != want {
			t.Fatalf("units %d/%d, want %d", ps.UnitsDone, ps.UnitsTotal, want)
		}
		if ps.Dijkstras != int64(st.Stats.Dijkstras) {
			t.Fatalf("progress Dijkstras %d != stats %d", ps.Dijkstras, st.Stats.Dijkstras)
		}
		// Parallel workers may double-count overlapping edges: upper bound.
		if ps.EdgesKept < int64(st.NumEdges()) {
			t.Fatalf("progress edges %d below final union %d", ps.EdgesKept, st.NumEdges())
		}
	})
}

// TestMultiSourceFractionMonotone: BuildMultiSource announces the whole
// composite's work-unit total through the first per-source build, so the
// live fraction never regresses at a source boundary (and duplicate
// sources don't inflate the total).
func TestMultiSourceFractionMonotone(t *testing.T) {
	g := gen.SparseGNP(60, 4, 3)
	cases := map[string]struct {
		build       func(*graph.Graph, int, *Options) (*Structure, error)
		unitsPerSrc int64
	}{
		"dual":      {BuildDual, int64(g.N())},
		"fullpaths": {BuildFullPaths, 2 * int64(g.N())}, // dual pass + closure pass
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			prog := &Progress{}
			done := make(chan struct{})
			var lastFrac float64
			go func() {
				defer close(done)
				for {
					ps := prog.Snapshot()
					if f := ps.Fraction(); f < lastFrac {
						t.Errorf("fraction regressed: %f after %f (%+v)", f, lastFrac, ps)
						return
					} else {
						lastFrac = f
					}
					if ps.UnitsTotal > 0 && ps.UnitsDone == ps.UnitsTotal {
						return
					}
					time.Sleep(20 * time.Microsecond)
				}
			}()
			_, err := BuildMultiSource(g, []int{0, 5, 5, 11}, &Options{Seed: 1, Progress: prog}, tc.build)
			if err != nil {
				t.Fatal(err)
			}
			<-done
			ps := prog.Snapshot()
			if want := 3 * tc.unitsPerSrc; ps.UnitsTotal != want || ps.UnitsDone != want {
				t.Fatalf("units %d/%d, want %d (3 unique sources)", ps.UnitsDone, ps.UnitsTotal, want)
			}
		})
	}
}

// TestProgressMonotonic snapshots concurrently with a running build (the
// race detector guards the memory model; this guards monotonicity).
func TestProgressMonotonic(t *testing.T) {
	g := gen.SparseGNP(80, 5, 3)
	prog := &Progress{}
	done := make(chan struct{})
	var last ProgressSnapshot
	go func() {
		defer close(done)
		for {
			ps := prog.Snapshot()
			if ps.UnitsDone < last.UnitsDone || ps.UnitsTotal < last.UnitsTotal ||
				ps.Dijkstras < last.Dijkstras || ps.EdgesKept < last.EdgesKept {
				t.Errorf("progress went backwards: %+v after %+v", ps, last)
				return
			}
			last = ps
			if ps.UnitsTotal > 0 && ps.UnitsDone == ps.UnitsTotal {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	if _, err := BuildDual(g, 0, &Options{Seed: 1, Progress: prog, Parallelism: 3}); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestNilProgressAndContext: the nil-safety contract (no options at all).
func TestNilProgressAndContext(t *testing.T) {
	var p *Progress
	p.AddUnits(1)
	p.AddTotal(1)
	p.AddDijkstras(1)
	p.AddEdges(1)
	if s := p.Snapshot(); s != (ProgressSnapshot{}) {
		t.Fatalf("nil Progress snapshot = %+v", s)
	}
	if (ProgressSnapshot{}).Fraction() != 0 {
		t.Fatal("zero snapshot fraction != 0")
	}
	var o *Options
	if o.Context() == nil {
		t.Fatal("nil options context")
	}
	if o.ProgressSink() != nil {
		t.Fatal("nil options progress sink")
	}
}
