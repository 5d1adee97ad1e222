package multifail

import (
	"context"
	"errors"
	"time"

	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/verify"
)

func TestBuildErrors(t *testing.T) {
	g := gen.PathGraph(4)
	if _, err := Build(g, -1, 2, nil); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := Build(g, 0, -1, nil); err == nil {
		t.Fatal("negative f accepted")
	}
}

func TestBuildVerifiesAllF(t *testing.T) {
	g := gen.GNP(14, 0.25, 6)
	for f := 0; f <= 3; f++ {
		st, err := Build(g, 0, f, &core.Options{Seed: 3})
		if err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		rep := verify.FTBFS(g, st.Edges, []int{0}, f, nil)
		if !rep.OK {
			t.Fatalf("f=%d: %v", f, rep.Violations)
		}
		if st.Faults != f {
			t.Fatalf("faults field = %d", st.Faults)
		}
	}
}

// TestBuildAcrossFamiliesF3 runs f=3 builds on small graphs where the
// exhaustive f=3 verification is feasible.
func TestBuildAcrossFamiliesF3(t *testing.T) {
	t.Run("cycle9", func(t *testing.T) {
		g := gen.Cycle(9)
		st, err := Build(g, 0, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.NumEdges() != g.M() {
			t.Fatalf("cycle f=3 must keep all edges, got %d", st.NumEdges())
		}
		rep := verify.FTBFS(g, st.Edges, []int{0}, 3, nil)
		if !rep.OK {
			t.Fatalf("verify: %v", rep.Violations)
		}
	})
	t.Run("grid3x4", func(t *testing.T) {
		g := gen.Grid(3, 4)
		st, err := Build(g, 0, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep := verify.FTBFS(g, st.Edges, []int{0}, 3, nil)
		if !rep.OK {
			t.Fatalf("verify: %v", rep.Violations)
		}
	})
	t.Run("chords", func(t *testing.T) {
		g := gen.TreePlusChords(14, 4, 7)
		st, err := Build(g, 0, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep := verify.FTBFS(g, st.Edges, []int{0}, 3, nil)
		if !rep.OK {
			t.Fatalf("verify: %v", rep.Violations)
		}
	})
}

// TestMatchesExhaustiveDistances: the relevant-tree structure and the full
// m^f closure both verify; the relevant tree must not be larger (it keeps a
// subset of canonical last edges).
func TestSubsetOfExhaustive(t *testing.T) {
	g := gen.GNP(12, 0.3, 9)
	for f := 1; f <= 2; f++ {
		rel, err := Build(g, 0, f, &core.Options{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		exh, err := core.BuildExhaustive(g, 0, f, &core.Options{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		rel.Edges.ForEach(func(id int) {
			if !exh.Edges.Has(id) {
				t.Fatalf("f=%d: relevant-tree edge %d not in exhaustive closure", f, id)
			}
		})
		if rel.Stats.Dijkstras >= exh.Stats.Dijkstras && f == 2 {
			t.Fatalf("f=2: relevant tree used %d searches, exhaustive %d — no savings",
				rel.Stats.Dijkstras, exh.Stats.Dijkstras)
		}
	}
}

func TestComparableToConsDual(t *testing.T) {
	g := gen.SparseGNP(30, 4, 11)
	rel, err := Build(g, 0, 2, &core.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dual, err := core.BuildDual(g, 0, &core.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := verify.FTBFS(g, rel.Edges, []int{0}, 2, nil)
	if !rep.OK {
		t.Fatalf("verify: %v", rep.Violations)
	}
	// Both correct dual structures; sizes should be in the same ballpark
	// (the Cons2FTBFS selection rules only shave constants).
	lo, hi := dual.NumEdges()/2, dual.NumEdges()*2
	if rel.NumEdges() < lo || rel.NumEdges() > hi {
		t.Fatalf("relevant-tree size %d far from Cons2FTBFS %d", rel.NumEdges(), dual.NumEdges())
	}
}

// Property: the builder stays correct across random sparse graphs at f=2
// (verified exhaustively) and f=3 (verified by sampling).
func TestQuickRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		g := gen.SparseGNP(n, 3, seed)
		st, err := Build(g, 0, 2, &core.Options{Seed: seed})
		if err != nil {
			return false
		}
		if !verify.FTBFS(g, st.Edges, []int{0}, 2, nil).OK {
			return false
		}
		st3, err := Build(g, 0, 3, &core.Options{Seed: seed})
		if err != nil {
			return false
		}
		return verify.Sampled(g, st3.Edges, []int{0}, 3, 150, seed, nil).OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnectedGraph(t *testing.T) {
	g := gen.PathGraph(6)
	// Split the path: remove nothing, but build from an end; f=2 on a path
	// keeps the whole path (only structure possible).
	st, err := Build(g, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumEdges() != g.M() {
		t.Fatalf("path structure = %d edges", st.NumEdges())
	}
}

// TestParallelBuildMatches checks Options.Parallelism: per-target
// relevant trees are independent, so any worker count must produce the
// sequential structure, search count and tie warnings exactly.
func TestParallelBuildMatches(t *testing.T) {
	g := gen.GNP(16, 0.25, 12)
	for f := 0; f <= 3; f++ {
		seq, err := Build(g, 0, f, &core.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 32} {
			par, err := Build(g, 0, f, &core.Options{Seed: 3, Parallelism: workers})
			if err != nil {
				t.Fatalf("f=%d workers=%d: %v", f, workers, err)
			}
			if seq.NumEdges() != par.NumEdges() {
				t.Fatalf("f=%d workers=%d: %d vs %d edges", f, workers, seq.NumEdges(), par.NumEdges())
			}
			ids, idp := seq.Edges.IDs(), par.Edges.IDs()
			for i := range ids {
				if ids[i] != idp[i] {
					t.Fatalf("f=%d workers=%d: edge sets differ", f, workers)
				}
			}
			if seq.Stats.Dijkstras != par.Stats.Dijkstras || seq.Stats.TieWarnings != par.Stats.TieWarnings {
				t.Fatalf("f=%d workers=%d: stats %+v vs %+v", f, workers, par.Stats, seq.Stats)
			}
		}
	}
}

// TestBuildCancelled: a cancelled context stops the relevant-fault-tree
// enumeration — bare ctx.Err(), no partial structure — sequentially and
// in parallel; progress counters report work done before the stop.
func TestBuildCancelled(t *testing.T) {
	g := gen.SparseGNP(60, 4, 3)
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	for _, workers := range []int{0, 4} {
		st, err := Build(g, 0, 2, &core.Options{Seed: 1, Ctx: pre, Parallelism: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if st != nil {
			t.Fatalf("workers=%d: partial structure escaped", workers)
		}
	}

	prog := &core.Progress{}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for prog.Snapshot().Dijkstras < 20 {
			time.Sleep(50 * time.Microsecond)
		}
		cancel()
	}()
	st, err := Build(g, 0, 3, &core.Options{Seed: 1, Ctx: ctx, Progress: prog, Parallelism: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-build: err = %v, want context.Canceled", err)
	}
	if st != nil {
		t.Fatal("mid-build: partial structure escaped")
	}
	if ps := prog.Snapshot(); ps.Dijkstras < 20 {
		t.Fatalf("progress lost work: %+v", ps)
	}
}
