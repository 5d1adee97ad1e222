package oracle

import (
	"math/rand"
	"testing"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gen"
)

// BenchmarkOracleQueryCached measures the memoized path: all targets under
// one failure event cost one BFS over the sparse structure.
func BenchmarkOracleQueryCached(b *testing.B) {
	g := gen.SparseGNP(400, 8, 1)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	set, err := NewSet(st, 0)
	if err != nil {
		b.Fatal(err)
	}
	o := set.Handle()
	faults := []int{3}
	if _, err := o.Dist(0, 1, faults); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Dist(0, i%g.N(), faults); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracleSetParallel measures the concurrent hot path: many
// goroutines answering cached failure events through pooled handles over
// one shared set (the ftbfsd serving shape). Allocations should be zero
// after warmup.
func BenchmarkOracleSetParallel(b *testing.B) {
	g := gen.SparseGNP(400, 8, 1)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	set, err := NewSet(st, 0)
	if err != nil {
		b.Fatal(err)
	}
	warm := set.Handle()
	events := [][]int{{3}, {9}, {21}, {30}}
	for _, f := range events {
		if _, err := warm.Dist(0, 1, f); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		o := set.Acquire()
		defer set.Release(o)
		i := 0
		for pb.Next() {
			if _, err := o.Dist(0, i%g.N(), events[i%len(events)]); err != nil {
				b.Error(err) // Fatal must not be called off the main goroutine
				return
			}
			i++
		}
	})
}

// BenchmarkDeltaLookup contrasts the two cached point-lookup paths: a
// delta-encoded entry (binary search over the changed set, base fallback)
// against a full-table entry (direct index). The acceptance bar: delta
// within 2× of full.
func BenchmarkDeltaLookup(b *testing.B) {
	g := gen.SparseGNP(400, 8, 1)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	set, err := NewSet(st, 4<<20) // ample: nothing evicts mid-run
	if err != nil {
		b.Fatal(err)
	}
	o := set.Handle()
	// Find one fault of each encoding by watching the entry-kind counters:
	// which side of the n/8 threshold an event lands on depends on where
	// its edge sits in the BFS tree.
	deltaFault, fullFault := -1, -1
	for a := 0; a < g.M() && (deltaFault < 0 || fullFault < 0); a++ {
		before := set.CacheStats()
		if _, err := o.Dist(0, 1, []int{a}); err != nil {
			b.Fatal(err)
		}
		after := set.CacheStats()
		if deltaFault < 0 && after.DeltaEntries > before.DeltaEntries {
			deltaFault = a
		}
		if fullFault < 0 && after.FullEntries > before.FullEntries {
			fullFault = a
		}
	}
	run := func(b *testing.B, fault int) {
		if fault < 0 {
			b.Skip("no event of this encoding on the bench graph")
		}
		faults := []int{fault}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := o.Dist(0, i%g.N(), faults); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("delta", func(b *testing.B) { run(b, deltaFault) })
	b.Run("full", func(b *testing.B) { run(b, fullFault) })
}

// BenchmarkZipfServing measures end-to-end point-lookup throughput on a
// Zipf-skewed failure-event stream at one fixed byte budget, where the hit
// rate — how many events the memo holds — sets the pace, not lookup
// latency. The full-scale sweep lives in ftbfsbench -zipf.
func BenchmarkZipfServing(b *testing.B) {
	g := gen.SparseGNP(400, 8, 1)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	const budget = 32 << 10
	rng := rand.New(rand.NewSource(7))
	z := rand.NewZipf(rng, 1.2, 1, uint64(g.M()-1))
	const streamLen = 1 << 14
	faults := make([]int, streamLen)
	targets := make([]int, streamLen)
	for i := range faults {
		faults[i] = int(z.Uint64())
		targets[i] = rng.Intn(g.N())
	}
	fault := make([]int, 1)
	// The sub-benchmark keeps its name so benchstat pairs it with earlier
	// results.
	b.Run("delta", func(b *testing.B) {
		set, err := NewSet(st, budget)
		if err != nil {
			b.Fatal(err)
		}
		o := set.Handle()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % streamLen
			fault[0] = faults[j]
			if _, err := o.Dist(0, targets[j], fault); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOracleVsFullGraphBFS contrasts answering a fresh failure event
// inside the structure with BFS over the full graph.
func BenchmarkOracleVsFullGraphBFS(b *testing.B) {
	g := gen.SparseGNP(400, 8, 1)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("structure", func(b *testing.B) {
		set, err := NewSet(st, 0)
		if err != nil {
			b.Fatal(err)
		}
		o := set.Handle()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := o.Dists(0, []int{i % g.M()}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-graph", func(b *testing.B) {
		r := bfs.NewRunner(g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Run(0, []int{i % g.M()}, nil)
		}
	})
}

// BenchmarkOracleQueryUncached measures the unmemoized path — every query
// pays canonicalization, fault translation and one repair against the
// source's pinned tree over the structure's CSR subgraph (cache disabled).
// This is the floor the LRU saves against, and the path batch queries hit
// on every distinct failure event.
func BenchmarkOracleQueryUncached(b *testing.B) {
	g := gen.SparseGNP(400, 8, 1)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	set, err := NewSet(st, -1) // no memo
	if err != nil {
		b.Fatal(err)
	}
	o := set.Handle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Dists(0, []int{i % g.M()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracleMiss measures one memo miss on the serving shape: uniform
// two-edge failure events on a two-source structure over a sparse
// 1000-vertex graph, under an 8 MiB byte budget that fills and evicts.
// one-source sends every miss from source 0; two-sources alternates
// between the structure's sources, as multi-source batches do. Every miss
// repairs against its source's pinned tree, so a source switch costs a
// table copy rather than a BFS and the two stay within 1.5× of each other.
// The structure is built once, outside both sub-benchmarks, from
// single-fault builds, which carry no replacement-distance table, so every
// query reaches the memo; its fault budget is then raised to 2 to admit
// two-edge events. A miss's cost depends on H's size and the detached
// subtrees, not on H's guarantee, so the timing holds for a table-less
// dual structure (a restored snapshot) too. BenchmarkOracleTable runs the
// same stream on the dual build's tables.
func BenchmarkOracleMiss(b *testing.B) {
	g := gen.SparseGNP(1000, 6, 1)
	st, err := core.BuildMultiSource(g, []int{0, 500}, nil, core.BuildSingle)
	if err != nil {
		b.Fatal(err)
	}
	st.Faults = 2
	for _, bc := range []struct {
		name string
		srcs []int
	}{{"one-source", []int{0}}, {"two-sources", []int{0, 500}}} {
		b.Run(bc.name, func(b *testing.B) {
			set, err := NewSet(st, 8<<20)
			if err != nil {
				b.Fatal(err)
			}
			o := set.Handle()
			for _, s := range bc.srcs { // pin the trees
				if _, err := o.Dist(s, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(1))
			faults := make([]int, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				faults[0], faults[1] = rng.Intn(g.M()), rng.Intn(g.M())
				for faults[1] == faults[0] {
					faults[1] = rng.Intn(g.M())
				}
				if _, err := o.Dist(bc.srcs[i%len(bc.srcs)], i%g.N(), faults); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOracleTable is BenchmarkOracleMiss's query stream on the dual
// structure it stands in for: uniform two-edge failure events from one
// source or alternating between two, on the two-source dual build of the
// same sparse 1000-vertex graph. Dist reads each answer from the build's
// replacement-distance tables, so no query reaches the memo.
func BenchmarkOracleTable(b *testing.B) {
	g := gen.SparseGNP(1000, 6, 1)
	st, err := core.BuildMultiSource(g, []int{0, 500}, &core.Options{Parallelism: 2}, core.BuildDual)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		srcs []int
	}{{"one-source", []int{0}}, {"two-sources", []int{0, 500}}} {
		b.Run(bc.name, func(b *testing.B) {
			set, err := NewSet(st, 8<<20)
			if err != nil {
				b.Fatal(err)
			}
			o := set.Handle()
			rng := rand.New(rand.NewSource(1))
			faults := make([]int, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				faults[0], faults[1] = rng.Intn(g.M()), rng.Intn(g.M())
				for faults[1] == faults[0] {
					faults[1] = rng.Intn(g.M())
				}
				if _, err := o.Dist(bc.srcs[i%len(bc.srcs)], i%g.N(), faults); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if cs := set.CacheStats(); cs.Misses != 0 {
				b.Fatalf("%d queries reached the memo", cs.Misses)
			}
		})
	}
}

// BenchmarkServingBuild times the two query kinds the serving build's
// tables took over from the memo, each against the memo hit it replaces,
// over ftbfsd's benchmark stream: the two-source dual build of a sparse
// 1000-vertex graph, and Zipf-ranked (s = 1.2) failure events from a
// universe of 4096 (80% two-edge, 20% one-edge), 10% of queries fault-free.
// route appends each route into one reused buffer (AppendRoute), dists
// lends each whole table (DistsLent). table reads the build's tables;
// memo serves a copy without them, as a restored build is, from a memo
// warmed with every event, so every query is a hit. Neither allocates.
func BenchmarkServingBuild(b *testing.B) {
	g := gen.SparseGNP(1000, 6, 1)
	srcs := []int{0, 500}
	st, err := core.BuildMultiSource(g, srcs, &core.Options{Parallelism: 2}, core.BuildDual)
	if err != nil {
		b.Fatal(err)
	}
	type query struct {
		s, v   int
		faults []int
	}
	rng := rand.New(rand.NewSource(1))
	events := make([][]int, 4096)
	for i := range events {
		events[i] = []int{rng.Intn(g.M())}
		if rng.Float64() >= 0.2 {
			for f := events[i][0]; f == events[i][0]; {
				f = rng.Intn(g.M())
				events[i] = append(events[i][:1], f)
			}
		}
	}
	zsrc := rand.NewZipf(rng, 1.2, 1, uint64(len(srcs)-1))
	zev := rand.NewZipf(rng, 1.2, 1, uint64(len(events)-1))
	stream := make([]query, 1<<14)
	for i := range stream {
		q := &stream[i]
		q.s, q.v = srcs[zsrc.Uint64()], rng.Intn(g.N())
		if rng.Float64() >= 0.1 {
			q.faults = events[zev.Uint64()]
		}
	}
	for _, kind := range []string{"route", "dists"} {
		for _, side := range []string{"table", "memo"} {
			b.Run(kind+"/"+side, func(b *testing.B) {
				serving := st
				if side == "memo" {
					serving = tableless(st)
				}
				set, err := NewSet(serving, 8<<20)
				if err != nil {
					b.Fatal(err)
				}
				o := set.Handle()
				var path []int
				ask := func(q query) {
					if kind == "route" {
						path, err = o.AppendRoute(path[:0], q.s, q.v, q.faults)
					} else {
						_, err = o.DistsLent(q.s, q.faults)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				for _, q := range stream { // fill the memo and grow the buffers
					ask(q)
				}
				before := set.CacheStats()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ask(stream[i%len(stream)])
				}
				b.StopTimer()
				cs := set.CacheStats()
				if side == "table" && cs.Hits+cs.Misses != 0 {
					b.Fatalf("%d queries reached the memo", cs.Hits+cs.Misses)
				}
				if side == "memo" && cs.Misses != before.Misses {
					b.Fatalf("%d memo misses after the warm-up", cs.Misses-before.Misses)
				}
			})
		}
	}
}

// BenchmarkOracleSetBuild measures NewSet itself: materializing H as its
// own graph plus the G→H edge map, and pinning the source's tree.
func BenchmarkOracleSetBuild(b *testing.B) {
	g := gen.SparseGNP(400, 8, 1)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSet(st, 0); err != nil {
			b.Fatal(err)
		}
	}
}
