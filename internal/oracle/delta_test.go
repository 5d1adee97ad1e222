package oracle

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gen"
)

// This file covers the two-tier memo: delta-vs-full equivalence, the byte
// budget, the pinned-base tier and their interaction under concurrency.

// TestDeltaFullEquivalence drives every single-fault event (and a spread
// of duals) on a graph where some events delta-encode and some store full
// tables, checking every answer — point lookups AND materialized tables —
// against from-scratch BFS, then asserts the memo actually exercised both
// encodings.
func TestDeltaFullEquivalence(t *testing.T) {
	// A sparse graph keeps most detached subtrees tiny (deltas) while a
	// fault near the root still dooms a large subtree (full tables).
	g := gen.SparseGNP(96, 3, 5)
	st, err := core.BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	st = tableless(st)
	set, err := NewSet(st, 1<<20) // ample: no evictions distort Len
	if err != nil {
		t.Fatal(err)
	}
	o := set.Handle()
	truth := bfs.NewRunner(g)
	check := func(faults []int) {
		t.Helper()
		truth.Run(0, faults, nil)
		d, err := o.Dists(0, faults)
		if err != nil {
			t.Fatal(err)
		}
		v0 := g.N() / 2
		pt, err := o.Dist(0, v0, faults)
		if err != nil {
			t.Fatal(err)
		}
		if pt != truth.Dist(v0) {
			t.Fatalf("faults %v: point lookup %d, truth %d", faults, pt, truth.Dist(v0))
		}
		for v := 0; v < g.N(); v++ {
			if d[v] != truth.Dist(v) {
				t.Fatalf("faults %v target %d: oracle %d, truth %d", faults, v, d[v], truth.Dist(v))
			}
		}
	}
	check(nil)
	for a := 0; a < g.M(); a++ {
		check([]int{a})
		if b := (a*11 + 3) % g.M(); b != a {
			check([]int{a, b})
		}
	}
	cs := set.CacheStats()
	if cs.DeltaEntries == 0 || cs.FullEntries == 0 {
		t.Fatalf("workload did not cross the delta/full threshold: %+v", cs)
	}
	if cs.PinnedBytes == 0 {
		t.Fatalf("delta entries without a pinned base: %+v", cs)
	}
	// Re-query everything still cached: hits must reproduce the truth too
	// (exercises DistView.At against both encodings).
	for a := 0; a < g.M(); a += 3 {
		check([]int{a})
	}
}

// TestDistViewAt pins the delta binary search against materialization on
// hand-built views, including the boundary keys.
func TestDistViewAt(t *testing.T) {
	base := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	v := DistView{Base: base, Keys: []int32{0, 3, 7}, Vals: []int32{9, -1, 12}}
	want := v.AppendTo(nil)
	if len(want) != len(base) {
		t.Fatalf("AppendTo length %d, want %d", len(want), len(base))
	}
	for i := range base {
		if got := v.At(i); got != want[i] {
			t.Fatalf("At(%d) = %d, materialized %d", i, got, want[i])
		}
	}
	full := DistView{Full: []int32{4, 5, 6}}
	if full.At(1) != 5 || full.Len() != 3 {
		t.Fatal("full view lookup wrong")
	}
	if v.Len() != len(base) {
		t.Fatalf("delta view Len %d, want %d", v.Len(), len(base))
	}
}

// TestCacheByteBudget checks the byte bound is enforced: BytesUsed never
// exceeds the budget, eviction makes room entry by entry, and an entry
// larger than the whole budget is served uncached instead of flushing
// everything.
func TestCacheByteBudget(t *testing.T) {
	g := gen.SparseGNP(128, 4, 9)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 4096
	set, err := NewSet(st, budget)
	if err != nil {
		t.Fatal(err)
	}
	o := set.Handle()
	for a := 0; a < g.M(); a++ {
		if _, err := o.Dist(0, a%g.N(), []int{a}); err != nil {
			t.Fatal(err)
		}
		if cs := set.CacheStats(); cs.BytesUsed > budget {
			t.Fatalf("after event %d: BytesUsed %d exceeds budget %d", a, cs.BytesUsed, budget)
		}
	}
	cs := set.CacheStats()
	if cs.Evictions == 0 {
		t.Fatalf("byte budget never evicted: %+v", cs)
	}
	if cs.BytesCapacity != budget {
		t.Fatalf("BytesCapacity = %d, want %d", cs.BytesCapacity, budget)
	}
	if cs.Len != cs.DeltaEntries+cs.FullEntries {
		t.Fatalf("entry-kind accounting off: %+v", cs)
	}

	// A budget smaller than one full table: full-table events are served
	// uncached (correctly), delta events still cache.
	tiny, err := NewSet(st, entryOverheadBytes+64)
	if err != nil {
		t.Fatal(err)
	}
	ot := tiny.Handle()
	truth := bfs.NewRunner(g)
	for a := 0; a < g.M(); a += 5 {
		d, err := ot.Dists(0, []int{a})
		if err != nil {
			t.Fatal(err)
		}
		truth.Run(0, []int{a}, nil)
		for v := 0; v < g.N(); v++ {
			if d[v] != truth.Dist(v) {
				t.Fatalf("tiny budget fault %d target %d: %d vs %d", a, v, d[v], truth.Dist(v))
			}
		}
		if cs := tiny.CacheStats(); cs.BytesUsed > entryOverheadBytes+64 {
			t.Fatalf("tiny budget overrun: %+v", cs)
		}
	}
}

// TestDeltaCapacityGain is the tentpole's acceptance criterion: at a fixed
// byte budget, the delta tier must hold at least 10× more failure events
// than budget/(4n) full tables would.
func TestDeltaCapacityGain(t *testing.T) {
	g := gen.SparseGNP(512, 4, 3)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 64 << 10
	set, err := NewSet(st, budget)
	if err != nil {
		t.Fatal(err)
	}
	o := set.Handle()
	for a := 0; a < g.M(); a++ {
		if _, err := o.Dist(0, 1, []int{a}); err != nil {
			t.Fatal(err)
		}
	}
	cs := set.CacheStats()
	fullTables := budget / (4 * g.N()) // what the pre-delta design held
	if cs.Len < 10*fullTables {
		t.Fatalf("delta tier holds %d events at %d bytes; full tables would hold %d — gain %.1fx < 10x (stats %+v)",
			cs.Len, budget, fullTables, float64(cs.Len)/float64(fullTables), cs)
	}
}

// TestCacheBudgetAccessor pins the configured budget as CacheStats
// reports it: exactly what NewSet was given, 0 reads as DefaultCacheBytes
// and a negative budget as the memo off.
func TestCacheBudgetAccessor(t *testing.T) {
	g := gen.PathGraph(6)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name        string
		bytes, want int64
	}{
		{"default", 0, DefaultCacheBytes},
		{"bytes", 1 << 16, 1 << 16},
		{"odd", 3<<20 + 5, 3<<20 + 5},
		{"disabled", -1, 0},
	}
	for _, tc := range cases {
		set, err := NewSet(st, tc.bytes)
		if err != nil {
			t.Fatal(err)
		}
		if cs := set.CacheStats(); cs.BytesCapacity != tc.want {
			t.Errorf("%s: CacheStats budget %d, want %d", tc.name, cs.BytesCapacity, tc.want)
		}
	}
}

// TestNewSetBudgetAdapter pins the adapter kept for the traced replay:
// (0, b, 0) configures exactly what NewSet(st, b) does for b > 0, b ≤ 0
// turns the memo off, and an entry cap or a shard count is refused.
func TestNewSetBudgetAdapter(t *testing.T) {
	st, err := core.BuildSingle(gen.PathGraph(6), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int64{1, 8 << 20, DefaultCacheBytes} {
		got, err := NewSetBudget(st, 0, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewSet(st, b)
		if err != nil {
			t.Fatal(err)
		}
		gs, ws := got.CacheStats(), want.CacheStats()
		if gs.BytesCapacity != ws.BytesCapacity {
			t.Errorf("NewSetBudget(0, %d, 0): budget %d, NewSet gives %d", b, gs.BytesCapacity, ws.BytesCapacity)
		}
	}
	for _, b := range []int64{0, -1} {
		set, err := NewSetBudget(st, 0, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cs := set.CacheStats(); set.cache.maxBytes > 0 || cs.BytesCapacity != 0 {
			t.Errorf("NewSetBudget(0, %d, 0): memo on (%+v), want off", b, cs)
		}
	}
	for _, bad := range []struct{ entries, shards int }{{1, 0}, {-1, 0}, {0, 4}, {0, -1}, {8, 2}} {
		if _, err := NewSetBudget(st, bad.entries, 1<<20, bad.shards); err == nil {
			t.Errorf("NewSetBudget(%d, 1 MiB, %d) accepted an entry cap or shard count", bad.entries, bad.shards)
		}
	}
}

// TestConstructorPinsTrees checks the tier-0 contract: the constructor
// pins every source's base tree — memo on or off — before any query,
// without touching tier-1 state or the hit/miss counters, and a fault-free
// query is then a pure tier-0 hit (counted only when the memo is on).
// PinnedBytes counts each whole tree: distances and parents (n words
// each), child offsets (n+1) and one child slot per reached vertex other
// than the source.
func TestConstructorPinsTrees(t *testing.T) {
	g := gen.GNP(20, 0.3, 4)
	st, err := core.BuildMultiSource(g, []int{0, 9, 17}, nil, core.BuildSingle)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mk   func() (*OracleSet, error)
		memo bool
	}{
		{"bytes", func() (*OracleSet, error) { return NewSet(st, 1<<16) }, true},
		{"off", func() (*OracleSet, error) { return NewSet(st, -1) }, false},
	} {
		set, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for i, src := range st.Sources {
			if set.trees[i] == nil {
				t.Fatalf("%s: source %d has no pinned tree", tc.name, src)
			}
			reached := 0
			for _, d := range bfs.Distances(set.sub, src, nil) {
				if d != bfs.Unreachable {
					reached++
				}
			}
			n := set.sub.N()
			want += 4 * int64(n+n+(n+1)+(reached-1))
		}
		cs := set.CacheStats()
		if cs.Len != 0 || cs.Hits != 0 || cs.Misses != 0 {
			t.Fatalf("%s: the constructor leaked into tier-1 state: %+v", tc.name, cs)
		}
		if cs.PinnedBytes != want {
			t.Fatalf("%s: PinnedBytes = %d, want %d", tc.name, cs.PinnedBytes, want)
		}
		if _, err := set.Handle().Dists(9, nil); err != nil {
			t.Fatal(err)
		}
		wantHits := int64(0)
		if tc.memo {
			wantHits = 1
		}
		if cs := set.CacheStats(); cs.Hits != wantHits || cs.Misses != 0 || cs.PinnedBytes != want {
			t.Fatalf("%s: fault-free query not a pure tier-0 hit: %+v", tc.name, cs)
		}
	}
}

// TestConcurrentTierMix runs concurrent clients mixing tier-0 (fault-free),
// tier-1 (cached events), and uncached queries — with concurrent
// CacheStats readers — under a small byte budget that keeps eviction hot.
// Run with -race this exercises the shared pinned trees, the memo's lock
// and the set-level atomics together; every answer is checked
// against precomputed ground truth.
func TestConcurrentTierMix(t *testing.T) {
	g := gen.SparseGNP(80, 4, 13)
	st, err := core.BuildMultiSource(g, []int{0, 40}, nil, core.BuildSingle)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet(st, 2<<10)
	if err != nil {
		t.Fatal(err)
	}
	srcs := []int{0, 40}
	truth := make(map[int]map[int][]int32) // src -> fault -> dists (fault -1 = none)
	for _, s := range srcs {
		truth[s] = map[int][]int32{-1: bfs.Distances(g, s, nil)}
		for a := 0; a < g.M(); a++ {
			truth[s][a] = bfs.Distances(g, s, []int{a})
		}
	}
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := set.Acquire()
			defer set.Release(o)
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 400; i++ {
				s := srcs[rng.Intn(len(srcs))]
				fault := -1
				var faults []int
				if rng.Intn(4) != 0 { // 1 in 4 queries is fault-free (tier 0)
					fault = rng.Intn(g.M())
					faults = []int{fault}
				}
				v := rng.Intn(g.N())
				d, err := o.Dist(s, v, faults)
				if err != nil {
					t.Error(err)
					return
				}
				if want := truth[s][fault][v]; d != want {
					t.Errorf("src %d fault %d target %d: got %d want %d", s, fault, v, d, want)
					return
				}
			}
		}(c)
	}
	// Concurrent stats readers cross the memo's lock and atomics while the
	// clients churn.
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		for i := 0; i < 200; i++ {
			cs := set.CacheStats()
			if cs.BytesUsed > cs.BytesCapacity {
				t.Errorf("budget overrun under concurrency: %+v", cs)
				return
			}
		}
	}()
	wg.Wait()
	<-statsDone
	if cs := set.CacheStats(); cs.Hits == 0 || cs.Misses == 0 {
		t.Fatalf("tier mix degenerated: %+v", cs)
	}
}

// FuzzDeltaThreshold fuzzes fault selection so events land on both sides
// of the delta/full threshold (faults near the BFS root detach huge
// subtrees; leaf faults detach nothing) and demands the memoized answers
// — first computation AND cached re-read — match from-scratch BFS.
func FuzzDeltaThreshold(f *testing.F) {
	f.Add(int64(1), uint64(0x1234), uint8(2))
	f.Add(int64(2), uint64(0xffff_ffff), uint8(1))
	f.Add(int64(3), uint64(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, faultBits uint64, nFaults uint8) {
		g := gen.SparseGNP(64, 3, 1+(seed&7))
		st, err := core.BuildDual(g, 0, nil)
		if err != nil {
			t.Skip() // disconnected seeds are the builder's business
		}
		set, err := NewSet(tableless(st), 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		o := set.Handle()
		k := int(nFaults) % 3
		var faults []int
		for i := 0; i < k; i++ {
			faults = append(faults, int((faultBits>>(i*17))&0xffff)%g.M())
		}
		want := bfs.Distances(g, 0, faults)
		for pass := 0; pass < 2; pass++ { // miss, then hit
			d, err := o.Dists(0, faults)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if d[v] != want[v] {
					t.Fatalf("pass %d faults %v target %d: oracle %d, truth %d",
						pass, faults, v, d[v], want[v])
				}
			}
			for _, v := range []int{0, g.N() / 3, g.N() - 1} {
				pt, err := o.Dist(0, v, faults)
				if err != nil {
					t.Fatal(err)
				}
				if pt != want[v] {
					t.Fatalf("pass %d faults %v At(%d): %d, truth %d", pass, faults, v, pt, want[v])
				}
			}
		}
	})
}
