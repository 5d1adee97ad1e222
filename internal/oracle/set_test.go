package oracle

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gen"
)

// TestCacheEviction drives more distinct failure events than the cache
// holds and checks LRU bookkeeping plus answer correctness throughout.
func TestCacheEviction(t *testing.T) {
	g := gen.GNP(16, 0.3, 3)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 8
	set, err := NewSetCapacity(st, capacity)
	if err != nil {
		t.Fatal(err)
	}
	o := set.Handle()
	truth := bfs.NewRunner(g)
	events := g.M()
	if events <= capacity {
		t.Fatalf("test graph too small: %d events, capacity %d", events, capacity)
	}
	for a := 0; a < events; a++ {
		d, err := o.Dists(0, []int{a})
		if err != nil {
			t.Fatal(err)
		}
		truth.Run(0, []int{a}, nil)
		for v := 0; v < g.N(); v++ {
			if d[v] != truth.Dist(v) {
				t.Fatalf("fault %d target %d: oracle %d, truth %d", a, v, d[v], truth.Dist(v))
			}
		}
	}
	cs := set.CacheStats()
	if cs.Len > capacity {
		t.Fatalf("cache holds %d entries, capacity %d", cs.Len, capacity)
	}
	if cs.Evictions != int64(events-capacity) {
		t.Fatalf("evictions = %d, want %d", cs.Evictions, events-capacity)
	}
	if cs.Misses != int64(events) {
		t.Fatalf("misses = %d, want %d", cs.Misses, events)
	}

	// The most recent event must still be cached (a hit); the oldest must
	// have been evicted (a miss that recomputes correctly).
	before := set.CacheStats()
	if _, err := o.Dists(0, []int{events - 1}); err != nil {
		t.Fatal(err)
	}
	if got := set.CacheStats(); got.Hits != before.Hits+1 {
		t.Fatalf("recent event was not a cache hit: %+v -> %+v", before, got)
	}
	d, err := o.Dists(0, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := set.CacheStats(); got.Misses != before.Misses+1 {
		t.Fatalf("oldest event was not evicted: %+v -> %+v", before, got)
	}
	truth.Run(0, []int{0}, nil)
	for v := 0; v < g.N(); v++ {
		if d[v] != truth.Dist(v) {
			t.Fatalf("recomputed event wrong at %d: %d vs %d", v, d[v], truth.Dist(v))
		}
	}
}

// TestCacheHashCollision pins the LRU's accounting of a true 64-bit hash
// collision: a colliding insert replaces the incumbent and counts it as an
// eviction, and a colliding insert too large for the whole budget is
// served uncached without dropping the incumbent.
func TestCacheHashCollision(t *testing.T) {
	c := newLRUCache(0, 1<<20)
	e1, _ := newEntry(7, 0, []int32{1}, nil, 4)
	e2, _ := newEntry(7, 0, []int32{2}, nil, 4)
	c.add(e1)
	c.add(e2)
	if cs := c.stats(); cs.Len != 1 || cs.Evictions != 1 || cs.BytesUsed != e2.cost() {
		t.Fatalf("colliding insert: Len %d Evictions %d BytesUsed %d, want 1, 1, %d",
			cs.Len, cs.Evictions, cs.BytesUsed, e2.cost())
	}
	if _, ok := c.get(7, 0, []int32{2}); !ok {
		t.Fatal("the newer colliding event is not cached")
	}

	small := newLRUCache(0, 200)
	in, _ := newEntry(7, 0, []int32{1}, nil, 4)   // 128 + 4·5 = 148 bytes
	big, _ := newEntry(7, 0, []int32{2}, nil, 40) // 128 + 4·41 = 292 bytes > 200
	small.add(in)
	if v := small.add(big); len(v.Full) != 40 {
		t.Fatalf("oversized insert served a %d-entry table, want its own 40", len(v.Full))
	}
	if cs := small.stats(); cs.Len != 1 || cs.Evictions != 0 || cs.BytesUsed != in.cost() {
		t.Fatalf("oversized colliding insert: Len %d Evictions %d BytesUsed %d, want 1, 0, %d",
			cs.Len, cs.Evictions, cs.BytesUsed, in.cost())
	}
	if _, ok := small.get(7, 0, []int32{1}); !ok {
		t.Fatal("an oversized colliding insert dropped the incumbent")
	}
}

// TestCacheDisabled checks that a zero-capacity set stays correct with the
// memo off.
func TestCacheDisabled(t *testing.T) {
	g := gen.Grid(3, 3)
	st, err := core.BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSetCapacity(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := set.Handle()
	truth := bfs.NewRunner(g)
	for a := 0; a < g.M(); a++ {
		truth.Run(0, []int{a}, nil)
		d, err := o.Dist(0, g.N()-1, []int{a})
		if err != nil {
			t.Fatal(err)
		}
		if d != truth.Dist(g.N()-1) {
			t.Fatalf("fault %d: oracle %d, truth %d", a, d, truth.Dist(g.N()-1))
		}
	}
	if cs := set.CacheStats(); cs.Len != 0 || cs.Hits != 0 {
		t.Fatalf("disabled cache recorded state: %+v", cs)
	}
}

// TestSharedCacheAcrossHandles checks that a table computed through one
// handle is served to another by pointer identity.
func TestSharedCacheAcrossHandles(t *testing.T) {
	g := gen.Cycle(10)
	st, err := core.BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet(st)
	if err != nil {
		t.Fatal(err)
	}
	a, b := set.Handle(), set.Handle()
	d1, err := a.Dists(0, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := b.Dists(0, []int{5, 2}) // same event, different order
	if err != nil {
		t.Fatal(err)
	}
	if &d1[0] != &d2[0] {
		t.Fatal("handles did not share one cached table")
	}
}

// TestConcurrentPool exercises ≥ 8 concurrent clients querying one shared
// structure through Acquire/Release; run under -race it checks the shared
// set and LRU for data races, and every answer against ground truth.
func TestConcurrentPool(t *testing.T) {
	g := gen.GNP(24, 0.2, 11)
	st, err := core.BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSetCapacity(st, 32) // small: force concurrent evictions
	if err != nil {
		t.Fatal(err)
	}
	// Precompute ground truth for every single- and a spread of dual-fault
	// events.
	type event struct{ faults []int }
	var events []event
	for a := 0; a < g.M(); a++ {
		events = append(events, event{[]int{a}})
		if b := (a * 7) % g.M(); b != a {
			events = append(events, event{[]int{a, b}})
		}
	}
	truth := make([][]int32, len(events))
	for i, ev := range events {
		truth[i] = bfs.Distances(g, 0, ev.faults)
	}

	const clients = 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := set.Acquire()
			defer set.Release(o)
			for round := 0; round < 3; round++ {
				for i := range events {
					idx := (i + c*13) % len(events)
					d, err := o.Dists(0, events[idx].faults)
					if err != nil {
						errs <- err
						return
					}
					for v := 0; v < g.N(); v++ {
						if d[v] != truth[idx][v] {
							t.Errorf("client %d event %v target %d: got %d want %d",
								c, events[idx].faults, v, d[v], truth[idx][v])
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cs := set.CacheStats()
	if cs.Evictions == 0 {
		t.Fatalf("expected concurrent evictions with %d events over capacity 32, got %+v", len(events), cs)
	}
	// Hits under churn are scheduling-dependent; check the hit path
	// deterministically now that the clients are done.
	o := set.Acquire()
	defer set.Release(o)
	if _, err := o.Dists(0, events[0].faults); err != nil {
		t.Fatal(err)
	}
	before := set.CacheStats().Hits
	if _, err := o.Dists(0, events[0].faults); err != nil {
		t.Fatal(err)
	}
	if got := set.CacheStats().Hits; got != before+1 {
		t.Fatalf("repeat query did not hit: %d -> %d", before, got)
	}
}

// TestReleaseForeignHandle checks the Release guard.
func TestReleaseForeignHandle(t *testing.T) {
	g := gen.PathGraph(4)
	st, err := core.BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewSet(st)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSet(st)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Release of a foreign handle did not panic")
		}
	}()
	s2.Release(s1.Handle())
}

// TestQueryPathAllocationFree proves the hot query path allocates nothing
// once the failure event is cached.
func TestQueryPathAllocationFree(t *testing.T) {
	g := gen.SparseGNP(200, 6, 2)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet(st)
	if err != nil {
		t.Fatal(err)
	}
	o := set.Handle()
	faults := []int{9}
	if _, err := o.Dist(0, 1, faults); err != nil { // warm the cache + scratch
		t.Fatal(err)
	}
	v := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := o.Dist(0, v%g.N(), faults); err != nil {
			t.Fatal(err)
		}
		v++
	})
	if allocs != 0 {
		t.Fatalf("cached Dist allocates %.1f objects per query, want 0", allocs)
	}
}

// TestMissAllocations pins the allocations of a memo miss: distinct one-
// and two-fault events alternating between two sources, stored both as
// deltas and as full tables, each cost at most the entry and its one
// backing array. Events are kept only if a probe set shows they change
// something — a no-op delta has no payload to allocate, so it would make
// the average look better than a miss is. The trees are pinned and the
// handle's scratch grown by a warm-up first; the repair itself allocates
// nothing.
func TestMissAllocations(t *testing.T) {
	g := gen.SparseGNP(200, 4, 2)
	srcs := []int{0, 100}
	st, err := core.BuildMultiSource(g, srcs, nil, core.BuildDual)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewSetBytes(st, 8<<20) // ample: no evictions
	if err != nil {
		t.Fatal(err)
	}
	po := probe.Handle()
	const warm, runs = 300, 300
	type event struct {
		src    int
		faults []int
	}
	rng := rand.New(rand.NewSource(5))
	seen := map[[3]int]bool{}
	var events []event
	for len(events) < warm+runs+1 {
		src := srcs[len(events)%2]
		a, b := rng.Intn(g.M()), rng.Intn(g.M())
		if len(events)%3 == 0 {
			b = a // one fault
		}
		a, b = min(a, b), max(a, b)
		if seen[[3]int{src, a, b}] {
			continue
		}
		seen[[3]int{src, a, b}] = true
		faults := []int{a}
		if b != a {
			faults = append(faults, b)
		}
		used := probe.CacheStats().BytesUsed
		if _, err := po.Dist(src, 0, faults); err != nil {
			t.Fatal(err)
		}
		if probe.CacheStats().BytesUsed-used > int64(entryOverheadBytes+4*len(faults)) {
			events = append(events, event{src, faults})
		}
	}

	set, err := NewSetBytes(st, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	o := set.Handle()
	next := 0
	miss := func() {
		ev := events[next]
		next++
		if _, err := o.Dist(ev.src, next%g.N(), ev.faults); err != nil {
			t.Fatal(err)
		}
	}
	for next < warm {
		miss()
	}
	before := set.CacheStats()
	allocs := testing.AllocsPerRun(runs, miss)
	after := set.CacheStats()
	if got := after.Misses - before.Misses; got != runs+1 {
		t.Fatalf("%d misses in the measured window, want %d", got, runs+1)
	}
	if after.DeltaEntries == before.DeltaEntries || after.FullEntries == before.FullEntries {
		t.Fatalf("measured misses did not store both encodings: %+v -> %+v", before, after)
	}
	t.Logf("%.2f allocations per miss", allocs)
	if allocs > 2 {
		t.Fatalf("a memo miss allocates %.1f objects, want at most 2 (entry + backing array)", allocs)
	}
}
