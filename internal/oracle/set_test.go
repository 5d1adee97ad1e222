package oracle

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gen"
)

// TestCacheEviction drives more distinct failure events than the byte
// budget holds and checks LRU bookkeeping plus answer correctness
// throughout; then, white-box on equal-cost entries, the strict LRU order
// and the exact eviction count.
func TestCacheEviction(t *testing.T) {
	g := gen.GNP(16, 0.3, 3)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1 << 10 // about five full tables of n = 16
	set, err := NewSet(st, budget)
	if err != nil {
		t.Fatal(err)
	}
	o := set.Handle()
	truth := bfs.NewRunner(g)
	events := g.M()
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
	if cs.BytesUsed > budget {
		t.Fatalf("cache holds %d bytes, budget %d", cs.BytesUsed, budget)
	}
	// Every miss inserted one entry (none outgrows the budget), so what
	// is no longer held was evicted.
	if cs.Evictions == 0 || cs.Evictions != int64(events-cs.Len) {
		t.Fatalf("evictions = %d, want %d events - %d held", cs.Evictions, events, cs.Len)
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

	// Strict LRU order: a budget of exactly four equal-cost entries, where
	// a hit moves its entry to the front.
	entry := func(h uint64) *cacheEntry {
		e, _ := newEntry(h, 0, []int32{int32(h)}, nil, 4)
		return e
	}
	cost := entry(0).cost()
	c := newLRUCache(4 * cost)
	for h := uint64(0); h < 4; h++ {
		c.add(entry(h))
	}
	if _, ok := c.get(0, 0, []int32{0}); !ok { // recency now 0, 3, 2, 1
		t.Fatal("entry 0 not cached")
	}
	c.add(entry(4)) // evicts 1
	c.add(entry(5)) // evicts 2
	if cs := c.stats(); cs.Len != 4 || cs.Evictions != 2 || cs.BytesUsed != 4*cost {
		t.Fatalf("LRU after two inserts: Len %d Evictions %d BytesUsed %d, want 4, 2, %d",
			cs.Len, cs.Evictions, cs.BytesUsed, 4*cost)
	}
	for h := uint64(0); h < 6; h++ {
		if _, ok := c.get(h, 0, []int32{int32(h)}); ok != (h != 1 && h != 2) {
			t.Errorf("entry %d cached = %v; want only 1 and 2 evicted", h, ok)
		}
	}
}

// TestCacheHashCollision pins the LRU's accounting of a true 64-bit hash
// collision: a colliding insert replaces the incumbent and counts it as an
// eviction, and a colliding insert too large for the whole budget is
// served uncached without dropping the incumbent.
func TestCacheHashCollision(t *testing.T) {
	c := newLRUCache(1 << 20)
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

	small := newLRUCache(200)
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

// TestCacheIndependentOfHost drives one fixed event stream, whose entries
// overflow a 256 KiB budget, through NewSet at GOMAXPROCS 1 and 4: the
// memo's hits, misses, evictions, entries and bytes must not depend on the
// host's core count.
func TestCacheIndependentOfHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := gen.SparseGNP(1000, 6, 7)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 256 << 10
	run := func(procs int) CacheStats {
		runtime.GOMAXPROCS(procs)
		set, err := NewSet(st, budget)
		if err != nil {
			t.Fatal(err)
		}
		o := set.Handle()
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 4*g.M(); i++ {
			// Every edge once, then a skew toward low edge IDs so some
			// events come back while held and some after eviction.
			a := i
			if i >= g.M() {
				a = rng.Intn(1 + rng.Intn(g.M()))
			}
			if _, err := o.Dists(0, []int{a}); err != nil {
				t.Fatal(err)
			}
		}
		return set.CacheStats()
	}
	one, four := run(1), run(4)
	if one.Evictions == 0 {
		t.Fatalf("the stream fits the %d-byte budget: %+v", budget, one)
	}
	if one.Hits != four.Hits || one.Misses != four.Misses || one.Evictions != four.Evictions ||
		one.Len != four.Len || one.BytesUsed != four.BytesUsed {
		t.Fatalf("memo depends on GOMAXPROCS:\n  1: %+v\n  4: %+v", one, four)
	}
}

// TestCacheDisabled checks that a set with a negative budget stays correct
// with the memo off.
func TestCacheDisabled(t *testing.T) {
	g := gen.Grid(3, 3)
	st, err := core.BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	st = tableless(st)
	set, err := NewSet(st, -1)
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
	st = tableless(st)
	set, err := NewSet(st, 0)
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
	st = tableless(st)
	set, err := NewSet(st, 2<<10) // small: force concurrent evictions
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
		t.Fatalf("expected concurrent evictions with %d events over a 2 KiB budget, got %+v", len(events), cs)
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
	s1, err := NewSet(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSet(st, 0)
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

// TestQueryPathAllocationFree proves the hot query path — Dist, and
// AppendRoute and DistsLent into warm buffers — allocates nothing once the
// failure event is cached, and nothing at all, with no memo lookup, when a
// replacement-distance table answers.
func TestQueryPathAllocationFree(t *testing.T) {
	g := gen.SparseGNP(200, 6, 2)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet(st, 0)
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
	var route []int
	for w := range g.N() { // grow the route buffer to the longest route
		if route, err = o.AppendRoute(route[:0], 0, w, faults); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(200, func() {
		if route, err = o.AppendRoute(route[:0], 0, v%g.N(), faults); err != nil {
			t.Fatal(err)
		}
		if _, err := o.DistsLent(0, faults); err != nil {
			t.Fatal(err)
		}
		v++
	})
	if allocs != 0 {
		t.Fatalf("cached AppendRoute and DistsLent allocate %.1f objects per query, want 0", allocs)
	}

	dual, err := core.BuildDual(g, 0, &core.Options{CollectPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	tset, err := NewSet(dual, 0)
	if err != nil {
		t.Fatal(err)
	}
	to := tset.Handle()
	// Every table case: no fault on π(0,v), then its first edge alone and
	// with a second fault elsewhere, on π, and on that edge's detour.
	type query struct {
		v      int
		faults []int
	}
	var qs []query
	for _, r := range dual.Targets {
		if r == nil {
			continue
		}
		e0, last := r.PiEdgeIDs[0], r.PiEdgeIDs[len(r.PiEdgeIDs)-1]
		qs = append(qs, query{r.V, nil}, query{r.V, []int{e0}},
			query{r.V, []int{e0, (e0 + 1) % g.M()}}, query{r.V, []int{e0, last}})
		if d := r.Detours[0]; d.Valid {
			qs = append(qs, query{r.V, []int{e0, d.EdgeIDs[0]}})
		}
	}
	if _, err := to.Dist(0, 1, []int{0, 1}); err != nil { // grow the canonicalization scratch
		t.Fatal(err)
	}
	i := 0
	allocs = testing.AllocsPerRun(len(qs), func() {
		q := qs[i%len(qs)]
		if _, err := to.Dist(0, q.v, q.faults); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("table-served Dist allocates %.1f objects per query, want 0", allocs)
	}

	// Routes into a caller's buffer and lent whole tables, over the same
	// queries, once to grow the buffers and then counted.
	var path []int
	lent := func(q query) {
		if path, err = to.AppendRoute(path[:0], 0, q.v, q.faults); err != nil {
			t.Fatal(err)
		}
		if _, err := to.DistsLent(0, q.faults); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range qs {
		lent(q)
	}
	i = 0
	allocs = testing.AllocsPerRun(len(qs), func() {
		lent(qs[i%len(qs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("table-served AppendRoute and DistsLent allocate %.1f objects per query, want 0", allocs)
	}
	if cs := tset.CacheStats(); cs.Misses != 0 || cs.Hits != 0 {
		t.Fatalf("table-served queries reached the memo: %+v", cs)
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
	st = tableless(st)
	probe, err := NewSet(st, 8<<20) // ample: no evictions
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

	set, err := NewSet(st, 8<<20)
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
