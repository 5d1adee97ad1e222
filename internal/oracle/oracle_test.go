package oracle

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gen"
)

func TestNewRequiresSources(t *testing.T) {
	g := gen.PathGraph(3)
	st := &core.Structure{G: g}
	if _, err := NewSet(st, 0); err == nil {
		t.Fatal("sourceless structure accepted")
	}
}

// TestOracleMatchesGroundTruth compares every oracle answer — tables and
// point lookups — against BFS on G \ F for all |F| ≤ 2, with the build's
// replacement-distance table and on a table-less copy.
func TestOracleMatchesGroundTruth(t *testing.T) {
	g := gen.GNP(16, 0.25, 8)
	dual, err := core.BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*core.Structure{dual, tableless(dual)} {
		set, err := NewSet(st, 0)
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
			for v := 0; v < g.N(); v++ {
				pt, err := o.Dist(0, v, faults)
				if err != nil {
					t.Fatal(err)
				}
				if d[v] != truth.Dist(v) || pt != truth.Dist(v) {
					t.Fatalf("table %t faults %v target %d: oracle %d (point %d), truth %d",
						st.Tables != nil, faults, v, d[v], pt, truth.Dist(v))
				}
			}
		}
		check(nil)
		for a := 0; a < g.M(); a++ {
			check([]int{a})
			for b := a + 1; b < g.M(); b += 7 { // stride keeps the test fast
				check([]int{a, b})
			}
		}
	}
}

// TestOracleRouteValid checks routes read from the build's tables and,
// on a copy without tables, under each memo setup — the default budget, a
// small budget that evicts, memo off — on the fault-free, one-fault and
// two-fault events: every route is a shortest path of G \ F whose every
// hop, walking back from the target, takes the lowest-ID edge of H \ F to
// a vertex one step closer (which also keeps it inside H and off F). A
// route on an event the memo already holds is a hit, and a route read
// from the tables makes no memo lookup.
func TestOracleRouteValid(t *testing.T) {
	g := gen.Grid(4, 4)
	st, err := core.BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	events := [][]int{nil}
	for a := 0; a < g.M(); a++ {
		events = append(events, []int{a})
		for b := a + 1; b < g.M(); b += 5 {
			events = append(events, []int{a, b})
		}
	}
	memoOnly := tableless(st)
	setups := []struct {
		name string
		new  func() (*OracleSet, error)
	}{
		{"tables", func() (*OracleSet, error) { return NewSet(st, 0) }},
		{"default", func() (*OracleSet, error) { return NewSet(memoOnly, 0) }},
		{"small", func() (*OracleSet, error) { return NewSet(memoOnly, 1<<10) }},
		{"off", func() (*OracleSet, error) { return NewSet(memoOnly, -1) }},
	}
	truth := bfs.NewRunner(g)
	for _, su := range setups {
		set, err := su.new()
		if err != nil {
			t.Fatal(err)
		}
		o := set.Handle()
		memo := su.name != "off" && su.name != "tables"
		for _, faults := range events {
			truth.Run(0, faults, nil)
			for v := 0; v < g.N(); v++ {
				before := set.CacheStats()
				p, err := o.Route(0, v, faults)
				if err != nil {
					t.Fatal(err)
				}
				after := set.CacheStats()
				if memo && v > 0 && (after.Hits != before.Hits+1 || after.Misses != before.Misses) {
					t.Fatalf("%s: route on cached event %v: %+v -> %+v, want one hit, no miss", su.name, faults, before, after)
				}
				if su.name == "tables" && st.Stats.TieWarnings == 0 && after.Hits+after.Misses != 0 {
					t.Fatalf("tables: route on event %v reached the memo: %+v", faults, after)
				}
				want := truth.Dist(v)
				if want == bfs.Unreachable {
					if p != nil {
						t.Fatalf("%s: route to unreachable %d", su.name, v)
					}
					continue
				}
				if p == nil || int32(p.Len()) != want || p[0] != 0 || p[len(p)-1] != v {
					t.Fatalf("%s: route faults %v → %d wrong: %v (want len %d)", su.name, faults, v, p, want)
				}
				for i := len(p) - 1; i > 0; i-- {
					lowest := -1 // G's arcs come in edge-ID order
					for _, a := range g.Arcs(p[i]) {
						if st.Edges.Has(int(a.ID)) && !slices.Contains(faults, int(a.ID)) && truth.Dist(int(a.To)) == int32(i-1) {
							lowest = int(a.ID)
							break
						}
					}
					if id, _ := g.EdgeID(p[i-1], p[i]); id != lowest || lowest < 0 {
						t.Fatalf("%s: route faults %v → %d: hop %d-%d is edge %d, want lowest surviving edge %d",
							su.name, faults, v, p[i], p[i-1], id, lowest)
					}
				}
			}
		}
		if cs := set.CacheStats(); memo && cs.DeltaEntries == 0 {
			t.Fatalf("%s: no delta entries, the delta walk went untested: %+v", su.name, cs)
		}
	}
}

// TestOracleValidation pins every rejection's typed code and message, and
// the check order: source, then faults, then budget, then target.
func TestOracleValidation(t *testing.T) {
	g := gen.PathGraph(5)
	st, err := core.BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := set.Handle()
	errOf := func(_ any, err error) error { return err }
	cases := []struct {
		err  error
		code ErrCode
		msg  string
	}{
		{errOf(o.Dist(3, 1, nil)), ErrBadSource, "oracle: 3 is not a structure source [0]"},
		{errOf(o.Dist(0, 1, []int{0, 1, 2})), ErrFaultBudget, "oracle: 3 distinct faults exceed budget 2"},
		{errOf(o.Dist(0, 99, nil)), ErrBadTarget, "oracle: target 99 out of range"},
		{errOf(o.Dist(0, 1, []int{99})), ErrBadFault, "oracle: fault edge 99 out of range [0,4)"},
		{errOf(o.Dists(0, []int{-1})), ErrBadFault, "oracle: fault edge -1 out of range [0,4)"},
		{errOf(o.DistsView(2, nil)), ErrBadSource, "oracle: 2 is not a structure source [0]"},
		{errOf(o.Route(0, 99, nil)), ErrBadTarget, "oracle: target 99 out of range"},
		{errOf(o.Route(7, 99, []int{99})), ErrBadSource, "oracle: 7 is not a structure source [0]"},
		{errOf(o.Route(0, 99, []int{99, 0, 1})), ErrBadFault, "oracle: fault edge 99 out of range [0,4)"},
	}
	for i, tc := range cases {
		var qe *QueryError
		if !errors.As(tc.err, &qe) || qe.Code != tc.code || qe.Error() != tc.msg {
			t.Errorf("case %d: error %v, want code %d %q", i, tc.err, tc.code, tc.msg)
		}
	}
	if st := set.Structure(); st.Faults != 2 || len(st.Sources) != 1 {
		t.Fatal("Structure accessor wrong")
	}
}

func TestOracleCacheReuse(t *testing.T) {
	g := gen.Cycle(8)
	st, err := core.BuildDual(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	st = tableless(st)
	set, err := NewSet(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := set.Handle()
	d1, err := o.Dists(0, []int{1, 0}) // unsorted on purpose
	if err != nil {
		t.Fatal(err)
	}
	d2, err := o.Dists(0, []int{0, 1}) // same set, canonical order
	if err != nil {
		t.Fatal(err)
	}
	if &d1[0] != &d2[0] {
		t.Fatal("cache missed an order-insensitive hit")
	}
}

// TestCanonicalize pins the cache key: fault IDs sorted and deduplicated,
// on the one- and two-ID fast paths and on the sorted path alike.
func TestCanonicalize(t *testing.T) {
	st, err := core.BuildDual(gen.PathGraph(5), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := set.Handle()
	cases := []struct{ in, want []int }{
		{nil, nil},
		{[]int{7}, []int{7}},
		{[]int{3, 5}, []int{3, 5}},
		{[]int{5, 3}, []int{3, 5}},
		{[]int{4, 4}, []int{4}},
		{[]int{9, 2, 9}, []int{2, 9}},
		{[]int{8, 1, 6, 1}, []int{1, 6, 8}},
	}
	for _, tc := range cases {
		got := o.canonicalize(tc.in)
		if len(got) != len(tc.want) {
			t.Fatalf("canonicalize(%v) = %v, want %v", tc.in, got, tc.want)
		}
		for i, id := range tc.want {
			if got[i] != int32(id) {
				t.Fatalf("canonicalize(%v) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}

// TestDuplicateFaultsDeduped checks that repeated fault IDs describe one
// failure event: they must not consume extra budget slots and must share
// one cache entry with the deduplicated set.
func TestDuplicateFaultsDeduped(t *testing.T) {
	g := gen.GNP(16, 0.3, 3)
	st, err := core.BuildSingle(g, 0, nil) // f = 1: duplicates must still fit
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := set.Handle()
	d1, err := o.Dists(0, []int{3, 3})
	if err != nil {
		t.Fatalf("duplicate single fault rejected against f=1 budget: %v", err)
	}
	d2, err := o.Dists(0, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if &d1[0] != &d2[0] {
		t.Fatal("faults {3,3} and {3} did not share one cache entry")
	}
	cs := set.CacheStats()
	if cs.Len != 1 || cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("want one entry, one miss, one hit; got %+v", cs)
	}
	truth := bfs.NewRunner(g)
	truth.Run(0, []int{3}, nil)
	for v := 0; v < g.N(); v++ {
		if d1[v] != truth.Dist(v) {
			t.Fatalf("target %d: oracle %d, truth %d", v, d1[v], truth.Dist(v))
		}
	}
	// Distinct duplicated pairs on an f=1 structure still exceed the budget.
	if _, err := o.Dists(0, []int{3, 3, 5}); err == nil {
		t.Fatal("two distinct faults accepted against f=1 budget")
	}
}

// TestShardedCacheCorrectness drives two rounds of every failure event
// through a memo whose budget holds only some of them, and checks answers,
// counters and the byte budget.
func TestShardedCacheCorrectness(t *testing.T) {
	g := gen.GNP(20, 0.25, 9)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 4 * 512 // about nine full tables of n = 20
	set, err := NewSet(st, budget)
	if err != nil {
		t.Fatal(err)
	}
	if cs := set.CacheStats(); cs.BytesCapacity != budget {
		t.Fatalf("want budget %d, got %+v", budget, cs)
	}
	o := set.Handle()
	truth := bfs.NewRunner(g)
	for round := 0; round < 2; round++ {
		for a := 0; a < g.M(); a++ {
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
	}
	cs := set.CacheStats()
	if cs.BytesUsed > cs.BytesCapacity {
		t.Fatalf("memo holds %d bytes over its budget %d", cs.BytesUsed, cs.BytesCapacity)
	}
	if cs.Misses == 0 || cs.Evictions == 0 {
		t.Fatalf("expected misses and evictions from scanning over the budget: %+v", cs)
	}
	if cs.Hits+cs.Misses != int64(2*g.M()) {
		t.Fatalf("lookup accounting off: %+v for %d lookups", cs, 2*g.M())
	}
	// A back-to-back repeat is a guaranteed hit.
	if _, err := o.Dists(0, []int{0}); err != nil {
		t.Fatal(err)
	}
	before := set.CacheStats().Hits
	if _, err := o.Dists(0, []int{0}); err != nil {
		t.Fatal(err)
	}
	if got := set.CacheStats().Hits; got != before+1 {
		t.Fatalf("repeat lookup did not hit: %d -> %d", before, got)
	}
}

// TestOracleMultiSource checks one query per source of a two-source dual
// structure, with its per-source tables and on a table-less copy.
func TestOracleMultiSource(t *testing.T) {
	g := gen.GNP(14, 0.3, 5)
	multi, err := core.BuildMultiSource(g, []int{0, 7}, nil, core.BuildDual)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Tables) != 2 {
		t.Fatalf("multi-source dual build has %d tables, want one per source", len(multi.Tables))
	}
	for _, st := range []*core.Structure{multi, tableless(multi)} {
		set, err := NewSet(st, 0)
		if err != nil {
			t.Fatal(err)
		}
		o := set.Handle()
		truth := bfs.NewRunner(g)
		for _, s := range []int{0, 7} {
			truth.Run(s, []int{2}, nil)
			d, err := o.Dist(s, 5, []int{2})
			if err != nil {
				t.Fatal(err)
			}
			if d != truth.Dist(5) {
				t.Fatalf("table %t source %d: oracle %d, truth %d", st.Tables != nil, s, d, truth.Dist(5))
			}
		}
	}
}
