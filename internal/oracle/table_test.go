package oracle

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/replace"
	"repro/internal/wsp"
)

// This file covers Dist on the build's replacement-distance tables.

// tableless returns a copy of st without replacement-distance tables, as
// a snapshot-restored build is, so that Dist goes through the memo. Tests
// that count memo traffic through Dist run on it.
func tableless(st *core.Structure) *core.Structure {
	c := *st
	c.Tables = nil
	return &c
}

// TestDistTableMatchesBFS compares Dist and Dists on the table with BFS on
// G∖F for every |F| ≤ 2, every source and every target, and checks that
// the memo saw none of it: without residual ties no slot is marked.
func TestDistTableMatchesBFS(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		srcs []int
	}{
		{"SparseGNP(40,5)", gen.SparseGNP(40, 5, 1), []int{0}},
		{"SparseGNP(60,6)", gen.SparseGNP(60, 6, 1), []int{0}},
		{"Grid(6,7)", gen.Grid(6, 7), []int{0}},
		{"Cycle(15)", gen.Cycle(15), []int{0}},
		{"Hypercube(4)", gen.Hypercube(4), []int{0}},
		{"SparseGNP(30,12)", gen.SparseGNP(30, 12, 1), []int{0}},
		{"multi SparseGNP(40,5)", gen.SparseGNP(40, 5, 2), []int{0, 21}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			st, err := core.BuildMultiSource(g, tc.srcs, nil, core.BuildDual)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Tables) != len(tc.srcs) {
				t.Fatalf("%d tables for %d sources", len(st.Tables), len(tc.srcs))
			}
			set, err := NewSet(st, 0)
			if err != nil {
				t.Fatal(err)
			}
			o := set.Handle()
			truth := bfs.NewRunner(g)
			answers := 0
			for _, s := range tc.srcs {
				check := func(faults []int) {
					truth.Run(s, faults, nil)
					table, err := o.Dists(s, faults)
					if err != nil {
						t.Fatal(err)
					}
					for v := 0; v < g.N(); v++ {
						if table[v] != truth.Dist(v) {
							t.Fatalf("source %d faults %v target %d: whole table %d, BFS on G∖F %d", s, faults, v, table[v], truth.Dist(v))
						}
						d, err := o.Dist(s, v, faults)
						if err != nil {
							t.Fatal(err)
						}
						if d != truth.Dist(v) {
							t.Fatalf("source %d faults %v target %d: table %d, BFS on G∖F %d", s, faults, v, d, truth.Dist(v))
						}
					}
					answers += g.N()
				}
				check(nil)
				for a := 0; a < g.M(); a++ {
					check([]int{a})
					for b := a + 1; b < g.M(); b++ {
						check([]int{a, b})
					}
				}
			}
			cs := set.CacheStats()
			if st.Stats.TieWarnings == 0 && (cs.Hits != 0 || cs.Misses != 0) {
				t.Fatalf("the table left queries to the memo: %+v", cs)
			}
			if cs.TableBytes == 0 {
				t.Fatalf("TableBytes not reported: %+v", cs)
			}
			t.Logf("%d answers, %d table bytes", answers, cs.TableBytes)
		})
	}
}

// markAll rebuilds the table of st, a dual build of g from s with the
// default seed, with every detour slot marked, as the engine marks a slot
// whose Step-1 path leaves π more than once. It first checks that the
// unmarked rebuild equals the build's own table. The slot offsets follow
// replace.DistTable's layout.
func markAll(t *testing.T, st *core.Structure, s int) *replace.DistTable {
	t.Helper()
	g := st.G
	tree := wsp.NewTree(g, wsp.NewAssignment(g.M(), 1), s)
	e := replace.NewEngine(tree)
	plain, marked := make([][]int32, g.N()), make([][]int32, g.N())
	for v := range g.N() {
		tr := e.BuildTarget(v, false)
		if tr == nil {
			continue
		}
		plain[v] = e.AppendDists(nil, tr)
		marked[v] = slices.Clone(plain[v])
		l := len(tr.PiEdgeIDs)
		for i := range l {
			marked[v][l+l*(l-1)/2+i] = -1
		}
	}
	if !reflect.DeepEqual(replace.NewDistTable(tree, plain), st.Tables[0]) {
		t.Fatal("the rebuilt table differs from the build's")
	}
	return replace.NewDistTable(tree, marked)
}

// TestDistTableMarkedSlotUsesMemo marks every (v, e_i) slot and checks,
// for every |F| ≤ 2 and target, that exactly the queries {e_i, f} with f
// off π(s,v) and v still reachable without e_i go to the memo, and that
// every answer still equals BFS on G∖F. A whole table goes to the memo
// whole exactly when one of its vertices is such a query.
func TestDistTableMarkedSlotUsesMemo(t *testing.T) {
	g := gen.SparseGNP(40, 5, 1)
	st, err := core.BuildDual(g, 0, &core.Options{CollectPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	marked := *st
	marked.Tables = []*replace.DistTable{markAll(t, st, 0)}
	set, err := NewSet(&marked, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := set.Handle()
	single := make([][]int32, g.M()) // dist(0, ·, G∖{e})
	for a := range single {
		single[a] = bfs.Distances(g, 0, []int{a})
	}
	fellBack := 0
	check := func(faults []int) {
		want := bfs.Distances(g, 0, faults)
		anySlot := false
		for v := 0; v < g.N(); v++ {
			var onPi []int
			if tr := st.Targets[v]; tr != nil {
				for _, f := range faults {
					if slices.Contains(tr.PiEdgeIDs, f) {
						onPi = append(onPi, f)
					}
				}
			}
			slot := len(faults) == 2 && len(onPi) == 1 && single[onPi[0]][v] >= 0
			before := set.CacheStats()
			d, err := o.Dist(0, v, faults)
			if err != nil {
				t.Fatal(err)
			}
			after := set.CacheStats()
			if d != want[v] {
				t.Fatalf("faults %v target %d: %d, BFS on G∖F %d", faults, v, d, want[v])
			}
			memo := after.Hits+after.Misses != before.Hits+before.Misses
			if memo != slot {
				t.Fatalf("faults %v target %d (on π: %v): memo consulted %t, want %t", faults, v, onPi, memo, slot)
			}
			if slot {
				fellBack++
				anySlot = true
			}
		}
		before := set.CacheStats()
		table, err := o.Dists(0, faults)
		if err != nil {
			t.Fatal(err)
		}
		after := set.CacheStats()
		if !slices.Equal(table, want) {
			t.Fatalf("faults %v: Dists %v, BFS on G∖F %v", faults, table, want)
		}
		if memo := after.Hits+after.Misses != before.Hits+before.Misses; memo != anySlot {
			t.Fatalf("faults %v: whole table: memo consulted %t, want %t", faults, memo, anySlot)
		}
	}
	check(nil)
	for a := 0; a < g.M(); a++ {
		check([]int{a})
		for b := a + 1; b < g.M(); b++ {
			check([]int{a, b})
		}
	}
	if fellBack == 0 {
		t.Fatal("no query reached a marked slot")
	}
}

// FuzzDistTable builds a dual structure from its header — graph family,
// size, seed, source and target — and picks up to two faults, each by a
// selector byte: an edge of π(s,v), an edge of the detour of a π edge
// already picked (or of the first π edge), or any edge. Dist and every
// entry of Dists must equal BFS on G∖F; Route must be a path of H∖F of
// that length, avoiding F, and equal the route of a copy without tables,
// which walks the memo. Without residual ties, all three come from the
// table alone.
func FuzzDistTable(f *testing.F) {
	f.Add([]byte{0, 20, 1, 0, 7, 0, 1, 1, 0})
	f.Add([]byte{1, 3, 0, 5, 40, 0, 2, 2, 9})
	f.Add([]byte{2, 9, 0, 0, 14, 1, 3, 0, 0})
	f.Add([]byte{3, 2, 0, 1, 12, 0, 0, 0, 1})
	f.Add([]byte{4, 30, 7, 3, 29, 2, 17, 1, 4})
	f.Add([]byte{0, 35, 3, 2, 33, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		size, seed := int(data[1]), int64(data[2])
		var g *graph.Graph
		switch data[0] % 5 {
		case 0:
			g = gen.SparseGNP(8+size%40, 3+float64(size%5), seed)
		case 1:
			g = gen.Grid(2+size%6, 2+int(seed)%6)
		case 2:
			g = gen.Cycle(3 + size%20)
		case 3:
			g = gen.Hypercube(1 + size%4)
		default:
			g = gen.GNP(6+size%20, 0.2+float64(seed%5)/10, seed)
		}
		s, v := int(data[3])%g.N(), int(data[4])%g.N()
		st, err := core.BuildDual(g, s, &core.Options{Seed: seed, CollectPaths: true})
		if err != nil {
			t.Fatal(err)
		}
		set, err := NewSet(st, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr := st.Targets[v]
		var faults []int
		pi := -1 // π index of a picked π edge
		for sel := data[5:]; len(sel) >= 2 && len(faults) < 2; sel = sel[2:] {
			k := int(sel[1])
			switch {
			case sel[0]%3 == 0 && tr != nil:
				pi = k % len(tr.PiEdgeIDs)
				faults = append(faults, tr.PiEdgeIDs[pi])
			case sel[0]%3 == 1 && tr != nil:
				det := tr.Detours[max(pi, 0)]
				if !det.Valid {
					continue
				}
				faults = append(faults, det.EdgeIDs[k%len(det.EdgeIDs)])
			default:
				faults = append(faults, k%g.M())
			}
		}
		o := set.Handle()
		d, err := o.Dist(s, v, faults)
		if err != nil {
			t.Fatal(err)
		}
		truth := bfs.Distances(g, s, faults)
		if want := truth[v]; d != want {
			t.Fatalf("source %d target %d faults %v: %d, BFS on G∖F %d", s, v, faults, d, want)
		}
		table, err := o.Dists(s, faults)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(table, truth) {
			t.Fatalf("source %d faults %v: Dists %v, BFS on G∖F %v", s, faults, table, truth)
		}
		route, err := o.Route(s, v, faults)
		if err != nil {
			t.Fatal(err)
		}
		if truth[v] == bfs.Unreachable {
			if route != nil {
				t.Fatalf("source %d target %d faults %v: route %v to a cut-off target", s, v, faults, route)
			}
		} else if len(route) != int(truth[v])+1 || route[0] != s || route[len(route)-1] != v {
			t.Fatalf("source %d target %d faults %v: route %v, BFS on G∖F %d", s, v, faults, route, truth[v])
		}
		for h := 1; h < len(route); h++ {
			id, ok := g.EdgeID(route[h-1], route[h])
			if !ok || !st.Edges.Has(id) || slices.Contains(faults, id) {
				t.Fatalf("source %d target %d faults %v: hop %d-%d of route %v is not an edge of H∖F", s, v, faults, route[h-1], route[h], route)
			}
		}
		if cs := set.CacheStats(); st.Stats.TieWarnings == 0 && cs.Hits+cs.Misses != 0 {
			t.Fatalf("source %d target %d faults %v: the table left a query to the memo", s, v, faults)
		}
		memo, err := NewSet(tableless(st), 0)
		if err != nil {
			t.Fatal(err)
		}
		memoRoute, err := memo.Handle().Route(s, v, faults)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(route, memoRoute) {
			t.Fatalf("source %d target %d faults %v: route %v from the table, %v through the memo", s, v, faults, route, memoRoute)
		}
	})
}
