package wsp

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
)

// TestTreeMatchesSearch checks every Tree accessor against the fault-free
// Search it freezes, and the child lists against the parents.
func TestTreeMatchesSearch(t *testing.T) {
	g := gen.SparseGNP(200, 4, 8)
	w := NewAssignment(g.M(), 3)
	src := 17
	tr := NewTree(g, w, src)
	ref := NewSearch(g, w)
	ref.Run(src, Options{Target: -1})
	if tr.Source() != src || tr.Graph() != g || tr.Ties() != ref.TieWarnings {
		t.Fatalf("tree header: source %d, ties %d (search: %d)", tr.Source(), tr.Ties(), ref.TieWarnings)
	}
	kids := 0
	for v := 0; v < g.N(); v++ {
		if tr.HopDist(v) != ref.HopDist(v) || int(tr.parent[v]) != ref.ParentOf(v) || tr.ParentEdgeOf(v) != ref.ParentEdgeOf(v) {
			t.Fatalf("vertex %d: tree (%d, %d, %d) vs search (%d, %d, %d)", v,
				tr.HopDist(v), tr.parent[v], tr.ParentEdgeOf(v), ref.HopDist(v), ref.ParentOf(v), ref.ParentEdgeOf(v))
		}
		if fmt.Sprint(tr.PathTo(v)) != fmt.Sprint(ref.PathTo(v)) {
			t.Fatalf("PathTo(%d) = %v, want %v", v, tr.PathTo(v), ref.PathTo(v))
		}
		prev := int32(-1)
		for _, c := range tr.Children(v) {
			if int(tr.parent[c]) != v || c <= prev {
				t.Fatalf("Children(%d) = %v: %d is not a child in vertex order", v, tr.Children(v), c)
			}
			prev = c
			kids++
		}
	}
	if reached := g.N(); kids != reached-1 {
		t.Fatalf("%d child slots, want %d", kids, reached-1)
	}
}

// treeHash digests every table of a frozen tree: weights, parents, parent
// edges and child lists.
func treeHash(t *Tree) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprint(h, t.src, t.depth, t.ties, t.hops, t.tie, t.parent, t.parentE)
	for v := range t.hops {
		fmt.Fprint(h, t.Children(v))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestSharedTreeStaysFrozen has several goroutines repair random fault
// sets — Target and full runs, edge and vertex faults, repairs and volume
// fallbacks — against one shared Tree, and requires every table of the
// tree bit-identical afterwards. Under -race it also shows the repairs
// only read the tree.
func TestSharedTreeStaysFrozen(t *testing.T) {
	g := gen.SparseGNP(300, 5, 17)
	w := NewAssignment(g.M(), 4)
	tr := NewTree(g, w, 0)
	want := treeHash(tr)
	var wg sync.WaitGroup
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rep := NewRepairSearch(tr)
			if seed == 1 {
				rep.volLimit = 40 // mix volume fallbacks into one worker's runs
			}
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 300; trial++ {
				opt := Options{Target: -1}
				if rng.Intn(2) == 0 {
					opt.Target = rng.Intn(g.N())
				}
				for k := 1 + rng.Intn(3); k > 0; k-- {
					opt.DisabledEdges = append(opt.DisabledEdges, rng.Intn(g.M()))
				}
				if rng.Intn(4) == 0 {
					opt.DisabledVertices = []int{1 + rng.Intn(g.N()-1)}
				}
				rep.Run(0, opt)
			}
		}(int64(worker + 1))
	}
	wg.Wait()
	if treeHash(tr) != want {
		t.Fatal("repairs changed the shared tree")
	}
}
