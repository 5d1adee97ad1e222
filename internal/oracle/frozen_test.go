package oracle

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// frozenHash digests every array a frozen graph hands out by alias: the
// CSR edges, offsets, arcs and sorted arcs, and the dense arc heads the
// BFS scans read.
func frozenHash(g *graph.Graph) [sha256.Size]byte {
	edges, arcOff, arcs, sorted := g.CSRData()
	headOff, heads := g.ArcHeads()
	h := sha256.New()
	fmt.Fprint(h, edges, arcOff, arcs, sorted, headOff, heads)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestFrozenGraphStaysFrozen builds each serving mode, opens an OracleSet
// over the result and runs random Dists and Route queries under the
// structure's full fault budget. Builders, the memo and the repair kernel
// all read G, H and the kept-edge bitset through aliasing accessors; a
// write through any of them would corrupt every later answer, so all
// three must come out bit-identical.
func TestFrozenGraphStaysFrozen(t *testing.T) {
	g := gen.SparseGNP(80, 6, 2015)
	for _, mode := range []string{"dual", "single", "multi"} {
		t.Run(mode, func(t *testing.T) {
			sources := []int{0}
			if mode == "multi" {
				sources = []int{0, 40}
			}
			build, err := core.BuilderForMode(mode, sources)
			if err != nil {
				t.Fatal(err)
			}
			gHash := frozenHash(g)
			st, err := build(g, &core.Options{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			if frozenHash(g) != gHash {
				t.Fatal("building the structure changed G's CSR arrays")
			}
			words := slices.Clone(st.Edges.Words())
			set, err := NewSet(st)
			if err != nil {
				t.Fatal(err)
			}
			hHash := frozenHash(set.sub)

			rng := rand.New(rand.NewSource(1))
			o := set.Handle()
			faults := make([]int, st.Faults)
			for q := 0; q < 200; q++ {
				for i := range faults {
					faults[i] = rng.Intn(g.M())
				}
				s := st.Sources[rng.Intn(len(st.Sources))]
				if q%2 == 0 {
					_, err = o.Dists(s, faults)
				} else {
					_, err = o.Route(s, rng.Intn(g.N()), faults)
				}
				if err != nil {
					t.Fatalf("query %d (source %d, faults %v): %v", q, s, faults, err)
				}
			}

			if frozenHash(g) != gHash {
				t.Error("queries changed G's CSR arrays")
			}
			if frozenHash(set.sub) != hHash {
				t.Error("queries changed the H graph's CSR arrays")
			}
			if !slices.Equal(st.Edges.Words(), words) {
				t.Error("queries changed the structure's kept-edge bitset")
			}
		})
	}
}
