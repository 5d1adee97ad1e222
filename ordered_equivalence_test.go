// Observational-equivalence tests for BFS vertex renumbering: a structure
// built over ReorderBFS(g) must be the SAME object as one built over g up
// to the vertex relabeling — same kept edge IDs, same distances, same
// realized routes. The golden fingerprints of equivalence_test.go are the
// pin: translating an ordered build back through its order maps must
// reproduce the exact hashes recorded for the plain representation.
package ftbfs_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	ftbfs "repro"
)

// fingerprintStructureWire hashes an ordered structure in the wire
// numbering: kept edge IDs with endpoints mapped through toOld and
// re-normalized. On a plain graph it degenerates to fingerprintStructure.
func fingerprintStructureWire(st *ftbfs.Structure) string {
	_, toOld := st.G.OrderMaps()
	wire := func(v int) int {
		if toOld == nil {
			return v
		}
		return int(toOld[v])
	}
	h := sha256.New()
	var buf [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		h.Write(buf[:])
	}
	put(st.G.N())
	put(st.G.M())
	put(st.NumEdges())
	st.Edges.ForEach(func(id int) {
		e := st.G.EdgeAt(id)
		u, v := wire(e.U), wire(e.V)
		if u > v {
			u, v = v, u
		}
		put(id)
		put(u)
		put(v)
	})
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// fingerprintOracleWire mirrors fingerprintOracle with every vertex ID
// translated at the boundary: queries go in through toNew, distance
// tables come out re-indexed into wire order. Fault IDs are edge IDs and
// need no translation — that is the renumbering contract.
func fingerprintOracleWire(t *testing.T, st *ftbfs.Structure, wireSource, trials int) string {
	t.Helper()
	toNew, _ := st.G.OrderMaps()
	in := func(v int) int {
		if toNew == nil {
			return v
		}
		return int(toNew[v])
	}
	set, err := ftbfs.NewOracleSet(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := set.Handle()
	rng := rand.New(rand.NewSource(99))
	h := sha256.New()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	m := st.G.M()
	for trial := 0; trial < trials; trial++ {
		var faults []int
		for k := rng.Intn(st.Faults + 1); k > 0; k-- {
			faults = append(faults, rng.Intn(m))
		}
		ds, err := o.Dists(in(wireSource), faults)
		if err != nil {
			t.Fatalf("Dists(%v): %v", faults, err)
		}
		for w := range ds {
			put(int64(ds[in(w)]))
		}
		v := rng.Intn(st.G.N())
		p, err := o.Route(in(wireSource), in(v), faults)
		if err != nil {
			t.Fatalf("Route(%v): %v", faults, err)
		}
		put(int64(len(p)))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestOrderedGoldenFingerprints rebuilds a subset of the golden cases
// over BFS-reordered graphs and requires the wire-translated fingerprints
// to match the hashes pinned for the plain representation — renumbering
// is invisible to every observable of the structure and its oracle.
func TestOrderedGoldenFingerprints(t *testing.T) {
	cases := []struct {
		name       string
		build      func() (*ftbfs.Structure, error)
		structure  string
		oracle     string
		oracleRuns int
	}{
		{
			name: "dual/sparse-gnp-80",
			build: func() (*ftbfs.Structure, error) {
				g := ftbfs.ReorderBFS(ftbfs.SparseGNP(80, 6, 2015))
				toNew, _ := g.OrderMaps()
				return ftbfs.BuildDualFTBFS(g, int(toNew[0]), nil)
			},
			structure:  "b6397b093386326806032c0b",
			oracle:     "717b6992aa8b4b3ccf7935a9",
			oracleRuns: 60,
		},
		{
			name: "single/tree-chords-60",
			build: func() (*ftbfs.Structure, error) {
				g := ftbfs.ReorderBFS(ftbfs.TreePlusChords(60, 8, 3))
				toNew, _ := g.OrderMaps()
				return ftbfs.BuildSingleFTBFS(g, int(toNew[0]), nil)
			},
			structure:  "1e4567168e874c38d750bf8c",
			oracle:     "25138d806cba2eb8516dad59",
			oracleRuns: 40,
		},
		{
			name: "exhaustive-f2/grid-5x5",
			build: func() (*ftbfs.Structure, error) {
				g := ftbfs.ReorderBFS(ftbfs.Grid(5, 5))
				toNew, _ := g.OrderMaps()
				return ftbfs.BuildExhaustiveFTBFS(g, int(toNew[0]), 2, nil)
			},
			structure:  "083149d1eb1b810711bacd1b",
			oracle:     "6c9b7f902c70c5472a425749",
			oracleRuns: 40,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			if !st.G.Ordered() {
				t.Fatal("build did not run on an ordered graph")
			}
			if got := fingerprintStructureWire(st); got != c.structure {
				t.Errorf("wire structure fingerprint = %s, want %s", got, c.structure)
			}
			if got := fingerprintOracleWire(t, st, 0, c.oracleRuns); got != c.oracle {
				t.Errorf("wire oracle fingerprint = %s, want %s", got, c.oracle)
			}
		})
	}
}

// TestOrderedRandomEquivalence cross-checks plain and ordered builds over
// random graphs directly (no pinned hashes): for random fault sets, every
// translated distance table must agree entry for entry, and route
// lengths must realize the same distances.
func TestOrderedRandomEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := ftbfs.SparseGNP(120, 7, seed)
		og := ftbfs.ReorderBFS(ftbfs.SparseGNP(120, 7, seed))
		toNew, _ := og.OrderMaps()
		st, err := ftbfs.BuildDualFTBFS(g, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ost, err := ftbfs.BuildDualFTBFS(og, int(toNew[0]), nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.NumEdges() != ost.NumEdges() {
			t.Fatalf("seed %d: kept %d vs %d edges", seed, st.NumEdges(), ost.NumEdges())
		}
		set, err := ftbfs.NewOracleSet(st, 0)
		if err != nil {
			t.Fatal(err)
		}
		oset, err := ftbfs.NewOracleSet(ost, 0)
		if err != nil {
			t.Fatal(err)
		}
		o, oo := set.Handle(), oset.Handle()
		rng := rand.New(rand.NewSource(seed * 7))
		for trial := 0; trial < 25; trial++ {
			var faults []int
			for k := rng.Intn(3); k > 0; k-- {
				faults = append(faults, rng.Intn(g.M()))
			}
			ds, err := o.Dists(0, faults)
			if err != nil {
				t.Fatal(err)
			}
			ods, err := oo.Dists(int(toNew[0]), faults)
			if err != nil {
				t.Fatal(err)
			}
			for w := range ds {
				if ds[w] != ods[toNew[w]] {
					t.Fatalf("seed %d faults %v: dist[%d] = %d plain vs %d ordered",
						seed, faults, w, ds[w], ods[toNew[w]])
				}
			}
			v := rng.Intn(g.N())
			p, err := o.Route(0, v, faults)
			if err != nil {
				t.Fatal(err)
			}
			op, err := oo.Route(int(toNew[0]), int(toNew[v]), faults)
			if err != nil {
				t.Fatal(err)
			}
			if len(p) != len(op) {
				t.Fatalf("seed %d faults %v: route to %d has %d vs %d vertices",
					seed, faults, v, len(p), len(op))
			}
		}
	}
}
