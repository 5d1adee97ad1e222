// Golden-fingerprint equivalence tests: the exact structures and oracle
// answers produced for fixed seeds are pinned as SHA-256 hashes. The hashes
// were recorded on the pre-CSR (map + slice-of-slices) graph representation;
// any representation change that alters canonical trees, edge-ID assignment,
// neighbor iteration order, or query answers will break them.
package ftbfs_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	ftbfs "repro"
)

// fingerprintStructure hashes everything observable about a built structure:
// graph size, kept edge IDs (in ID order) and their endpoints.
func fingerprintStructure(st *ftbfs.Structure) string {
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
		put(id)
		put(e.U)
		put(e.V)
	})
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// fingerprintOracle hashes the distance tables for a deterministic sample of
// fault sets (plus the routes' lengths, which must realize the distances).
func fingerprintOracle(t *testing.T, st *ftbfs.Structure, trials int) string {
	t.Helper()
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
	src := st.Sources[0]
	m := st.G.M()
	for trial := 0; trial < trials; trial++ {
		var faults []int
		for k := rng.Intn(st.Faults + 1); k > 0; k-- {
			faults = append(faults, rng.Intn(m))
		}
		ds, err := o.Dists(src, faults)
		if err != nil {
			t.Fatalf("Dists(%v): %v", faults, err)
		}
		for _, d := range ds {
			put(int64(d))
		}
		v := rng.Intn(st.G.N())
		p, err := o.Route(src, v, faults)
		if err != nil {
			t.Fatalf("Route(%v): %v", faults, err)
		}
		put(int64(len(p)))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func TestGoldenStructureFingerprints(t *testing.T) {
	cases := []struct {
		name       string
		build      func(opts *ftbfs.Options) (*ftbfs.Structure, error)
		structure  string
		oracle     string
		oracleRuns int
	}{
		{
			name: "dual/sparse-gnp-80",
			build: func(opts *ftbfs.Options) (*ftbfs.Structure, error) {
				return ftbfs.BuildDualFTBFS(ftbfs.SparseGNP(80, 6, 2015), 0, opts)
			},
			structure:  "b6397b093386326806032c0b",
			oracle:     "717b6992aa8b4b3ccf7935a9",
			oracleRuns: 60,
		},
		{
			name: "dual/gnp-40",
			build: func(opts *ftbfs.Options) (*ftbfs.Structure, error) {
				return ftbfs.BuildDualFTBFS(ftbfs.GNP(40, 0.3, 7), 0, opts)
			},
			structure:  "29f3c7b0ed9c587e78cb23ed",
			oracle:     "8614186653edb8c6d88a8bd7",
			oracleRuns: 60,
		},
		{
			name: "single/tree-chords-60",
			build: func(opts *ftbfs.Options) (*ftbfs.Structure, error) {
				return ftbfs.BuildSingleFTBFS(ftbfs.TreePlusChords(60, 8, 3), 0, opts)
			},
			structure:  "1e4567168e874c38d750bf8c",
			oracle:     "25138d806cba2eb8516dad59",
			oracleRuns: 40,
		},
		{
			name: "exhaustive-f2/grid-5x5",
			build: func(opts *ftbfs.Options) (*ftbfs.Structure, error) {
				return ftbfs.BuildExhaustiveFTBFS(ftbfs.Grid(5, 5), 0, 2, opts)
			},
			structure:  "083149d1eb1b810711bacd1b",
			oracle:     "6c9b7f902c70c5472a425749",
			oracleRuns: 40,
		},
		{
			name: "multisource-dual/layered",
			build: func(opts *ftbfs.Options) (*ftbfs.Structure, error) {
				return ftbfs.BuildMultiSourceDualFTBFS(ftbfs.Layered(5, 8, 0.3, 11), []int{0, 4}, opts)
			},
			structure:  "cd00e439ac8f174472efb8ba",
			oracle:     "da103ef963bc35d07b87bf96",
			oracleRuns: 40,
		},
	}
	// Every golden hash must come out of the worker pool at one worker
	// and at three: the fan-out must not change a bit of the output.
	variants := []struct {
		name string
		opts *ftbfs.Options
	}{
		{"repair", nil},
		{"parallel", &ftbfs.Options{Parallelism: 3}},
	}
	for _, c := range cases {
		for _, vt := range variants {
			t.Run(c.name+"/"+vt.name, func(t *testing.T) {
				st, err := c.build(vt.opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := fingerprintStructure(st); got != c.structure {
					t.Errorf("structure fingerprint = %s, want %s", got, c.structure)
				}
				if got := fingerprintOracle(t, st, c.oracleRuns); got != c.oracle {
					t.Errorf("oracle fingerprint = %s, want %s", got, c.oracle)
				}
			})
		}
	}
}
