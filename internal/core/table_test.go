package core

import (
	"reflect"
	"testing"

	"repro/internal/gen"
)

// TestDistTableWorkerIndependent checks that a dual build's
// replacement-distance tables are byte-identical at 1 and 3 workers —
// the workers' runs are gathered by vertex, not by who built them — for a
// single-source and a two-source build, and that the builders without
// Steps 2 and 3 leave Tables nil.
func TestDistTableWorkerIndependent(t *testing.T) {
	g := gen.SparseGNP(200, 6, 1)
	for _, srcs := range [][]int{{0}, {0, 100}} {
		one, err := BuildMultiSource(g, srcs, &Options{Parallelism: 1}, BuildDual)
		if err != nil {
			t.Fatal(err)
		}
		three, err := BuildMultiSource(g, srcs, &Options{Parallelism: 3}, BuildDual)
		if err != nil {
			t.Fatal(err)
		}
		if len(one.Tables) != len(srcs) {
			t.Fatalf("sources %v: %d tables", srcs, len(one.Tables))
		}
		if !reflect.DeepEqual(one.Tables, three.Tables) {
			t.Fatalf("sources %v: tables differ between 1 and 3 workers", srcs)
		}
	}
	single, err := BuildSingle(g, 0, &Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	exh, err := BuildExhaustive(gen.Cycle(8), 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := BuildMultiSource(g, []int{0, 100}, nil, BuildSingle)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Structure{"single": single, "exhaustive": exh, "multi single": mixed} {
		if st.Tables != nil {
			t.Fatalf("%s build has a replacement-distance table", name)
		}
	}
}
