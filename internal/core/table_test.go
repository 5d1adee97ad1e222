package core

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/replace"
	"repro/internal/wsp"
)

// TestDistTableWorkerIndependent checks that a dual build's
// replacement-distance tables are byte-identical at 1 and 3 workers —
// the workers' runs are gathered by vertex, not by who built them — for a
// single-source and a two-source build, and that the builders without
// Steps 2 and 3 leave Tables nil. It then gathers one engine's runs of
// the single-source build through keepTable: the table equals the
// build's on a structure with no tie warning, and none is kept on one
// with a tie warning.
func TestDistTableWorkerIndependent(t *testing.T) {
	g := gen.SparseGNP(200, 6, 1)
	var want []*replace.DistTable // the single-source build's
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
		if len(srcs) == 1 {
			want = one.Tables
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

	tree := wsp.NewTree(g, wsp.NewAssignment(g.M(), 1), 0)
	e := replace.NewEngine(tree)
	var part partial
	for _, v := range tree.Preorder() {
		if tr := e.BuildTarget(int(v), false); tr != nil {
			part.targets = append(part.targets, v)
			part.runs = e.AppendDists(part.runs, tr)
			part.ends = append(part.ends, int32(len(part.runs)))
		}
	}
	for _, ties := range []int{0, 1} {
		st := &Structure{G: g, Sources: []int{0}, Stats: BuildStats{TieWarnings: ties}}
		st.keepTable(tree, []partial{part})
		if ties == 0 && !reflect.DeepEqual(st.Tables, want) {
			t.Fatal("the table gathered from one engine's runs differs from the build's")
		}
		if ties > 0 && st.Tables != nil {
			t.Fatalf("a structure with %d tie warnings kept a table", ties)
		}
	}
}
