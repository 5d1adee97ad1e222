package edgelist

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestReadBasic(t *testing.T) {
	in := `
# a comment
n 5
0 1
1 2  # trailing comment
3 4
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(3, 4) {
		t.Fatal("edges missing")
	}
}

func TestReadInfersN(t *testing.T) {
	g, err := Read(strings.NewReader("0 1\n1 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 8 {
		t.Fatalf("inferred n = %d", g.N())
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"bad n":        "n x\n",
		"negative n":   "n -3\n",
		"three fields": "0 1 2\n",
		"non-numeric":  "a b\n",
		"self-loop":    "1 1\n",
		"duplicate":    "0 1\n1 0\n",
		"out of range": "n 2\n0 5\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(in)); err == nil {
				t.Fatalf("input %q accepted", in)
			}
		})
	}
}

func TestRoundTrip(t *testing.T) {
	g := gen.GNP(20, 0.2, 5)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip changed size: %d/%d vs %d/%d", back.N(), back.M(), g.N(), g.M())
	}
	for _, e := range g.Edges() {
		if !back.HasEdge(e.U, e.V) {
			t.Fatalf("edge %v lost", e)
		}
	}
}

func TestWriteSubset(t *testing.T) {
	gb := graph.NewBuilder(4)
	a := gb.MustAddEdge(0, 1)
	gb.MustAddEdge(1, 2)
	c := gb.MustAddEdge(2, 3)
	g := gb.Freeze()
	keep := graph.NewEdgeSet(g.M())
	keep.Add(a)
	keep.Add(c)
	var buf bytes.Buffer
	if err := WriteSubset(&buf, g, keep); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 4 || back.M() != 2 || back.HasEdge(1, 2) {
		t.Fatalf("subset wrong: n=%d m=%d", back.N(), back.M())
	}
}

func TestReadErrorLineNumbers(t *testing.T) {
	cases := map[string]struct {
		in   string
		line string
	}{
		"self-loop":    {"0 1\n\n2 2\n", "line 3"},
		"duplicate":    {"# header\n0 1\n1 0\n", "line 3"},
		"out of range": {"n 2\n0 1\n0 5\n", "line 3"},
		"malformed":    {"0 1\n0 1 2\n", "line 2"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Read(strings.NewReader(c.in))
			if err == nil {
				t.Fatalf("input %q accepted", c.in)
			}
			if !strings.Contains(err.Error(), c.line) {
				t.Fatalf("error %q does not name %s", err, c.line)
			}
		})
	}
}

func TestReadSubset(t *testing.T) {
	g, err := Read(strings.NewReader("n 4\n0 1\n1 2\n2 3\n0 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	// Orientation and line order do not matter; IDs are g's.
	h, err := ReadSubset(strings.NewReader("n 4\n3 0\n2 1\n"), g)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.IDs(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("subset IDs = %v, want [1 3]", got)
	}
	for in, want := range map[string]string{
		"n 4\n0 2\n":    "not in graph",
		"n 5\n0 1\n":    "vertex counts differ",
		"n 4\n0 1\n1 0": "duplicate edge",
	} {
		if _, err := ReadSubset(strings.NewReader(in), g); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("ReadSubset(%q) error = %v, want %q", in, err, want)
		}
	}
}
