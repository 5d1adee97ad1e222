// Package lowerbound implements the Section-4 lower-bound constructions:
// the recursive tower G_f(d) with its leaf labels (Lemma 4.3), the
// adversarial single-source instance G*_f (Figures 10–12) whose every
// bipartite edge is necessary in any f-failure FT-BFS structure, and the
// multi-source variant of Theorem 4.1.
//
// One deliberate deviation from the paper's text, recorded in DESIGN.md §5:
// the connector paths Q^f_i have length (d-i)·height(G_{f-1}(d)) + 1 rather
// than (d-i)·depth(G_{f-1}(d)), so the i = d connector is a real edge and
// root-to-leaf path lengths remain strictly monotone decreasing from left to
// right — the property Lemma 4.3(4) needs. The asymptotics are unchanged.
package lowerbound

import (
	"fmt"

	"repro/internal/graph"
)

// Leaf describes one terminal of a tower.
type Leaf struct {
	// V is the leaf vertex.
	V int
	// Label is the fault set of Lemma 4.3 as vertex pairs: failing
	// exactly these edges preserves the root-to-this-leaf path while
	// destroying every root-to-leaf path strictly to the right.
	Label []graph.Edge
	// TopCut reports whether Label contains an edge of the tower's
	// top-level path; when it does not, reaching the top path's last
	// vertex from the root stays possible under Label, so necessity
	// fault sets must additionally cut the v*-edge.
	TopCut bool
	// Depth is the root-to-leaf distance.
	Depth int
}

// Tower is the recursive graph G_f(d) of Section 4, embedded in a graph.
type Tower struct {
	F, D int
	// Root is the source-side end u^f_1 of the top-level path.
	Root int
	// Last is the bottom end u^f_d of the top-level path (v* attaches
	// here in the adversarial instance).
	Last int
	// Leaves lists the terminals left to right; root-to-leaf distances
	// strictly decrease along this order (Lemma 4.3(4)).
	Leaves []Leaf
	// Height is the maximum root-to-leaf distance.
	Height int
}

// builder accumulates vertices and edges before materializing a Graph.
type builder struct {
	n     int
	edges [][2]int
}

func (b *builder) vertex() int {
	v := b.n
	b.n++
	return v
}

func (b *builder) edge(u, v int) { b.edges = append(b.edges, [2]int{u, v}) }

// pathFrom attaches a fresh path of `length` edges starting at u and returns
// the far endpoint. length must be ≥ 1.
func (b *builder) pathFrom(u, length int) int {
	cur := u
	for i := 0; i < length; i++ {
		nxt := b.vertex()
		b.edge(cur, nxt)
		cur = nxt
	}
	return cur
}

func (b *builder) graph() (*graph.Graph, error) {
	gb := graph.NewBuilder(b.n)
	for _, e := range b.edges {
		if _, err := gb.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("lowerbound: %w", err)
		}
	}
	return gb.Freeze(), nil
}

// q1Len is the length of the level-1 pendant path Q^1_i (1-based i).
func q1Len(d, i int) int { return 6 + 2*(d-i) }

// towerHeight returns the maximum root-to-leaf distance of G_f(d).
func towerHeight(f, d int) int {
	if f == 1 {
		return q1Len(d, 1) // deepest leaf hangs off the root
	}
	return d*towerHeight(f-1, d) + 1
}

// TowerSize returns the number of vertices of G_f(d) without building it.
// A pendant/connector path of length L contributes L fresh vertices.
func TowerSize(f, d int) int {
	if f == 1 {
		s := d
		for i := 1; i <= d; i++ {
			s += q1Len(d, i)
		}
		return s
	}
	h := towerHeight(f-1, d)
	s := d
	for i := 1; i <= d; i++ {
		s += (d-i)*h + 1
	}
	return s + d*TowerSize(f-1, d)
}

// NumLeaves returns d^f, the leaf count of G_f(d).
func NumLeaves(f, d int) int {
	out := 1
	for i := 0; i < f; i++ {
		out *= d
	}
	return out
}

// buildTower appends G_f(d) to b and returns its description.
// Requires f ≥ 1 and d ≥ 2.
func buildTower(b *builder, f, d int) Tower {
	t := Tower{F: f, D: d}
	top := make([]int, d)
	for i := range top {
		top[i] = b.vertex()
	}
	for i := 0; i+1 < d; i++ {
		b.edge(top[i], top[i+1])
	}
	t.Root, t.Last = top[0], top[d-1]

	if f == 1 {
		for i := 0; i < d; i++ {
			z := b.pathFrom(top[i], q1Len(d, i+1))
			leaf := Leaf{V: z, Depth: i + q1Len(d, i+1)}
			if i+1 < d {
				leaf.Label = []graph.Edge{{U: top[i], V: top[i+1]}}
				leaf.TopCut = true
			}
			t.Leaves = append(t.Leaves, leaf)
		}
		t.Height = t.Leaves[0].Depth
		return t
	}

	h := towerHeight(f-1, d)
	for i := 0; i < d; i++ {
		qLen := (d-1-i)*h + 1
		attach := b.pathFrom(top[i], qLen)
		sub := buildTower(b, f-1, d)
		b.edge(attach, sub.Root)
		prefix := i + qLen + 1 // edges from t.Root to sub.Root
		for _, lf := range sub.Leaves {
			nl := Leaf{V: lf.V, Depth: prefix + lf.Depth}
			if i+1 < d {
				nl.Label = append([]graph.Edge{{U: top[i], V: top[i+1]}}, lf.Label...)
				nl.TopCut = true
			} else {
				nl.Label = lf.Label
				nl.TopCut = false
			}
			t.Leaves = append(t.Leaves, nl)
		}
	}
	t.Height = t.Leaves[0].Depth
	return t
}

// BuildTower materializes G_f(d) as a standalone graph (root is the source
// for Lemma 4.3 experiments).
func BuildTower(f, d int) (*graph.Graph, Tower, error) {
	if f < 1 || d < 2 {
		return nil, Tower{}, fmt.Errorf("lowerbound: need f ≥ 1, d ≥ 2; got f=%d d=%d", f, d)
	}
	b := &builder{}
	t := buildTower(b, f, d)
	g, err := b.graph()
	if err != nil {
		return nil, Tower{}, err
	}
	return g, t, nil
}
