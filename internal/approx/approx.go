// Package approx implements Section 5 of the paper: the O(log n)
// approximation for the Minimum FT-MBFS problem. For every vertex v_i the
// edges kept around v_i are chosen by a greedy set cover over the universe
// U = {⟨s, F⟩ : s ∈ S, F ⊆ E, |F| ≤ f}: the set of a neighbor u_j covers
// the pairs for which some shortest s–v_i path in G \ F enters v_i through
// u_j (Eq. 16: dist(s, u_j, G\F) = dist(s, v_i, G\F) − 1).
package approx

import (
	"fmt"
	"slices"

	"repro/internal/bfs"
	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/setcover"
)

// MaxUniverse caps |S| · (number of fault sets); beyond it Build refuses to
// run rather than consume unbounded memory (the algorithm is Θ(|U|·m)).
const MaxUniverse = 3_000_000

// Build runs the Section-5 approximation and returns an f-failure FT-MBFS
// structure for the given sources whose size is within O(log n) of the
// minimum. Supported f: 0, 1, 2 (the universe grows as m^f).
//
// Options.Ctx cancels the pass cooperatively between BFS table rows and
// cover vertices (Build then returns ctx.Err() and no structure);
// Options.Progress counts one work unit per distance-table row and one
// per covered vertex.
func Build(g *graph.Graph, sources []int, f int, opts *core.Options) (*core.Structure, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("approx: empty source set")
	}
	for _, s := range sources {
		if s < 0 || s >= g.N() {
			return nil, fmt.Errorf("approx: source %d out of range [0,%d)", s, g.N())
		}
	}
	if f < 0 || f > 2 {
		return nil, fmt.Errorf("approx: supported fault budgets are 0..2, got %d", f)
	}
	// Refuse an oversized universe before materializing any of it.
	sets := sched.NumFaultSets(g.M(), f)
	if sets > MaxUniverse/int64(len(sources)) {
		return nil, fmt.Errorf("approx: universe %d×%d exceeds cap %d",
			sets, len(sources), MaxUniverse)
	}
	faultSets := make([][]int, 1, sets) // ∅ first, then sched.FaultSets's order
	sched.FaultSets(0, g.M(), g.M(), f, func(fs []int) bool {
		faultSets = append(faultSets, slices.Clone(fs))
		return true
	})
	ctx := opts.Context()
	prog := opts.ProgressSink()
	// Every work unit here is a whole BFS (table row) or a greedy cover
	// pass, so poll per unit: the check is negligible against the unit
	// and cancellation lands within one search instead of 32.
	poll := cancel.New(ctx, 1)
	opts.AnnounceTotal(int64(len(sources)*len(faultSets)) + int64(g.N()))

	// Distance tables: dist[s][F] is the BFS distance array of G \ F from
	// source index s.
	dist := make([][][]int32, len(sources))
	r := bfs.NewRunner(g)
	for si, s := range sources {
		dist[si] = make([][]int32, len(faultSets))
		for fi, fs := range faultSets {
			if err := poll.Poll(); err != nil {
				return nil, err
			}
			r.Run(s, fs, nil)
			row := make([]int32, g.N())
			copy(row, r.Dists())
			dist[si][fi] = row
			prog.AddUnits(1)
			prog.AddDijkstras(1)
		}
	}

	st := &core.Structure{
		G:       g,
		Sources: append([]int(nil), sources...),
		Faults:  f,
		Edges:   graph.NewEdgeSet(g.M()),
	}
	st.Stats.Dijkstras = len(sources) * len(faultSets)

	// Per-vertex greedy cover.
	for v := 0; v < g.N(); v++ {
		if err := poll.Poll(); err != nil {
			return nil, err
		}
		n0 := st.Edges.Len()
		if err := coverVertex(g, v, sources, faultSets, dist, st.Edges); err != nil {
			return nil, err
		}
		prog.AddUnits(1)
		prog.AddEdges(int64(st.Edges.Len() - n0))
	}
	return st, nil
}

// coverVertex selects edges incident to v via set cover and adds them to
// acc.
func coverVertex(g *graph.Graph, v int, sources []int, faultSets [][]int, dist [][][]int32, acc *graph.EdgeSet) error {
	type nb struct {
		u, id int
	}
	arcs := g.Arcs(v)
	nbs := make([]nb, 0, len(arcs))
	for _, a := range arcs {
		nbs = append(nbs, nb{u: int(a.To), id: int(a.ID)})
	}
	if len(nbs) == 0 {
		return nil
	}
	// Universe: pairs ⟨source, fault set⟩ under which v is reachable and
	// v is not the source itself. Element index = running counter.
	type pair struct{ si, fi int }
	var universe []pair
	for si, s := range sources {
		if s == v {
			continue
		}
		for fi := range dist[si] {
			if dist[si][fi][v] != bfs.Unreachable {
				universe = append(universe, pair{si: si, fi: fi})
			}
		}
	}
	if len(universe) == 0 {
		return nil
	}
	sets := make([][]int, len(nbs))
	for j, b := range nbs {
		var s []int
		for ei, p := range universe {
			// A shortest path can enter v through u_j only when the
			// connecting edge itself survives F (Eq. 16 implicitly
			// assumes this: "goes through the neighbor u_j").
			if containsID(faultSets[p.fi], b.id) {
				continue
			}
			dv := dist[p.si][p.fi][v]
			du := dist[p.si][p.fi][b.u]
			if du != bfs.Unreachable && du == dv-1 {
				s = append(s, ei)
			}
		}
		sets[j] = s
	}
	chosen, ok := setcover.Greedy(len(universe), sets)
	if !ok {
		return fmt.Errorf("approx: vertex %d: universe not coverable (internal invariant broken)", v)
	}
	for _, j := range chosen {
		acc.Add(nbs[j].id)
	}
	return nil
}

// containsID reports whether the (tiny) fault set holds id.
func containsID(fs []int, id int) bool {
	for _, e := range fs {
		if e == id {
			return true
		}
	}
	return false
}
