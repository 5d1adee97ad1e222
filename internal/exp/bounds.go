package exp

import (
	"fmt"
	"math"

	"repro/internal/approx"
	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/verify"
)

// E2LowerBound reproduces Theorem 1.2 / Figures 10–12: the adversarial
// instances G*_f whose bipartite block is necessary in full, giving the
// Ω(σ^{1/(f+1)} · n^{2-1/(f+1)}) lower bound.
func E2LowerBound(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "lower-bound instances G*_f (necessity-certified)",
		Claim:  "Theorem 1.2: any f-FT-MBFS needs Ω(σ^{1/(f+1)}·n^{2-1/(f+1)}) edges; f=2,σ=1 → Ω(n^{5/3})",
		Header: []string{"f", "σ", "n", "d", "leaves", "|X|", "forced", "forced/pred", "necess-checked"},
	}
	fs := []int{1, 2}
	if cfg.Full {
		fs = append(fs, 3)
	}
	sizes := cfg.sizes()
	for _, f := range fs {
		var xs, ys []float64
		for _, n := range sizes {
			scale := n * (f + 1) // towers grow with f; give the budget room
			inst, err := lowerbound.NewInstanceCtx(cfg.ctx(), f, scale)
			if err != nil {
				// "n too small" rows are skipped; a cancelled sweep must
				// NOT masquerade as a completed (truncated) table.
				if cerr := cfg.ctx().Err(); cerr != nil {
					return nil, cerr
				}
				continue
			}
			nn := float64(inst.G.N())
			pred := math.Pow(nn, 2.0-1.0/float64(f+1))
			checked, err := certifyNecessity(inst, 40)
			if err != nil {
				return nil, fmt.Errorf("E2 f=%d n=%d: %w", f, scale, err)
			}
			t.AddRow(itoa(f), "1", itoa(inst.G.N()), itoa(inst.Tower.D),
				itoa(len(inst.Tower.Leaves)), itoa(len(inst.X)),
				itoa(len(inst.Bipartite)), f3(float64(len(inst.Bipartite))/pred), itoa(checked))
			xs = append(xs, nn)
			ys = append(ys, float64(len(inst.Bipartite)))
		}
		if len(xs) >= 2 {
			t.AddNote("f=%d: fitted forced-edge exponent %.2f (claim %.2f)",
				f, FitExponent(xs, ys), 2.0-1.0/float64(f+1))
		}
	}
	// Multi-source sweep at fixed f=1.
	for _, sigma := range []int{1, 2, 4} {
		n := sizes[len(sizes)-1] * 4
		mi, err := lowerbound.NewMultiInstanceCtx(cfg.ctx(), 1, sigma, n)
		if err != nil {
			if cerr := cfg.ctx().Err(); cerr != nil {
				return nil, cerr
			}
			continue
		}
		nn := float64(mi.G.N())
		pred := math.Pow(float64(sigma), 0.5) * math.Pow(nn, 1.5)
		t.AddRow("1", itoa(sigma), itoa(mi.G.N()), itoa(mi.Towers[0].D),
			itoa(len(mi.Towers[0].Leaves)*sigma), itoa(len(mi.X)),
			itoa(mi.BipartiteCount), f3(float64(mi.BipartiteCount)/pred), "-")
	}
	t.AddNote("σ-scaling uses σ^{1/(f+1)} per the abstract/construction; Thm 4.1's statement " +
		"σ^{1-1/(f+1)} appears to be a typo (see EXPERIMENTS.md)")
	return t, nil
}

// certifyNecessity verifies, for up to maxLeaves leaves (all X per leaf via
// the first X vertex), that the bipartite edge is required under the leaf's
// fault set. Returns the number of (leaf, x) pairs checked.
func certifyNecessity(inst *lowerbound.Instance, maxLeaves int) (int, error) {
	r := bfs.NewRunner(inst.G)
	checked := 0
	for l := range inst.Tower.Leaves {
		if l >= maxLeaves {
			break
		}
		faults := inst.FaultSetFor(l)
		if len(faults) > inst.F {
			return checked, fmt.Errorf("leaf %d: fault set too large", l)
		}
		lf := inst.Tower.Leaves[l]
		r.Run(inst.Source, faults, nil)
		want := int32(lf.Depth + 1)
		if got := r.Dist(inst.X[0]); got != want {
			return checked, fmt.Errorf("leaf %d: dist %d, want %d", l, got, want)
		}
		eid := inst.BipartiteEdge(l, 0)
		r.Run(inst.Source, append([]int{eid}, faults...), nil)
		if got := r.Dist(inst.X[0]); got != bfs.Unreachable && got <= want {
			return checked, fmt.Errorf("leaf %d: edge not necessary", l)
		}
		checked++
	}
	return checked, nil
}

// E3Approx reproduces Theorem 1.3: the O(log n)-approximate Minimum
// FT-MBFS against the exact constructions and the spanning-tree floor.
func E3Approx(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "O(log n)-approximation for Minimum FT-MBFS",
		Claim:  "Theorem 1.3: greedy set-cover structure ≤ Θ(log n)·OPT; near-linear when OPT is",
		Header: []string{"family", "f", "σ", "n", "m", "approx", "exact-alg", "n-1", "approx/exact", "ln|U|"},
	}
	cases := []struct {
		name string
		f    int
		nsrc int
	}{
		{"tree+chords", 1, 1},
		{"tree+chords", 2, 1},
		{"cycle", 1, 1},
		{"gnp-logn", 1, 1},
		{"gnp-logn", 2, 1},
		{"gnp-logn", 1, 2},
	}
	n := 30
	if cfg.Full {
		n = 48
	}
	for _, c := range cases {
		var g *graph.Graph
		switch c.name {
		case "tree+chords":
			g = gen.TreePlusChords(n, n/8, 3)
		case "cycle":
			g = gen.Cycle(n)
		default:
			g = gen.SparseGNP(n, 4, 3)
		}
		sources := []int{0}
		if c.nsrc == 2 {
			sources = []int{0, n / 2}
		}
		ap, err := approx.Build(g, sources, c.f, cfg.opts(0))
		if err != nil {
			return nil, fmt.Errorf("E3 %s f=%d: %w", c.name, c.f, err)
		}
		var exact *core.Structure
		build := core.BuildSingle
		if c.f == 2 {
			build = core.BuildDual
		}
		exact, err = core.BuildMultiSource(g, sources, cfg.opts(0), build)
		if err != nil {
			return nil, fmt.Errorf("E3 exact %s: %w", c.name, err)
		}
		// Both must verify.
		if rep := verify.Structure(g, ap, sources, c.f, cfg.verifyOpts()); !rep.OK {
			return nil, fmt.Errorf("E3 %s: approx failed verification: %v", c.name, rep.Violations[0])
		}
		u := float64(sched.NumFaultSets(g.M(), c.f) * int64(len(sources)))
		t.AddRow(c.name, itoa(c.f), itoa(len(sources)), itoa(g.N()), itoa(g.M()),
			itoa(ap.NumEdges()), itoa(exact.NumEdges()), itoa(g.N()-1),
			f3(float64(ap.NumEdges())/float64(exact.NumEdges())), f2(math.Log(u)))
	}
	return t, nil
}

// E4FTDiameter reproduces Observation 1.6: graphs with small FT-diameter
// D_f(G) admit structures of size O(D_f^f · n).
func E4FTDiameter(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "FT-diameter bound",
		Claim:  "Obs 1.6: an f-FT-BFS of size O(D_f(G)^f · n) exists (union of fault trees)",
		Header: []string{"graph", "n", "m", "D_2", "|H| (exhaustive)", "D_2^2*n", "ratio"},
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"hypercube-4", gen.Hypercube(4)},
		{"complete-12", gen.Complete(12)},
		{"gnp-dense-24", gen.GNP(24, 0.5, 5)},
		{"grid-5x5", gen.Grid(5, 5)},
	}
	if cfg.Full {
		graphs = append(graphs, struct {
			name string
			g    *graph.Graph
		}{"hypercube-5", gen.Hypercube(5)})
	}
	for _, spec := range graphs {
		g := spec.g
		d2 := ftDiameter(g, 0)
		st, err := core.BuildExhaustive(g, 0, 2, nil)
		if err != nil {
			return nil, fmt.Errorf("E4 %s: %w", spec.name, err)
		}
		bound := float64(d2) * float64(d2) * float64(g.N())
		t.AddRow(spec.name, itoa(g.N()), itoa(g.M()), itoa(int(d2)),
			itoa(st.NumEdges()), f2(bound), f3(float64(st.NumEdges())/bound))
	}
	return t, nil
}

// ftDiameter computes D_2(G) from the given source: the maximum finite
// distance from s under any single edge fault (|F| ≤ f-1 = 1).
func ftDiameter(g *graph.Graph, s int) int32 {
	r := bfs.NewRunner(g)
	var d int32
	upd := func() {
		for v := 0; v < g.N(); v++ {
			if dv := r.Dist(v); dv > d {
				d = dv
			}
		}
	}
	r.Run(s, nil, nil)
	upd()
	for e := 0; e < g.M(); e++ {
		r.Run(s, []int{e}, nil)
		upd()
	}
	return d
}

// E9Verify reproduces the correctness theorems (Lemmas 3.1, 3.2): the
// constructed structures pass exhaustive dual-failure verification across
// families and seeds.
func E9Verify(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "exhaustive correctness verification",
		Claim:  "Lemma 3.2: H is a dual-failure FT-BFS structure (all |F| ≤ 2 preserved)",
		Header: []string{"family", "n", "m", "|H|", "fault-sets", "pruned", "violations"},
	}
	for _, fam := range sweepFamilies() {
		n := cfg.sizes()[0]
		g := fam.Make(n, 1000)
		if g.M() > 900 {
			continue
		}
		src := sourceFor(fam.Name, g, n)
		st, err := core.BuildDual(g, src, cfg.opts(1))
		if err != nil {
			return nil, fmt.Errorf("E9 %s: %w", fam.Name, err)
		}
		rep := verify.Structure(g, st, []int{src}, 2, cfg.verifyOpts())
		viol := len(rep.Violations)
		t.AddRow(fam.Name, itoa(g.N()), itoa(g.M()), itoa(st.NumEdges()),
			itoa(rep.FaultSetsChecked), itoa(rep.FaultSetsPruned), itoa(viol))
		if !rep.OK {
			return t, fmt.Errorf("E9 %s: verification failed: %v", fam.Name, rep.Violations[0])
		}
	}
	return t, nil
}
