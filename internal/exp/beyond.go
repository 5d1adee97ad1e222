package exp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/multifail"
	"repro/internal/verify"
)

// E13Selection is the selection-rule ablation: Cons2FTBFS (earliest
// π-divergence, then earliest detour divergence — the rules the size proof
// needs) against the plain canonical relevant-tree builder at f = 2. Both
// are correct; the measured delta is what the rules buy in practice.
func E13Selection(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "selection-rule ablation (Cons2FTBFS vs canonical closure, f=2)",
		Claim: "§3 road map: prefer paths diverging closest to s (and to x_τ) — needed by the O(n^{5/3}) proof",
		Header: []string{"family", "n", "Cons2FTBFS", "canonical", "canon/cons", "cons-searches",
			"canon-searches"},
	}
	for _, fam := range sweepFamilies() {
		for _, n := range cfg.sizes() {
			g := fam.Make(n, 1000)
			if g.M() > 1600 {
				continue
			}
			src := sourceFor(fam.Name, g, n)
			cons, err := core.BuildDual(g, src, cfg.opts(1))
			if err != nil {
				return nil, fmt.Errorf("E13 cons %s: %w", fam.Name, err)
			}
			canon, err := multifail.Build(g, src, 2, cfg.opts(1))
			if err != nil {
				return nil, fmt.Errorf("E13 canon %s: %w", fam.Name, err)
			}
			t.AddRow(fam.Name, itoa(g.N()), itoa(cons.NumEdges()), itoa(canon.NumEdges()),
				f3(float64(canon.NumEdges())/float64(cons.NumEdges())),
				itoa(cons.Stats.Dijkstras), itoa(canon.Stats.Dijkstras))
		}
	}
	t.AddNote("both structures verify; the ratio isolates the effect of the divergence-preference rules")
	return t, nil
}

// E12Beyond reproduces the paper's "Beyond two faults" discussion as a
// measurement: f-failure structures for f = 0..3 built by relevant-fault-
// tree enumeration, all verified, with sizes against the conjectured
// O(n^{2-1/(f+1)}) envelope and the search-count savings over the m^f
// closure.
func E12Beyond(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "beyond two faults: relevant-fault-tree structures (f = 0..3)",
		Claim: "§2 'Beyond two faults': f-FT-BFS via replacement-path closure; conjectured Θ(n^{2-1/(f+1)})",
		Header: []string{"family", "n", "f", "|E(H_f)|", "|H|/n^e(f)", "searches", "exhaustive-searches",
			"verified"},
	}
	for _, fam := range sweepFamilies() {
		if fam.Name == "adversarial-G*2" {
			continue // its f=3 relevant tree is deep; covered by E2's f=3 row
		}
		n := cfg.sizes()[0]
		g := fam.Make(n, 1000)
		if g.M() > 400 {
			continue
		}
		for f := 0; f <= 3; f++ {
			st, err := multifail.Build(g, 0, f, cfg.opts(1))
			if err != nil {
				return nil, fmt.Errorf("E12 %s f=%d: %w", fam.Name, f, err)
			}
			status := "sampled-ok"
			if f <= 2 || g.M() <= 120 {
				rep := verify.FTBFS(g, st.Edges, []int{0}, f, cfg.verifyOpts())
				if !rep.OK {
					return t, fmt.Errorf("E12 %s f=%d: verification failed: %v",
						fam.Name, f, rep.Violations[0])
				}
				status = "exhaustive-ok"
			} else {
				rep := verify.Sampled(g, st.Edges, []int{0}, f, 400, 1, cfg.verifyOpts())
				if !rep.OK {
					return t, fmt.Errorf("E12 %s f=%d: sampled verification failed: %v",
						fam.Name, f, rep.Violations[0])
				}
			}
			exponent := 2.0 - 1.0/float64(f+1)
			exhaustiveCost := 1.0
			for k := 1; k <= f; k++ {
				exhaustiveCost = exhaustiveCost * float64(g.M()-k+1) / float64(k)
			}
			t.AddRow(fam.Name, itoa(g.N()), itoa(f), itoa(st.NumEdges()),
				f3(float64(st.NumEdges())/math.Pow(float64(g.N()), exponent)),
				itoa(st.Stats.Dijkstras), f2(exhaustiveCost), status)
		}
	}
	t.AddNote("e(f) = 2-1/(f+1): the conjectured tight exponent (matches the Thm-4.1 lower bound)")
	return t, nil
}
