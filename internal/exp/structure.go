package exp

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/core"
)

// E7Classes reproduces Figure 7: the five-class partition of new-ending
// paths, with the per-class per-vertex counts against the proven bounds.
func E7Classes(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "new-ending path classification (Fig. 7)",
		Claim: "§3.4–3.8: per vertex, |A| = O(√n), |B|,|C|,|D|,|E| = O(n^{2/3})",
		Header: []string{"family", "n", "A:(pi,pi)", "B:no-det", "C:indep", "D:pi-int", "E:D-int",
			"maxClass/v", "max/n^(2/3)"},
	}
	for _, fam := range sweepFamilies() {
		n := cfg.sizes()[len(cfg.sizes())-1]
		g := fam.Make(n, 1000)
		src := sourceFor(fam.Name, g, n)
		st, err := core.BuildDual(g, src, cfg.optsCollect(1))
		if err != nil {
			return nil, fmt.Errorf("E7 %s: %w", fam.Name, err)
		}
		totals := make(map[analysis.PathClass]int)
		maxPerVertex := 0
		for _, tr := range st.Targets {
			if tr == nil {
				continue
			}
			tc := analysis.ClassifyTarget(g, tr)
			for cls, cnt := range tc.Counts {
				totals[cls] += cnt
				if cnt > maxPerVertex {
					maxPerVertex = cnt
				}
			}
		}
		nn := float64(g.N())
		t.AddRow(fam.Name, itoa(g.N()),
			itoa(totals[analysis.ClassPiPi]), itoa(totals[analysis.ClassNoDetour]),
			itoa(totals[analysis.ClassIndependent]), itoa(totals[analysis.ClassPiInterfering]),
			itoa(totals[analysis.ClassDInterfering]),
			itoa(maxPerVertex), f3(float64(maxPerVertex)/math.Pow(nn, 2.0/3.0)))
	}
	return t, nil
}

// E8Detours reproduces Definition 3.7 / Figures 3–4: the pairwise detour
// configuration histogram, asserting Claims 3.8/3.9 (nested and non-nested
// pairs are vertex-disjoint).
func E8Detours(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "detour pair configurations (Def. 3.7)",
		Claim: "Claims 3.8/3.9: non-nested and nested detour pairs are independent (vertex-disjoint)",
		Header: []string{"family", "n", "non-nested", "nested", "interleaved", "x-int", "y-int",
			"(x,y)-int", "same-span", "violations"},
	}
	for _, fam := range sweepFamilies() {
		n := cfg.sizes()[len(cfg.sizes())-1]
		g := fam.Make(n, 1000)
		src := sourceFor(fam.Name, g, n)
		st, err := core.BuildDual(g, src, cfg.optsCollect(1))
		if err != nil {
			return nil, fmt.Errorf("E8 %s: %w", fam.Name, err)
		}
		hist := make(map[analysis.DetourConfig]int)
		violations := 0
		for _, tr := range st.Targets {
			if tr == nil {
				continue
			}
			bad, h := analysis.CheckDisjointnessClaims(tr)
			violations += len(bad)
			for k, v := range h {
				hist[k] += v
			}
		}
		t.AddRow(fam.Name, itoa(g.N()),
			itoa(hist[analysis.ConfigNonNested]), itoa(hist[analysis.ConfigNested]),
			itoa(hist[analysis.ConfigInterleaved]), itoa(hist[analysis.ConfigXInterleaved]),
			itoa(hist[analysis.ConfigYInterleaved]), itoa(hist[analysis.ConfigXYInterleaved]),
			itoa(hist[analysis.ConfigSameSpan]), itoa(violations))
		if violations > 0 {
			return t, fmt.Errorf("E8 %s: %d disjointness violations", fam.Name, violations)
		}
	}
	return t, nil
}

// E10Kernel reproduces Section 3.2.2: the kernel subgraph claims
// (Lemma 3.14, Claims 3.28/3.29) and Lemma 3.16 (distinct D-divergence
// points).
func E10Kernel(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "kernel subgraph and divergence-point claims",
		Claim: "Lemma 3.14 (kernel), Cl. 3.28/3.29 (regions), Lemma 3.16 (distinct c), Obs 1.4, Cl. 3.12, Lemma 3.46",
		Header: []string{"family", "n", "L3.14 checked", "L3.14", "region ratio",
			"Cl3.28", "L3.16", "Obs1.4", "Cl3.12", "L3.46"},
	}
	for _, fam := range sweepFamilies() {
		n := cfg.sizes()[len(cfg.sizes())-1]
		g := fam.Make(n, 1000)
		src := sourceFor(fam.Name, g, n)
		st, err := core.BuildDual(g, src, cfg.optsCollect(1))
		if err != nil {
			return nil, fmt.Errorf("E10 %s: %w", fam.Name, err)
		}
		checked, viol314, viol328, viol316 := 0, 0, 0, 0
		violSuffix, violExcl, violMono := 0, 0, 0
		maxRatio := 0.0
		for _, tr := range st.Targets {
			if tr == nil {
				continue
			}
			rep := analysis.CheckKernel(tr)
			checked += rep.Lemma314Checked
			viol314 += len(rep.Lemma314Violations)
			viol328 += rep.FirstCommonOutsideW
			if rep.MaxRegionRatio > maxRatio {
				maxRatio = rep.MaxRegionRatio
			}
			viol316 += len(analysis.CheckDistinctDDivergence(tr))
			violSuffix += analysis.CheckSingleSuffixDisjoint(tr)
			violExcl += len(analysis.CheckExcludedSegments(tr))
			violMono += len(analysis.CheckIndependentMonotonic(g, tr))
		}
		t.AddRow(fam.Name, itoa(g.N()), itoa(checked), itoa(viol314), f3(maxRatio),
			itoa(viol328), itoa(viol316), itoa(violSuffix), itoa(violExcl), itoa(violMono))
		if viol314+viol328+viol316+violSuffix+violExcl+violMono > 0 {
			return t, fmt.Errorf("E10 %s: structural violations (%d/%d/%d/%d/%d/%d)",
				fam.Name, viol314, viol328, viol316, violSuffix, violExcl, violMono)
		}
	}
	return t, nil
}
