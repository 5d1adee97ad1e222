// Package verify checks fault-tolerant BFS structures against their
// definition: H ⊆ G is an f-failure FT-MBFS structure for sources S iff
// dist(s, v, H \ F) = dist(s, v, G \ F) for every s ∈ S, v ∈ V and every
// fault set F ⊆ E with |F| ≤ f.
//
// For f ≤ 3 the check is exhaustive. A pruning lemma cuts the work
// dramatically: once fault-free distances are verified, any F disjoint from
// H satisfies dist(s,v,H\F) = dist(s,v,H) = dist(s,v,G) ≤ dist(s,v,G\F) ≤
// dist(s,v,H\F), so all four quantities coincide and F need not be checked.
// Only fault sets intersecting H are enumerated. Full (unpruned)
// enumeration is available for cross-validation, as is a sampled mode for
// larger f or graphs.
package verify

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/bfs"
	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Violation is one counterexample: a source, fault set and target whose
// distance in H \ F exceeds the distance in G \ F.
type Violation struct {
	Source int
	Faults []int // edge IDs
	V      int
	GotH   int32 // dist(s, v, H \ F); -1 = unreachable
	WantG  int32 // dist(s, v, G \ F)
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("source %d, faults %v, target %d: dist_H=%d dist_G=%d",
		v.Source, v.Faults, v.V, v.GotH, v.WantG)
}

// Report is the outcome of a verification pass.
type Report struct {
	OK bool
	// Violations holds up to MaxViolations counterexamples: the first ones
	// in enumeration order (sources as given, then fault sets in
	// lexicographic order, then targets ascending), whatever the
	// Parallelism.
	Violations []Violation
	// FaultSetsChecked counts the fault sets actually compared (after
	// pruning, when enabled). Like FaultSetsPruned it is exact only for a
	// pass that runs to completion: a pass stopped by MaxViolations or
	// Ctx counts what its workers reached, which depends on scheduling.
	FaultSetsChecked int
	// FaultSetsPruned counts fault sets skipped by the disjointness
	// lemma.
	FaultSetsPruned int
	// Interrupted reports that Options.Ctx was cancelled before the pass
	// finished: the counts cover only the fault sets reached, nothing was
	// proven about the rest, and OK is therefore false.
	Interrupted bool
}

// Options tunes a verification pass. The zero value gives an exhaustive,
// pruned check collecting at most 8 violations.
type Options struct {
	// NoPrune disables the F ∩ H = ∅ pruning (for cross-validation).
	NoPrune bool
	// MaxViolations caps collected counterexamples (0 means 8); the scan
	// stops early when reached.
	MaxViolations int
	// Parallelism > 1 splits the fault-set enumeration of FTBFS across
	// that many goroutines. The report's violations do not depend on it.
	Parallelism int
	// Ctx cancels the pass cooperatively (SIGINT / -timeout in
	// ftbfsverify): the enumeration polls it at an amortized cadence and
	// returns early with Report.Interrupted set. nil never cancels.
	Ctx context.Context
}

func (o *Options) ctx() context.Context {
	if o != nil && o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o *Options) workers() int {
	if o == nil || o.Parallelism < 2 {
		return 1
	}
	return o.Parallelism
}

func (o *Options) maxViol() int {
	if o == nil || o.MaxViolations == 0 {
		return 8
	}
	return o.MaxViolations
}

func (o *Options) noPrune() bool { return o != nil && o.NoPrune }

// structureEdges is the minimal view of a structure the verifier needs.
type structureEdges interface {
	DisabledEdges() []int
}

// hView is the H side of every comparison, materialized once: instead of
// re-stamping the |E(G)| - |H| disabled edges into a mask for every single
// fault set, H is frozen into its own CSR subgraph (vertex IDs preserved,
// edge IDs renumbered) and per-check faults are translated through the
// G→H edge map, exactly as the query oracle does. Fault edges outside H
// translate to nothing — removing an absent edge is a no-op.
type hView struct {
	sub    *graph.Graph
	gToSub []int32
}

func newHView(g *graph.Graph, offH []int) *hView {
	keep := graph.NewEdgeSet(g.M())
	for id := 0; id < g.M(); id++ {
		keep.Add(id)
	}
	for _, id := range offH {
		keep.Remove(id)
	}
	sub, gToSub := g.SubgraphMapped(keep)
	return &hView{sub: sub, gToSub: gToSub}
}

// hRunner is a per-goroutine scratch over a shared hView.
type hRunner struct {
	view    *hView
	runner  *bfs.Runner
	scratch []int
}

func (h *hView) newRunner() *hRunner {
	return &hRunner{view: h, runner: bfs.NewRunner(h.sub)}
}

// run executes the H-side BFS for one fault set (G edge IDs) and returns
// the H distance table (owned by the runner, valid until the next run).
func (h *hRunner) run(s int, faults []int) []int32 {
	h.scratch = h.scratch[:0]
	for _, id := range faults {
		if sid := h.view.gToSub[id]; sid >= 0 {
			h.scratch = append(h.scratch, int(sid))
		}
	}
	h.runner.Run(s, h.scratch, nil)
	return h.runner.Dists()
}

// pairChecker compares the distance tables of G \ F and H \ F through two
// incremental BFS repairers, one per side, each repairing against the
// source's shared fault-free tree of its side. When both sides report an
// incremental repair AND the fault-free tables were equal, only vertices
// in either changed set can differ — everything else still holds its base
// distance on both sides — so the comparison scans the merged changed sets
// instead of all of V. Candidates are sorted, so emitted mismatches arrive
// in the same ascending-vertex order as a full scan.
type pairChecker struct {
	view    *hView
	rg, rh  *bfs.Repairer
	scratch []int   // faults translated into H edge IDs
	cand    []int32 // merged changed-vertex candidates
}

func newPairChecker(g *graph.Graph, hv *hView) *pairChecker {
	return &pairChecker{view: hv, rg: bfs.NewRepairer(g), rh: bfs.NewRepairer(hv.sub)}
}

// check runs both sides for one nonempty fault set (G edge IDs) against
// the source's trees tg (over G) and th (over H), and calls emit for every
// vertex whose distances disagree, in ascending vertex order. baseEq
// reports whether the trees' tables are equal, which licenses the
// changed-set fast path. Returns true when the tables matched.
func (p *pairChecker) check(tg, th *bfs.Tree, baseEq bool, faults []int, emit func(v int, dh, dg int32)) bool {
	p.scratch = p.scratch[:0]
	for _, id := range faults {
		if sid := p.view.gToSub[id]; sid >= 0 {
			p.scratch = append(p.scratch, int(sid))
		}
	}
	p.rg.RunFrom(tg, faults)
	p.rh.RunFrom(th, p.scratch)
	dg, dh := p.rg.Dists(), p.rh.Dists()
	chG, incG := p.rg.Changed()
	chH, incH := p.rh.Changed()
	if baseEq && incG && incH {
		p.cand = append(append(p.cand[:0], chG...), chH...)
		slices.Sort(p.cand)
		p.cand = slices.Compact(p.cand)
		ok := true
		for _, v32 := range p.cand {
			if v := int(v32); dg[v] != dh[v] {
				ok = false
				emit(v, dh[v], dg[v])
			}
		}
		return ok
	}
	return compareTables(dg, dh, emit)
}

// compareTables calls emit for every vertex whose distances differ, in
// ascending order, and reports whether none did.
func compareTables(dg, dh []int32, emit func(v int, dh, dg int32)) bool {
	ok := true
	for v := range dg {
		if dg[v] != dh[v] {
			ok = false
			emit(v, dh[v], dg[v])
		}
	}
	return ok
}

// MaxExhaustiveFaultSets caps the work of an exhaustive f = 3 pass: the
// number of fault sets |F| ≤ 3 it would enumerate. Larger instances must
// use Sampled.
const MaxExhaustiveFaultSets = 5_000_000

// FTBFS exhaustively verifies that the subgraph of g formed by removing
// offH (the edge IDs NOT in H) is an f-failure FT-MBFS structure for the
// given sources. f must be 0, 1, 2 or 3 (f = 3 only up to
// MaxExhaustiveFaultSets fault sets).
//
// Per source, one fault-free BFS tree is built for G and one for H; every
// worker's pair checker repairs against both. Comparing their tables is
// the fault-free pass: it verifies F = ∅, licenses the pruning lemma, and
// licenses every worker's changed-set fast path. The nonempty fault sets
// then fan out over sched.Run, grouped by smallest edge ID. Each worker
// stops once it holds the room left under
// MaxViolations; since a worker's claims ascend, the first counterexamples
// in enumeration order are among those collected, and sorting and
// truncating yields them at any worker count.
func FTBFS(g *graph.Graph, offH []int, sources []int, f int, opts *Options) Report {
	rep := Report{OK: true}
	m := g.M()
	if f < 0 || f > 3 || (f == 3 && sched.NumFaultSets(m, 3) > MaxExhaustiveFaultSets) {
		rep.OK = false
		rep.Violations = append(rep.Violations, Violation{Source: -1, V: -1})
		return rep
	}
	inH := make([]bool, m)
	for i := range inH {
		inH[i] = true
	}
	for _, id := range offH {
		inH[id] = false
	}
	hv := newHView(g, offH)
	maxV := opts.maxViol()
	units := m // smallest fault edge IDs; f = 0 has only the empty set
	if f == 0 {
		units = 0
	}
	// One pair checker per worker slot, kept across sources.
	pcs := make([]*pairChecker, opts.workers())
	type partial struct {
		violations      []Violation
		checked, pruned int
	}
	for _, s := range sources {
		tg, th := bfs.NewTree(g, s), bfs.NewTree(hv.sub, s)
		rep.FaultSetsChecked++
		baseEq := compareTables(tg.Dists(), th.Dists(), func(v int, dh, dg int32) {
			rep.OK = false
			if len(rep.Violations) < maxV {
				rep.Violations = append(rep.Violations, Violation{Source: s, V: v, GotH: dh, WantG: dg})
			}
		})
		room := maxV - len(rep.Violations)
		if room == 0 {
			return rep
		}
		prune := !opts.noPrune() && baseEq
		parts, err := sched.Run(opts.ctx(), len(pcs), units,
			func(wi int, next func() (int, int, bool)) (partial, error) {
				if pcs[wi] == nil {
					pcs[wi] = newPairChecker(g, hv)
				}
				pc := pcs[wi]
				poll := cancel.New(opts.ctx(), cancel.PollEvery)
				var part partial
				var err error
				visit := func(faults []int) bool {
					if err = poll.Poll(); err != nil {
						return false
					}
					if prune {
						off := true
						for _, id := range faults {
							if inH[id] {
								off = false
								break
							}
						}
						if off {
							part.pruned++
							return true
						}
					}
					part.checked++
					pc.check(tg, th, baseEq, faults, func(v int, dh, dg int32) {
						if len(part.violations) < room {
							part.violations = append(part.violations, Violation{
								Source: s,
								Faults: slices.Clone(faults),
								V:      v,
								GotH:   dh,
								WantG:  dg,
							})
						}
					})
					return len(part.violations) < room
				}
				for lo, hi, ok := next(); ok; lo, hi, ok = next() {
					if !sched.FaultSets(lo, hi, m, f, visit) {
						break
					}
				}
				return part, err
			})
		var found []Violation
		for _, part := range parts {
			rep.FaultSetsChecked += part.checked
			rep.FaultSetsPruned += part.pruned
			found = append(found, part.violations...)
		}
		slices.SortFunc(found, func(a, b Violation) int {
			if c := slices.Compare(a.Faults, b.Faults); c != 0 {
				return c
			}
			return cmp.Compare(a.V, b.V)
		})
		rep.Violations = append(rep.Violations, found[:min(len(found), room)]...)
		if len(found) > 0 {
			rep.OK = false
		}
		if err != nil {
			rep.Interrupted = true
			rep.OK = false
			return rep
		}
		if len(rep.Violations) == maxV {
			return rep
		}
	}
	return rep
}

// Structure verifies a structure exposing DisabledEdges (e.g.
// core.Structure) for the given sources and f.
func Structure(g *graph.Graph, st structureEdges, sources []int, f int, opts *Options) Report {
	return FTBFS(g, st.DisabledEdges(), sources, f, opts)
}

// Sampled draws `trials` random fault sets of size ≤ f and compares
// distances; it supports any f ≥ 0 and is meant for instances too large for
// the exhaustive pass.
func Sampled(g *graph.Graph, offH []int, sources []int, f int, trials int, seed int64, opts *Options) Report {
	rep := Report{OK: true}
	rng := rand.New(rand.NewSource(seed))
	rg := bfs.NewRunner(g)
	rh := newHView(g, offH).newRunner()
	maxV := opts.maxViol()
	m := g.M()
	poll := cancel.New(opts.ctx(), cancel.PollEvery)
	for t := 0; t < trials; t++ {
		if poll.Poll() != nil {
			rep.Interrupted = true
			rep.OK = false
			return rep
		}
		k := rng.Intn(f + 1)
		faults := make([]int, 0, k)
		seen := make(map[int]bool, k)
		for len(faults) < k {
			id := rng.Intn(m)
			if !seen[id] {
				seen[id] = true
				faults = append(faults, id)
			}
		}
		for _, s := range sources {
			rg.Run(s, faults, nil)
			dh := rh.run(s, faults)
			rep.FaultSetsChecked++
			dg := rg.Dists()
			for v := 0; v < g.N(); v++ {
				if dg[v] != dh[v] {
					rep.OK = false
					if len(rep.Violations) < maxV {
						rep.Violations = append(rep.Violations, Violation{
							Source: s,
							Faults: append([]int(nil), faults...),
							V:      v,
							GotH:   dh[v],
							WantG:  dg[v],
						})
					} else {
						return rep
					}
				}
			}
		}
	}
	return rep
}
