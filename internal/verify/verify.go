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
//
// Every entry point takes H as the set of G's edge IDs it keeps (a
// core.Structure's Edges) and materializes it once as its own CSR
// subgraph.
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
	Faults []int // edge IDs (vertices in the vertex-failure model)
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
	// lemma (edge faults only).
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
	// Parallelism > 1 splits the fault-set enumeration of FTBFS and
	// VertexFTBFS across that many goroutines. The report's violations do
	// not depend on it.
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

// MaxExhaustiveFaultSets caps the work of an exhaustive f = 3 pass: the
// number of fault sets |F| ≤ 3 it would enumerate. Larger instances must
// use Sampled.
const MaxExhaustiveFaultSets = 5_000_000

// FTBFS exhaustively verifies that H, the subgraph of g formed by the edge
// IDs in h, is an f-failure FT-MBFS structure for the given sources. f
// must be 0, 1, 2 or 3 (f = 3 only up to MaxExhaustiveFaultSets fault
// sets).
func FTBFS(g *graph.Graph, h *graph.EdgeSet, sources []int, f int, opts *Options) Report {
	if f < 0 || f > 3 || (f == 3 && sched.NumFaultSets(g.M(), 3) > MaxExhaustiveFaultSets) {
		return refused()
	}
	return exhaustive(g, h, sources, f, false, opts)
}

// VertexFTBFS exhaustively verifies the vertex-failure model: for every
// vertex set V' with |V'| ≤ f that excludes the sources,
// dist(s, v, H \ V') = dist(s, v, G \ V') for all v ∉ V'. f must be ≤ 2.
func VertexFTBFS(g *graph.Graph, h *graph.EdgeSet, sources []int, f int, opts *Options) Report {
	if f < 0 || f > 2 {
		return refused()
	}
	return exhaustive(g, h, sources, f, true, opts)
}

// refused is the report for a fault budget the pass does not support.
func refused() Report {
	return Report{Violations: []Violation{{Source: -1, V: -1}}}
}

// exhaustive is the one engine behind FTBFS and VertexFTBFS. Per source,
// one fault-free BFS tree is built for G and one for H; comparing their
// tables checks F = ∅ and, when they agree, licenses both the pruning
// lemma and the pair checker's changed-set fast path. The nonempty fault
// sets — edge IDs, or vertices other than the sources — then fan out over
// sched.Run, grouped by smallest index, each worker checking them with its
// own checker. A worker stops once it holds the room left under
// MaxViolations; since a worker's claims ascend, the first counterexamples
// in enumeration order are among those collected, and sorting and
// truncating yields them at any worker count.
func exhaustive(g *graph.Graph, h *graph.EdgeSet, sources []int, f int, vertices bool, opts *Options) Report {
	rep := Report{OK: true}
	hg, gToH := g.SubgraphMapped(h)
	units := g.M()
	var isSource []bool
	if vertices {
		units = g.N()
		isSource = make([]bool, g.N())
		for _, s := range sources {
			isSource[s] = true
		}
	}
	if f == 0 {
		units = 0 // only the empty set
	}
	maxV := opts.maxViol()
	// One checker per worker slot, kept across sources.
	checkers := make([]checker, opts.workers())
	for _, s := range sources {
		b := newBase(g, hg, s)
		rep.FaultSetsChecked++
		if !b.eq {
			rep.OK = false
			compareTables(b.tg.Dists(), b.th.Dists(), func(v int, dh, dg int32) {
				if len(rep.Violations) < maxV {
					rep.Violations = append(rep.Violations, Violation{Source: s, V: v, GotH: dh, WantG: dg})
				}
			})
		}
		room := maxV - len(rep.Violations)
		if room == 0 {
			return rep
		}
		prune := !vertices && !opts.noPrune() && b.eq
		parts, err := sched.Run(opts.ctx(), len(checkers), units,
			func(wi int, next func() (int, int, bool)) (*tally, error) {
				if checkers[wi] == nil {
					checkers[wi] = newChecker(g, hg, gToH, vertices)
				}
				ck := checkers[wi]
				t := &tally{source: s, room: room}
				emit := t.emit // one callback per worker, not per fault set
				poll := cancel.New(opts.ctx(), cancel.PollEvery)
				var err error
				visit := func(faults []int) bool {
					if err = poll.Poll(); err != nil {
						return false
					}
					if vertices && slices.ContainsFunc(faults, func(x int) bool { return isSource[x] }) {
						return true
					}
					if prune && !h.IntersectsList(faults) {
						t.pruned++
						return true
					}
					t.checked++
					t.faults = faults
					ck.check(b, faults, emit)
					return len(t.found) < room
				}
				for lo, hi, ok := next(); ok; lo, hi, ok = next() {
					if !sched.FaultSets(lo, hi, units, f, visit) {
						break
					}
				}
				return t, err
			})
		var found []Violation
		for _, t := range parts {
			rep.FaultSetsChecked += t.checked
			rep.FaultSetsPruned += t.pruned
			found = append(found, t.found...)
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

// Sampled draws `trials` random fault sets of size ≤ f and checks each one
// for every source through the pair checker, against per-source fault-free
// trees; it supports any f ≥ 0 and is meant for instances too large for
// the exhaustive pass.
func Sampled(g *graph.Graph, h *graph.EdgeSet, sources []int, f int, trials int, seed int64, opts *Options) Report {
	rep := Report{}
	rng := rand.New(rand.NewSource(seed))
	hg, gToH := g.SubgraphMapped(h)
	pc := newPairChecker(g, hg, gToH)
	bases := make([]*base, len(sources))
	for i, s := range sources {
		bases[i] = newBase(g, hg, s)
	}
	t := &tally{room: opts.maxViol()}
	emit := t.emit
	m := g.M()
	poll := cancel.New(opts.ctx(), cancel.PollEvery)
draws:
	for range trials {
		if poll.Poll() != nil {
			rep.Interrupted = true
			break
		}
		k := min(rng.Intn(f+1), m)
		faults := make([]int, 0, k)
		for len(faults) < k {
			if id := rng.Intn(m); !slices.Contains(faults, id) {
				faults = append(faults, id)
			}
		}
		t.faults = faults
		for _, b := range bases {
			t.source = b.s
			rep.FaultSetsChecked++
			pc.check(b, faults, emit)
			if t.missed {
				break draws
			}
		}
	}
	rep.Violations = t.found
	rep.OK = !rep.Interrupted && len(t.found) == 0 && !t.missed
	return rep
}

// tally is one worker's share of a pass: its counts and the first room
// counterexamples it met.
type tally struct {
	checked, pruned int

	source int
	faults []int // the fault set being checked; cloned into violations
	room   int
	found  []Violation
	missed bool // a counterexample arrived with no room left
}

func (t *tally) emit(v int, dh, dg int32) {
	if len(t.found) >= t.room {
		t.missed = true
		return
	}
	t.found = append(t.found, Violation{
		Source: t.source,
		Faults: append([]int(nil), t.faults...),
		V:      v,
		GotH:   dh,
		WantG:  dg,
	})
}

// base is one source's fault-free state, shared read-only by every worker
// of a pass: the BFS trees of G and of H, and whether their distance
// tables agree.
type base struct {
	s      int
	tg, th *bfs.Tree
	eq     bool
}

func newBase(g, hg *graph.Graph, s int) *base {
	tg, th := bfs.NewTree(g, s), bfs.NewTree(hg, s)
	return &base{s: s, tg: tg, th: th, eq: slices.Equal(tg.Dists(), th.Dists())}
}

// A checker compares the distances from b's source in G \ F and H \ F for
// one fault set and calls emit for every vertex where they differ, in
// ascending vertex order. Each worker owns one.
type checker interface {
	check(b *base, faults []int, emit func(v int, dh, dg int32))
}

func newChecker(g, hg *graph.Graph, gToH []int32, vertices bool) checker {
	if vertices {
		return &vertexChecker{rg: bfs.NewRunner(g), rh: bfs.NewRunner(hg)}
	}
	return newPairChecker(g, hg, gToH)
}

// pairChecker checks edge fault sets through two incremental BFS
// repairers, one per side, each repairing against the source's shared
// fault-free tree of its side. When both sides report an incremental
// repair AND the fault-free tables were equal, only vertices in either
// changed set can differ — everything else still holds its base distance
// on both sides — so the comparison scans the merged changed sets instead
// of all of V. Candidates are sorted, so emitted mismatches arrive in the
// same ascending-vertex order as a full scan.
type pairChecker struct {
	gToH    []int32 // G edge ID → H edge ID, -1 when H omits the edge
	rg, rh  *bfs.Repairer
	scratch []int   // faults translated into H edge IDs
	cand    []int32 // merged changed-vertex candidates
}

func newPairChecker(g, hg *graph.Graph, gToH []int32) *pairChecker {
	return &pairChecker{gToH: gToH, rg: bfs.NewRepairer(g), rh: bfs.NewRepairer(hg)}
}

func (p *pairChecker) check(b *base, faults []int, emit func(v int, dh, dg int32)) {
	// Fault edges outside H translate to nothing: removing an absent edge
	// is a no-op.
	p.scratch = p.scratch[:0]
	for _, id := range faults {
		if sid := p.gToH[id]; sid >= 0 {
			p.scratch = append(p.scratch, int(sid))
		}
	}
	p.rg.RunFrom(b.tg, faults)
	p.rh.RunFrom(b.th, p.scratch)
	dg, dh := p.rg.Dists(), p.rh.Dists()
	chG, incG := p.rg.Changed()
	chH, incH := p.rh.Changed()
	if !b.eq || !incG || !incH {
		compareTables(dg, dh, emit)
		return
	}
	p.cand = append(append(p.cand[:0], chG...), chH...)
	slices.Sort(p.cand)
	p.cand = slices.Compact(p.cand)
	for _, v32 := range p.cand {
		if v := int(v32); dg[v] != dh[v] {
			emit(v, dh[v], dg[v])
		}
	}
}

// vertexChecker checks vertex fault sets with one masked BFS per side. H
// keeps G's vertex IDs, so the faults apply to both sides unchanged. A
// failed vertex is unreachable on both sides and never differs.
type vertexChecker struct {
	rg, rh *bfs.Runner
}

func (c *vertexChecker) check(b *base, faults []int, emit func(v int, dh, dg int32)) {
	c.rg.Run(b.s, nil, faults)
	c.rh.Run(b.s, nil, faults)
	compareTables(c.rg.Dists(), c.rh.Dists(), emit)
}

// compareTables calls emit for every vertex whose distances differ, in
// ascending order.
func compareTables(dg, dh []int32, emit func(v int, dh, dg int32)) {
	for v := range dg {
		if dg[v] != dh[v] {
			emit(v, dh[v], dg[v])
		}
	}
}
