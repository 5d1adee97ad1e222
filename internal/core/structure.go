// Package core implements the paper's fault-tolerant BFS structures: the
// dual-failure construction Cons2FTBFS (Theorem 1.1), the single-failure
// construction of Parter–Peleg [10] as a baseline, an exhaustive
// union-of-canonical-trees builder for any f (the generic last-edge closure,
// cf. Obs. 1.6), a full-path-union ablation, and multi-source composition.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/replace"
	"repro/internal/sched"
	"repro/internal/wsp"
)

// Structure is a fault-tolerant BFS structure: a subgraph of G given as an
// edge-ID set, together with its provenance.
type Structure struct {
	G       *graph.Graph
	Sources []int
	// Faults is the number of failures the structure is built to
	// tolerate.
	Faults int
	// VertexFaults marks structures built for the vertex-failure model
	// (BuildVertexExhaustive) rather than edge failures.
	VertexFaults bool
	// Edges marks the IDs of G's edges kept in the structure.
	Edges *graph.EdgeSet
	// Stats describes the construction effort and per-vertex size
	// distribution (see BuildStats).
	Stats BuildStats
	// Targets optionally retains the per-target computation artifacts
	// (Options.CollectPaths); indexed by vertex, nil entries for the
	// source and unreachable vertices.
	Targets []*replace.TargetResult

	disabledOnce sync.Once
	disabled     []int // memoized DisabledEdges result
}

// NumEdges returns the number of edges in the structure.
func (s *Structure) NumEdges() int { return s.Edges.Len() }

// Subgraph materializes the structure as a standalone graph (edge IDs are
// renumbered).
func (s *Structure) Subgraph() *graph.Graph { return s.G.Subgraph(s.Edges) }

// DisabledEdges returns the IDs of G's edges NOT in the structure, which is
// how verifiers and routers restrict searches to H. The slice is computed
// once and shared by every subsequent call (it is O(M) and sits on the
// verifier and router hot paths): callers must not mutate it, and must not
// call it before the structure's edge set is final. The cached slice has no
// spare capacity, so appending to it copies rather than clobbers.
func (s *Structure) DisabledEdges() []int {
	s.disabledOnce.Do(func() {
		out := make([]int, 0, s.G.M()-s.Edges.Len())
		for id := 0; id < s.G.M(); id++ {
			if !s.Edges.Has(id) {
				out = append(out, id)
			}
		}
		s.disabled = out
	})
	return s.disabled
}

// BuildStats aggregates construction counters.
type BuildStats struct {
	Dijkstras   int
	Fallbacks   int
	TieWarnings int
	// MaxNewEdges is max over v of |New(v)| (the paper bounds it by
	// O(n^{2/3}) for f = 2).
	MaxNewEdges int
	// MaxE1, MaxE2 are max over v of |E1(π)|, |E2(π)| new-edge counts
	// (the paper bounds both by O(√n)).
	MaxE1, MaxE2 int
	// NewEndingPiD is the total number of Step-3 new-ending paths.
	NewEndingPiD int
}

// Options configures the builders. The zero value is ready to use.
type Options struct {
	// Seed selects the tie-breaking weight assignment W; builders with
	// equal seeds are deterministic.
	Seed int64
	// CollectPaths retains every replacement path in Structure.Targets
	// (memory-heavy; analysis and tests only).
	CollectPaths bool
	// Parallelism > 1 splits the builder's independent work units across
	// that many goroutines — per-target replacement-path computations for
	// BuildDual/BuildSingle and multifail.Build, per-fault-set canonical
	// trees for BuildExhaustive/BuildVertexExhaustive — each goroutine
	// with its own search engine over one shared canonical tree under the
	// SAME weight assignment, so the result is identical to the sequential
	// build.
	Parallelism int
	// Ctx cancels the build: every builder polls it cooperatively at an
	// amortized cadence inside its enumeration loops (internal/cancel) and,
	// once cancelled, returns ctx.Err() and publishes NO partial
	// structure. nil means the build can never be cancelled. The context
	// does not alter the output: a completed build is bit-identical with
	// or without one.
	Ctx context.Context
	// Progress, when non-nil, receives live monotonic counters (work
	// units, Dijkstras, kept edges) the caller may Snapshot while the
	// build runs. It too never alters the output.
	Progress *Progress
	// totalScale / totalAnnounced coordinate the work-unit total across
	// composite builds (see AnnounceTotal): BuildMultiSource scales the
	// first per-source announcement to the whole composite and
	// suppresses the rest, so the live fraction never regresses at a
	// source boundary.
	totalScale     int
	totalAnnounced bool
}

// AnnounceTotal publishes a builder's work-unit total into the progress
// sink. Builders call this exactly once, instead of Progress.AddTotal,
// so multi-source composition can pre-announce the full composite total
// (per-source totals are source-independent for every per-source
// builder) and keep UnitsDone/UnitsTotal monotone.
func (o *Options) AnnounceTotal(n int64) {
	if o == nil {
		return
	}
	if o.totalAnnounced {
		return
	}
	if o.totalScale > 1 {
		n *= int64(o.totalScale)
	}
	o.Progress.AddTotal(n)
}

// Context resolves Options.Ctx (context.Background for nil options or an
// unset field).
func (o *Options) Context() context.Context {
	if o != nil && o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// ProgressSink resolves Options.Progress; a nil result is safe to publish
// into (all Progress methods accept nil receivers).
func (o *Options) ProgressSink() *Progress {
	if o == nil {
		return nil
	}
	return o.Progress
}

// Workers resolves Options.Parallelism to a goroutine count (1 for nil
// options or Parallelism ≤ 1). Builders outside this package fan out with
// the same rule.
func (o *Options) Workers() int {
	if o != nil && o.Parallelism > 1 {
		return o.Parallelism
	}
	return 1
}

func (o *Options) seed() int64 {
	if o == nil {
		return 1
	}
	return o.Seed + 1 // keep seed 0 distinct from "no options"
}

func (o *Options) collect() bool { return o != nil && o.CollectPaths }

// BuildDual constructs the dual-failure FT-BFS structure of Theorem 1.1 for
// source s: H = T0 ∪ ⋃_v H(v) where H(v) holds the last edges of the
// replacement paths selected by Algorithm Cons2FTBFS.
func BuildDual(g *graph.Graph, s int, opts *Options) (*Structure, error) {
	return buildWithEngine(g, s, opts, 2, func(eng *replace.Engine, v int, collect bool) *replace.TargetResult {
		return eng.BuildTarget(v, collect)
	})
}

// BuildSingle constructs the single-failure FT-BFS structure of [10]:
// T0 plus the last edge of every single-failure replacement path. Its size
// is O(n^{3/2}).
func BuildSingle(g *graph.Graph, s int, opts *Options) (*Structure, error) {
	return buildWithEngine(g, s, opts, 1, func(eng *replace.Engine, v int, collect bool) *replace.TargetResult {
		return eng.BuildTargetSingle(v, collect)
	})
}

func buildWithEngine(g *graph.Graph, s int, opts *Options, faults int,
	build func(*replace.Engine, int, bool) *replace.TargetResult) (*Structure, error) {
	if s < 0 || s >= g.N() {
		return nil, fmt.Errorf("core: source %d out of range [0,%d)", s, g.N())
	}
	prog := opts.ProgressSink()
	t0 := time.Now()
	tree := wsp.NewTree(g, wsp.NewAssignment(g.M(), opts.seed()), s)
	prog.AddPhaseNS(PhaseBase, time.Since(t0).Nanoseconds())
	// Credit the base search immediately: a build cancelled before its
	// first target still reports the work it actually did.
	prog.AddDijkstras(1)
	opts.AnnounceTotal(int64(g.N()))
	st := &Structure{G: g, Sources: []int{s}, Faults: faults}
	// T0's search and its ties are counted once, here where it is built.
	st.Stats.Dijkstras, st.Stats.TieWarnings = 1, tree.Ties()
	collect := opts.collect()
	if collect {
		st.Targets = make([]*replace.TargetResult, g.N())
	}
	// Targets are independent: each worker folds the targets it claims
	// into a private partial seeded with T0, through its own engine over
	// the one shared tree.
	parts, err := sched.Run(opts.Context(), opts.Workers(), g.N(),
		func(wi int, next func() (int, int, bool)) (partial, error) {
			e := replace.NewEngine(tree)
			part := partial{edges: graph.NewEdgeSet(g.M())}
			for _, id := range e.TreeEdges() {
				part.edges.Add(id)
			}
			if wi == 0 {
				prog.AddEdges(int64(part.edges.Len()))
			}
			poll := cancel.New(opts.Context(), 1) // each target pays several searches; check per target
			prevD := 0
			tEv := time.Now()
			for lo, hi, ok := next(); ok; lo, hi, ok = next() {
				for v := lo; v < hi; v++ {
					if err := poll.Poll(); err != nil {
						return partial{}, err
					}
					n0 := part.edges.Len()
					part.fold(build(e, v, collect), st.Targets)
					prog.AddUnits(1)
					prog.AddEdges(int64(part.edges.Len() - n0))
					if prog != nil {
						d := e.Stats().Dijkstras
						prog.AddDijkstras(int64(d - prevD))
						prevD = d
					}
				}
			}
			prog.AddPhaseNS(PhaseEvents, time.Since(tEv).Nanoseconds())
			es := e.Stats()
			part.stats.Dijkstras = es.Dijkstras
			part.stats.Fallbacks = es.Fallbacks
			part.stats.TieWarnings = es.TieWarnings
			return part, nil
		})
	if err != nil {
		return nil, err
	}
	st.union(parts, prog)
	return st, nil
}

// partial is one worker's share of a build: the edges it kept and its
// counters.
type partial struct {
	edges *graph.EdgeSet
	stats BuildStats
}

// union merges the workers' partials into st: edges unioned, counters
// merged. The partials are consumed.
func (st *Structure) union(parts []partial, prog *Progress) {
	tU := time.Now()
	st.Edges = parts[0].edges
	for i := range parts {
		if i > 0 {
			st.Edges.Union(parts[i].edges)
		}
		st.Stats.merge(&parts[i].stats)
	}
	prog.AddPhaseNS(PhaseUnion, time.Since(tU).Nanoseconds())
}

// fold merges one target's contribution into the partial, and records
// the target in targets when the build collects them.
func (p *partial) fold(tr *replace.TargetResult, targets []*replace.TargetResult) {
	if tr == nil {
		return
	}
	for _, id := range tr.HEdges {
		p.edges.Add(id)
	}
	p.stats.MaxNewEdges = max(p.stats.MaxNewEdges, len(tr.NewEdges))
	p.stats.MaxE1 = max(p.stats.MaxE1, tr.E1Count)
	p.stats.MaxE2 = max(p.stats.MaxE2, tr.E2Count)
	p.stats.NewEndingPiD += tr.NewEndingPiD
	if targets != nil {
		targets[tr.V] = tr
	}
}

// BuildFullPaths is the no-sparsification ablation: it runs the same
// replacement-path selection as BuildDual but keeps EVERY edge of every
// selected path instead of only last edges. Always a superset of the
// BuildDual structure with the same seed.
func BuildFullPaths(g *graph.Graph, s int, opts *Options) (*Structure, error) {
	forced := Options{}
	if opts != nil {
		forced = *opts // incl. ctx/progress and composition flags
	}
	forced.CollectPaths = true
	// This builder is two passes over the targets — the dual build, then
	// the path-closure walk — so announce 2n units up front (through
	// opts, honoring multi-source scale/suppression) and suppress the
	// inner BuildDual announcement: the live fraction stays monotone and
	// only reaches 1 when the closure pass finishes.
	opts.AnnounceTotal(2 * int64(g.N()))
	forced.totalAnnounced = true
	st, err := BuildDual(g, s, &forced)
	if err != nil {
		return nil, err
	}
	prog := opts.ProgressSink()
	poll := cancel.New(opts.Context(), cancel.PollEvery)
	for _, tr := range st.Targets {
		if tr == nil {
			prog.AddUnits(1)
			continue
		}
		if err := poll.Poll(); err != nil {
			return nil, err
		}
		n0 := st.Edges.Len()
		for _, rec := range tr.Records {
			for _, ge := range rec.Path.Edges() {
				if id, ok := g.EdgeID(ge.U, ge.V); ok {
					st.Edges.Add(id)
				}
			}
		}
		prog.AddUnits(1)
		prog.AddEdges(int64(st.Edges.Len() - n0))
	}
	if opts == nil || !opts.CollectPaths {
		st.Targets = nil
	}
	return st, nil
}

// BuildExhaustive constructs an f-failure FT-BFS structure for ANY f ≥ 0 as
// the union of the canonical shortest-path trees of G \ F over every fault
// set |F| ≤ f. This is the generic last-edge closure: each tree is exactly
// {LastE(SP(s,v,G\F,W)) : v ∈ V}, so the union is a valid f-FT-BFS
// structure, with size O(D_f(G)^f · n) on small-FT-diameter graphs
// (Obs. 1.6). Cost: C(m,f) Dijkstras — use only on small instances for
// f ≥ 2.
func BuildExhaustive(g *graph.Graph, s int, f int, opts *Options) (*Structure, error) {
	if s < 0 || s >= g.N() {
		return nil, fmt.Errorf("core: source %d out of range [0,%d)", s, g.N())
	}
	if f < 0 || f > 3 {
		return nil, fmt.Errorf("core: exhaustive builder supports 0 ≤ f ≤ 3, got %d", f)
	}
	st := &Structure{G: g, Sources: []int{s}, Faults: f}
	opts.AnnounceTotal(sched.NumFaultSets(g.M(), f))
	if err := unionTrees(st, opts, f, -1); err != nil {
		return nil, err
	}
	return st, nil
}

// unionTrees unions the canonical shortest-path trees of G \ F from
// st.Sources[0] over every fault set |F| ≤ f — edge sets, or vertex sets
// when st.VertexFaults — that avoids the index skip (-1 for none), into
// st.Edges, and sums their counters into st.Stats. The fault sets are
// enumerated by sched.FaultSets over the smallest indices each worker
// claims from sched.Run: repair makes per-fault-set cost wildly uneven
// (a detached subtree's volume, not n), so idle workers steal ranges
// rather than wait out a slow stripe. Any claim partition yields the same
// union: every tree is deterministic under W.
//
// The canonical tree T0 is built once and shared: each worker repairs
// against it through a private search and folds into a private edge
// accumulator. The search is pinned bit-identical to a from-scratch run
// (wsp.RepairSearch); when a run reports an incremental changed set, only
// those vertices' tree edges can differ from T0, so extraction walks the
// changed set instead of all of V. T0 itself enters through worker 0's
// faults == nil tree, which (like any fallback run) extracts over all
// vertices.
//
// Counters: every fault set, the empty one included, is one Dijkstra, and
// TieWarnings counts what the workers' repairs and fallback runs observe.
// T0's own search is not counted: the empty set's run is a no-op repair
// of it.
//
// Cancellation: every worker polls opts.Ctx every cancel.PollEvery trees.
// A cancelled enumeration makes unionTrees return ctx.Err() WITHOUT
// setting st's edge set — callers discard st, so no partial structure
// escapes.
func unionTrees(st *Structure, opts *Options, f, skip int) error {
	prog := opts.ProgressSink()
	g, s := st.G, st.Sources[0]
	n := g.M()
	if st.VertexFaults {
		n = g.N()
	}
	units := n // smallest fault indices; f = 0 has only the empty set
	if f == 0 {
		units = 0
	}
	t0 := time.Now()
	tree := wsp.NewTree(g, wsp.NewAssignment(g.M(), opts.seed()), s)
	prog.AddPhaseNS(PhaseBase, time.Since(t0).Nanoseconds())
	parts, err := sched.Run(opts.Context(), opts.Workers(), units,
		func(wi int, next func() (int, int, bool)) (partial, error) {
			search := wsp.NewRepairSearch(tree)
			part := partial{edges: graph.NewEdgeSet(g.M())}
			poll := cancel.New(opts.Context(), cancel.PollEvery)
			var err error
			addTree := func(faults []int) bool {
				if skip >= 0 && slices.Contains(faults, skip) {
					return true
				}
				if err = poll.Poll(); err != nil {
					return false
				}
				o := wsp.Options{Target: -1}
				if st.VertexFaults {
					o.DisabledVertices = faults
				} else {
					o.DisabledEdges = faults
				}
				search.Run(s, o)
				part.stats.Dijkstras++
				n0 := part.edges.Len()
				if changed, incremental := search.Changed(); incremental && faults != nil {
					// Only the repaired region's tree edges can differ
					// from the base tree (already in via worker 0's
					// faults == nil call below).
					for _, v := range changed {
						if id := search.ParentEdgeOf(int(v)); id >= 0 {
							part.edges.Add(id)
						}
					}
				} else {
					for v := 0; v < g.N(); v++ {
						if id := search.ParentEdgeOf(v); id >= 0 {
							part.edges.Add(id)
						}
					}
				}
				prog.AddUnits(1)
				prog.AddDijkstras(1)
				prog.AddEdges(int64(part.edges.Len() - n0))
				return true
			}
			tEv := time.Now()
			if wi == 0 && !addTree(nil) {
				return part, err
			}
			for lo, hi, ok := next(); ok; lo, hi, ok = next() {
				if !sched.FaultSets(lo, hi, n, f, addTree) {
					return part, err
				}
			}
			prog.AddPhaseNS(PhaseEvents, time.Since(tEv).Nanoseconds())
			part.stats.TieWarnings = search.TieWarnings()
			return part, nil
		})
	if err != nil {
		return err
	}
	st.union(parts, prog)
	return nil
}

// BuildMultiSource composes per-source structures into an FT-MBFS structure
// for the given source set by unioning their edge sets. build is invoked
// once per source (e.g. BuildDual).
func BuildMultiSource(g *graph.Graph, sources []int, opts *Options,
	build func(*graph.Graph, int, *Options) (*Structure, error)) (*Structure, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: empty source set")
	}
	uniq := append([]int(nil), sources...)
	sort.Ints(uniq)
	k := 1
	for i := 1; i < len(uniq); i++ {
		if uniq[i] != uniq[i-1] {
			k++
		}
	}
	ctx := opts.Context()
	out := &Structure{G: g, Edges: graph.NewEdgeSet(g.M())}
	first := true
	for i, s := range uniq {
		if i > 0 && s == uniq[i-1] {
			continue
		}
		// The per-source build polls ctx inside its own loops; this check
		// only keeps a cancelled multi-source build from starting the next
		// source. Return the bare ctx.Err() so callers can errors.Is it.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Per-source totals are source-independent, so the first source's
		// AnnounceTotal publishes k× its own total and the rest announce
		// nothing — the composite's fraction stays monotone.
		var so Options
		if opts != nil {
			so = *opts
		}
		if first {
			so.totalScale = k
			first = false
		} else {
			so.totalAnnounced = true
		}
		st, err := build(g, s, &so)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("core: source %d: %w", s, err)
		}
		out.Edges.Union(st.Edges)
		out.Sources = append(out.Sources, s)
		out.Faults = st.Faults
		out.Stats.merge(&st.Stats)
	}
	return out, nil
}

// merge folds another build's counters into s: totals are summed,
// per-vertex maxima are maxed. Used by multi-source composition so the
// aggregate reports every BuildStats field, not a subset.
func (s *BuildStats) merge(o *BuildStats) {
	s.Dijkstras += o.Dijkstras
	s.Fallbacks += o.Fallbacks
	s.TieWarnings += o.TieWarnings
	s.NewEndingPiD += o.NewEndingPiD
	s.MaxNewEdges = max(s.MaxNewEdges, o.MaxNewEdges)
	s.MaxE1 = max(s.MaxE1, o.MaxE1)
	s.MaxE2 = max(s.MaxE2, o.MaxE2)
}
