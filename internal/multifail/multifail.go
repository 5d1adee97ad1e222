// Package multifail realizes the paper's "Beyond two faults" program
// (Section 2's closing discussion): the natural generalized f-FT-BFS
// structure containing, for every target, the last edges of all
// replacement paths avoiding up to f edge faults — with the fault sets
// enumerated along the *relevant-fault tree* rather than over all C(m,f)
// subsets.
//
// The relevant-fault tree for a target v: level 1 holds the faults on
// π(s,v); below a fault set F, the children extend F by one edge of the
// chosen replacement path P(s,v,F) (the paper's D^1, D^2, ... detour
// hierarchy is exactly the new part of those paths). A peeling argument —
// the same deepest-missing-edge induction as Lemma 3.2 — shows collecting
// one last edge per relevant fault set suffices: for an arbitrary F with
// |F| ≤ f, repeatedly pick a failed edge lying on the current chosen path;
// either the path avoids the rest of F (done) or the extended fault set is
// itself relevant.
//
// The structure generalizes core.BuildDual (f = 2, without the
// divergence-point selection rules, which only matter for the size
// analysis) and is exponentially cheaper than core.BuildExhaustive for
// f ≥ 2 on sparse graphs: O(Σ_v depth(v)^f) searches instead of O(m^f).
package multifail

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/wsp"
)

// MaxSearches bounds the total number of shortest-path computations one
// Build call may spend; the relevant tree grows as depth^f.
const MaxSearches = 4_000_000

// Build constructs an f-failure FT-BFS structure (any f ≥ 0) for source s
// by relevant-fault-tree enumeration. Options carry the tie-breaking seed
// and Parallelism: targets are independent, so their relevant trees are
// expanded by that many goroutines with private search engines over the
// shared weight assignment (the search budget stays global), and the
// resulting structure is identical to the sequential build. Options.Ctx
// cancels the enumeration cooperatively (Build then returns ctx.Err() and
// no structure) and Options.Progress receives live counters — one work
// unit per completed target, one Dijkstra per relevant fault set.
func Build(g *graph.Graph, s int, f int, opts *core.Options) (*core.Structure, error) {
	if s < 0 || s >= g.N() {
		return nil, fmt.Errorf("multifail: source %d out of range [0,%d)", s, g.N())
	}
	if f < 0 {
		return nil, fmt.Errorf("multifail: negative fault budget %d", f)
	}
	var seed int64 = 1
	if opts != nil {
		seed = opts.Seed + 1
	}
	prog := opts.ProgressSink()
	w := wsp.NewAssignment(g.M(), seed)
	// Work units are targets; the per-target relevant-tree size is not
	// known up front, so Dijkstras is the finer-grained live counter.
	opts.AnnounceTotal(int64(max(0, g.N()-1)))
	// Targets are claimed in contiguous ranges from sched.Run's
	// work-stealing pool — per-target relevant-tree sizes vary by orders
	// of magnitude, so static stripes straggle.
	var searches atomic.Int64 // global budget shared by every worker
	type partial struct {
		edges *graph.EdgeSet
		ties  int
	}
	parts, err := sched.Run(opts.Context(), opts.Workers(), g.N(),
		func(_ int, next func() (int, int, bool)) (partial, error) {
			t0 := time.Now()
			// The repair search reuses the base tree across the fault
			// sets of every target; runs are bit-identical to
			// from-scratch searches, and its base-run tie count is
			// baselined away so the parallel sum matches sequential.
			search := wsp.NewRepairSearch(g, w, s)
			baseTies := search.TieWarnings()
			prog.AddPhaseNS(core.PhaseBase, time.Since(t0).Nanoseconds())
			b := &builder{
				g:        g,
				s:        s,
				f:        f,
				search:   search,
				edges:    graph.NewEdgeSet(g.M()),
				searches: &searches,
				poll:     cancel.New(opts.Context(), cancel.PollEvery),
				prog:     prog,
			}
			tEv := time.Now()
			for lo, hi, ok := next(); ok; lo, hi, ok = next() {
				for v := lo; v < hi; v++ {
					if v == s {
						continue
					}
					b.seen = make(map[string]bool)
					if err := b.expand(v, nil); err != nil {
						return partial{}, err
					}
					prog.AddUnits(1)
				}
			}
			prog.AddPhaseNS(core.PhaseEvents, time.Since(tEv).Nanoseconds())
			return partial{b.edges, search.TieWarnings() - baseTies}, nil
		})
	// Cancellation wins over whatever else the workers hit: the build is
	// cancelled, not failed, and no partial structure is published.
	if err != nil {
		return nil, err
	}
	tU := time.Now()
	st := &core.Structure{G: g, Sources: []int{s}, Faults: f, Edges: parts[0].edges}
	for i := range parts {
		if i > 0 {
			st.Edges.Union(parts[i].edges)
		}
		st.Stats.TieWarnings += parts[i].ties
	}
	st.Stats.Dijkstras = int(searches.Load())
	prog.AddPhaseNS(core.PhaseUnion, time.Since(tU).Nanoseconds())
	return st, nil
}

type builder struct {
	g        *graph.Graph
	s, f     int
	search   *wsp.RepairSearch
	edges    *graph.EdgeSet  // this worker's last-edge accumulator
	searches *atomic.Int64   // Build-wide search counter against MaxSearches
	seen     map[string]bool // canonical fault-set keys already expanded (per target)
	poll     *cancel.Poller  // amortized cancellation check, one per worker
	prog     *core.Progress  // live counters (nil-safe)
}

// key canonicalizes a fault set (order-independent).
func key(faults []int) string {
	s := append([]int(nil), faults...)
	sort.Ints(s)
	buf := make([]byte, 0, 4*len(s))
	for _, id := range s {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(buf)
}

// expand computes the canonical replacement path for (v, faults), records
// its last edge, and recurses on the path's edges while budget remains.
func (b *builder) expand(v int, faults []int) error {
	k := key(faults)
	if b.seen[k] {
		return nil
	}
	b.seen[k] = true
	if err := b.poll.Poll(); err != nil {
		return err
	}
	if b.searches.Add(1) > MaxSearches {
		return fmt.Errorf("multifail: search budget %d exhausted (f=%d too deep for this graph)",
			MaxSearches, b.f)
	}
	b.search.Run(b.s, wsp.Options{Target: v, DisabledEdges: faults})
	b.prog.AddDijkstras(1)
	if !b.search.Reachable(v) {
		return nil // disconnected under F: no requirement
	}
	p := b.search.PathTo(v)
	if id := b.search.ParentEdgeOf(v); id >= 0 && !b.edges.Has(id) {
		b.edges.Add(id)
		b.prog.AddEdges(1)
	}
	if len(faults) >= b.f {
		return nil
	}
	// Children: extend the fault set by each edge of the chosen path.
	ids := make([]int, 0, p.Len())
	for i := 0; i+1 < len(p); i++ {
		id, ok := b.g.EdgeID(p[i], p[i+1])
		if !ok {
			return fmt.Errorf("multifail: path edge (%d,%d) missing", p[i], p[i+1])
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		child := append(append(make([]int, 0, len(faults)+1), faults...), id)
		if err := b.expand(v, child); err != nil {
			return err
		}
	}
	return nil
}
