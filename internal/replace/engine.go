// Package replace implements the replacement-path engine behind Algorithm
// Cons2FTBFS (Section 3 of the paper): single-failure replacement paths with
// the earliest-π-divergence rule (Step 1, Eq. 3), (π,π) dual-failure paths
// with the detour-composition preference (Step 2), and (π,D) dual-failure
// paths processed in the decreasing fault order with the G(u_k,v) / GD(w_ℓ)
// restricted-graph selection rules (Step 3, Eq. 4).
//
// The engine is exact about correctness (every produced path is a shortest
// path of the right fault-restricted subgraph; this is what the verifier
// checks globally) and best-effort about the paper's canonical selection:
// when residual weight ties make a selection rule unrealizable the engine
// falls back to the canonical shortest path and counts the event in Stats.
//
// Every step finds dist(s,v,G∖F) for its fault sets on the way; the engine
// keeps those distances for AppendDists, and DistTable lays them out per
// source so that point queries need no search (table.go).
package replace

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/wsp"
)

// Kind labels which step of Cons2FTBFS produced a replacement path.
type Kind int

// Replacement-path kinds, one per algorithm step.
const (
	KindSingle Kind = iota + 1 // Step 1: one fault on π(s,v)
	KindPiPi                   // Step 2: two faults on π(s,v)
	KindPiD                    // Step 3: one fault on π(s,v), one on its detour
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSingle:
		return "single"
	case KindPiPi:
		return "(pi,pi)"
	case KindPiD:
		return "(pi,D)"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Detour is the detour segment D_i of a single-failure replacement path
// P(s,v,{e_i}) = π(s,x_i) ∘ D_i ∘ π(y_i,v). The path runs from x_i to y_i
// inclusive; both endpoints lie on π(s,v) and the interior is disjoint from
// it (Claim 3.4).
type Detour struct {
	Valid   bool
	Path    path.Path
	XPos    int   // position of x_i on π(s,v)
	YPos    int   // position of y_i on π(s,v)
	EdgeIDs []int // IDs of the detour's edges, in order
}

// X returns the first detour vertex (its π-divergence point).
func (d *Detour) X() int { return d.Path.First() }

// Y returns the last detour vertex (where it rejoins π).
func (d *Detour) Y() int { return d.Path.Last() }

// Record describes one replacement path chosen for a target.
type Record struct {
	Kind Kind
	// EIdx is the index on π(s,v) of the first failing edge e_i
	// (the edge between π positions EIdx and EIdx+1).
	EIdx int
	// SecondIdx identifies the second fault: for KindPiPi the π index of
	// e_j; for KindPiD the position of t_j on the detour D_i. -1 for
	// KindSingle.
	SecondIdx int
	// FaultIDs are the edge IDs of the failing edges (1 or 2 entries).
	FaultIDs []int
	// Path is the chosen replacement path (nil when collection is off or
	// the pair left v unreachable).
	Path path.Path
	// LastEdgeID is the ID of the path's final edge, -1 when no path.
	LastEdgeID int
	// NewEnding reports whether this path introduced a new edge of v into
	// the structure at the time it was processed (Step 3), or — for Steps
	// 1 and 2 — whether its last edge was not already present.
	NewEnding bool
	// BPos is the position on π(s,v) of the path's first divergence
	// point from π (-1 when the path follows π or was not collected).
	BPos int
	// CPos is, for KindPiD paths that intersect their detour, the
	// position on D_i of the first divergence point from the detour; -1
	// otherwise.
	CPos int
	// UsedFallback reports that the canonical selection rule failed
	// (residual weight tie) and the canonical shortest path was used.
	UsedFallback bool
	// Unreachable reports that v is disconnected from s under this fault
	// set, so no replacement path exists (and none is required).
	Unreachable bool
}

// Stats aggregates engine effort and anomaly counters.
type Stats struct {
	// Dijkstras counts logical searches: one per query the algorithm
	// makes, whether it was run or answered without a run (a memoized
	// single-fault search, a G_τ(v) check derived from the run before).
	Dijkstras int
	// KernelRuns counts the wsp.RepairSearch runs actually made.
	KernelRuns  int
	Fallbacks   int // selection-rule fallbacks
	TieWarnings int // equal-weight path pairs observed (should stay 0)
}

// Engine computes replacement paths for a fixed graph, weight assignment and
// source, repairing against their shared canonical tree T0. It keeps the
// Step-1 searches of the current target's π edges for the targets after
// it (sfMemo), which pays when targets come in T0 preorder
// (wsp.Tree.Preorder); the results never depend on the order. It is not
// safe for concurrent use; create one per goroutine over one shared
// wsp.Tree.
type Engine struct {
	g *graph.Graph
	t *wsp.Tree // T0(s), shared and only read
	s int

	search *wsp.RepairSearch

	stats Stats
	// ties is the TieWarnings share not observed by search itself: each
	// use of a memoized search is charged the ties of the run that filled
	// it, so the count depends on neither target order nor Parallelism.
	// memoTies is what those filling runs observed, taken back out of
	// search's count.
	ties, memoTies int
	memo           sfMemo

	// What the current target's steps found, for AppendDists: Step 1's
	// d(e_i) and whether P_i leaves π only once, Step 2's d(e_i, e_j)
	// for i < j row by row, and Step 3's d(e_i, t) per detour edge t,
	// detour i's run starting at d3At[i].
	d1     []int32
	once   []bool
	d2, d3 []int32
	d3At   []int32

	// scratch
	disabledV  []int
	onPi       []int32 // position of each vertex on the current π
	piStamp    []int   // target for which onPi entry is valid (target+1)
	curPiStamp int
}

// NewEngine returns an engine over the canonical tree t = T0(s). Its
// counters start at zero: the base search is t's, counted where t was
// built.
func NewEngine(t *wsp.Tree) *Engine {
	g := t.Graph()
	return &Engine{
		g:       g,
		t:       t,
		s:       t.Source(),
		search:  wsp.NewRepairSearch(t),
		onPi:    make([]int32, g.N()),
		piStamp: make([]int, g.N()),
	}
}

// Stats returns a copy of the accumulated effort counters, folding in the
// underlying search's tie warnings.
func (e *Engine) Stats() Stats {
	st := e.stats
	st.TieWarnings = e.search.TieWarnings() - e.memoTies + e.ties
	return st
}

// TreeEdges returns the edge IDs of the canonical tree T0(s).
func (e *Engine) TreeEdges() []int {
	out := make([]int, 0, e.g.N())
	for v := 0; v < e.g.N(); v++ {
		if id := e.t.ParentEdgeOf(v); id >= 0 {
			out = append(out, id)
		}
	}
	return out
}

// TreeEdgesAt returns E(v, T0): the IDs of tree edges incident to v.
func (e *Engine) TreeEdgesAt(v int) []int {
	kids := e.t.Children(v)
	out := make([]int, 0, len(kids)+1)
	if id := e.t.ParentEdgeOf(v); id >= 0 {
		out = append(out, id)
	}
	for _, c := range kids {
		out = append(out, e.t.ParentEdgeOf(int(c)))
	}
	return out
}

// PiTo returns the canonical shortest path π(s,v), or nil when v is
// unreachable from s.
func (e *Engine) PiTo(v int) path.Path { return e.t.PathTo(v) }

// run wraps the underlying search, counting effort.
func (e *Engine) run(src int, opt wsp.Options) {
	e.search.Run(src, opt)
	e.stats.Dijkstras++
	e.stats.KernelRuns++
}
