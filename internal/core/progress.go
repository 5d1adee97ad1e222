package core

import "sync/atomic"

// Progress publishes a running build's effort as monotonic atomic
// counters. A builder given a Progress (via Options.Progress) only ever
// adds to the counters, so any number of concurrent readers may Snapshot
// it while the build runs and observe values that never decrease. The
// zero value is ready to use; all methods are nil-receiver safe so
// builders can publish unconditionally.
//
// Counter semantics, shared by every builder in this module:
//
//   - UnitsTotal is the builder's work-unit total, announced once up
//     front (Options.AnnounceTotal; multi-source composition announces
//     the whole composite through its first per-source build), so
//     UnitsDone/UnitsTotal is a live, never-regressing completion
//     fraction.
//   - UnitsDone counts completed work units (targets, fault sets, BFS
//     passes — whatever the builder enumerates).
//   - Dijkstras counts logical searches — one per query a builder
//     makes, whether a kernel ran it or it was answered from an earlier
//     run — matching BuildStats.Dijkstras at completion.
//   - EdgesKept counts kept-edge discoveries. It is exact for sequential
//     builds; parallel workers count into their private accumulators, so
//     while they run the value is an upper bound on the final |E_H|
//     (duplicates collapse in the final union).
//   - PhaseNS breaks the build's wall time into the three build phases
//     (base trees, fault-event loop, final union); parallel workers each
//     add their own phase time, so the counters are goroutine-seconds,
//     not wall seconds. Phase times live only here — never in BuildStats,
//     which is snapshot-encoded and golden-pinned.
type Progress struct {
	unitsDone  atomic.Int64
	unitsTotal atomic.Int64
	dijkstras  atomic.Int64
	edgesKept  atomic.Int64
	phaseNS    [numPhases]atomic.Int64
}

// Phase labels one of the three build phases timed into Progress.
type Phase int

// Build phases: base-tree construction (per-worker base searches and
// engine setup), the fault-event loop (repair/replacement-path work), and
// the final merge of per-worker accumulators.
const (
	PhaseBase Phase = iota
	PhaseEvents
	PhaseUnion
	numPhases
)

// String implements fmt.Stringer.
func (ph Phase) String() string {
	switch ph {
	case PhaseBase:
		return "base"
	case PhaseEvents:
		return "events"
	case PhaseUnion:
		return "union"
	default:
		return "phase?"
	}
}

// AddPhaseNS records ns nanoseconds spent in the given phase.
func (p *Progress) AddPhaseNS(ph Phase, ns int64) {
	if p != nil && ph >= 0 && ph < numPhases {
		p.phaseNS[ph].Add(ns)
	}
}

// AddUnits records n completed work units.
func (p *Progress) AddUnits(n int64) {
	if p != nil {
		p.unitsDone.Add(n)
	}
}

// AddTotal grows the expected work-unit total by n.
func (p *Progress) AddTotal(n int64) {
	if p != nil {
		p.unitsTotal.Add(n)
	}
}

// AddDijkstras records n shortest-path computations.
func (p *Progress) AddDijkstras(n int64) {
	if p != nil {
		p.dijkstras.Add(n)
	}
}

// AddEdges records n kept-edge discoveries.
func (p *Progress) AddEdges(n int64) {
	if p != nil {
		p.edgesKept.Add(n)
	}
}

// Snapshot returns a consistent-enough point-in-time copy: each counter
// is read atomically (the set is not read under one lock, which is fine
// because every counter is monotone). A nil receiver snapshots to zero.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	return ProgressSnapshot{
		UnitsDone:  p.unitsDone.Load(),
		UnitsTotal: p.unitsTotal.Load(),
		Dijkstras:  p.dijkstras.Load(),
		EdgesKept:  p.edgesKept.Load(),
		BaseNS:     p.phaseNS[PhaseBase].Load(),
		EventsNS:   p.phaseNS[PhaseEvents].Load(),
		UnionNS:    p.phaseNS[PhaseUnion].Load(),
	}
}

// ProgressSnapshot is one observation of a build's Progress counters.
type ProgressSnapshot struct {
	UnitsDone  int64
	UnitsTotal int64
	Dijkstras  int64
	EdgesKept  int64
	// Per-phase goroutine-time in nanoseconds (see Progress doc).
	BaseNS, EventsNS, UnionNS int64
}

// Fraction returns the completion fraction in [0,1]; 0 when the total is
// still unknown.
func (s ProgressSnapshot) Fraction() float64 {
	if s.UnitsTotal <= 0 {
		return 0
	}
	f := float64(s.UnitsDone) / float64(s.UnitsTotal)
	if f > 1 {
		return 1
	}
	return f
}
