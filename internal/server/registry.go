package server

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/edgelist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/snap"
)

// GenSpec describes a synthetic graph to generate from the gen families.
type GenSpec struct {
	Family  string  `json:"family"`
	N       int     `json:"n,omitempty"`
	P       float64 `json:"p,omitempty"`
	AvgDeg  float64 `json:"avgDeg,omitempty"`
	Rows    int     `json:"rows,omitempty"`
	Cols    int     `json:"cols,omitempty"`
	Dim     int     `json:"dim,omitempty"`
	Width   int     `json:"width,omitempty"`
	Layers  int     `json:"layers,omitempty"`
	Density float64 `json:"density,omitempty"`
	Chords  int     `json:"chords,omitempty"`
	Degree  int     `json:"degree,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
}

// generate materializes the spec. Families mirror the ftbfs facade
// generators.
func (sp *GenSpec) generate() (*graph.Graph, error) {
	switch strings.ToLower(sp.Family) {
	case "gnp":
		if sp.N < 2 {
			return nil, fmt.Errorf("gnp needs n ≥ 2")
		}
		return gen.GNP(sp.N, sp.P, sp.Seed), nil
	case "sparse":
		if sp.N < 2 {
			return nil, fmt.Errorf("sparse needs n ≥ 2")
		}
		return gen.SparseGNP(sp.N, sp.AvgDeg, sp.Seed), nil
	case "grid":
		if sp.Rows < 1 || sp.Cols < 1 {
			return nil, fmt.Errorf("grid needs rows,cols ≥ 1")
		}
		return gen.Grid(sp.Rows, sp.Cols), nil
	case "path":
		if sp.N < 1 {
			return nil, fmt.Errorf("path needs n ≥ 1")
		}
		return gen.PathGraph(sp.N), nil
	case "cycle":
		if sp.N < 3 {
			return nil, fmt.Errorf("cycle needs n ≥ 3")
		}
		return gen.Cycle(sp.N), nil
	case "complete":
		if sp.N < 1 {
			return nil, fmt.Errorf("complete needs n ≥ 1")
		}
		return gen.Complete(sp.N), nil
	case "hypercube":
		if sp.Dim < 1 || sp.Dim > 20 {
			return nil, fmt.Errorf("hypercube needs 1 ≤ dim ≤ 20")
		}
		return gen.Hypercube(sp.Dim), nil
	case "layered":
		if sp.Width < 1 || sp.Layers < 1 {
			return nil, fmt.Errorf("layered needs width,layers ≥ 1")
		}
		return gen.Layered(sp.Width, sp.Layers, sp.Density, sp.Seed), nil
	case "tree":
		if sp.N < 1 {
			return nil, fmt.Errorf("tree needs n ≥ 1")
		}
		return gen.TreePlusChords(sp.N, sp.Chords, sp.Seed), nil
	case "regular":
		if sp.N < 2 || sp.Degree < 1 {
			return nil, fmt.Errorf("regular needs n ≥ 2 and degree ≥ 1")
		}
		return gen.RandomRegular(sp.N, sp.Degree, sp.Seed), nil
	default:
		return nil, fmt.Errorf("unknown family %q (gnp, sparse, grid, path, cycle, complete, hypercube, layered, tree, regular)", sp.Family)
	}
}

// Build lifecycle states: queued (waiting for a build slot) → building →
// ready | failed | cancelled. Cancellation (DELETE on the build, graph
// deletion, or server shutdown) can land in either non-terminal state: a
// queued build cancels without ever taking a slot, a building one returns
// at its next cooperative poll point.
const (
	StatusQueued    = "queued"
	StatusBuilding  = "building"
	StatusReady     = "ready"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// Snapshot persistence states of a ready build (empty when the server has
// no Store): pending (background encode in flight) → saved | failed.
const (
	SnapPending = "pending"
	SnapSaved   = "saved"
	SnapFailed  = "failed"
)

// buildEntry is one (possibly in-flight) structure build over a registered
// graph. Fields not marked `guarded by Server.mu` are immutable after
// creation; the guarded ones are written by the build goroutine under the
// server lock (once at semaphore acquisition, once at completion).
type buildEntry struct {
	id      string
	mode    string
	sources []int
	seed    int64
	status  string            // guarded by Server.mu
	errMsg  string            // guarded by Server.mu
	stack   string            // guarded by Server.mu; stack of a builder panic, for the log only
	created time.Time         // when the build was accepted (queue entry)
	started time.Time         // guarded by Server.mu; when it acquired a build slot (zero while queued)
	queued  time.Duration     // guarded by Server.mu; time spent waiting for the slot
	elapsed time.Duration     // guarded by Server.mu; pure build time, excluding the queue wait
	st      *core.Structure   // guarded by Server.mu
	set     *oracle.OracleSet // guarded by Server.mu
	texts   []tableText       // guarded by Server.mu; set's fault-free tables as JSON, per source
	// cancel cancels the build's context; done is closed when the build
	// goroutine has fully exited (slot released, status terminal);
	// progress carries the builder's live counters. All three are nil for
	// restored (snapshot-rehydrated) entries, which never ran here.
	cancel   context.CancelFunc
	done     chan struct{}
	progress *core.Progress
	// restored marks entries rehydrated from a snapshot (warm start or
	// PUT upload) rather than built; elapsed then reports the ORIGINAL
	// build time carried in the snapshot metadata, and origMeta retains
	// the decoded metadata so re-encoding the build preserves its
	// provenance timing exactly.
	restored bool
	origMeta snap.Meta
	// snapState/snapErr track background snapshot persistence (see the
	// Snap* constants).
	snapState string // guarded by Server.mu
	snapErr   string // guarded by Server.mu
}

// graphEntry is one registered graph plus its builds.
type graphEntry struct {
	name    string
	g       *graph.Graph
	created time.Time
	builds  map[string]*buildEntry // guarded by Server.mu
	order   []string               // guarded by Server.mu; build IDs in creation order
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// parseEdgeList wraps edgelist.Read for uploaded graph bodies.
func parseEdgeList(text string) (*graph.Graph, error) {
	return edgelist.Read(strings.NewReader(text))
}
