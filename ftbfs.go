// Package ftbfs is a Go implementation of "Dual Failure Resilient BFS
// Structure" (Merav Parter, PODC 2015): sparse subgraphs H ⊆ G that
// preserve all BFS distances from a source under up to two edge failures,
// together with the paper's single-failure baseline, its Ω(n^{5/3})
// lower-bound constructions, and the O(log n)-approximation for the
// minimum-size problem.
//
// Quick start:
//
//	g := ftbfs.GNP(100, 0.1, 42)
//	st, err := ftbfs.BuildDualFTBFS(g, 0, nil)
//	// st.NumEdges() ≤ O(n^{5/3}); dist(s,v,H\F) = dist(s,v,G\F) ∀|F| ≤ 2
//	rep := ftbfs.Verify(g, st, []int{0}, 2)
//
// For concurrent query serving, share one NewOracleSet across goroutines
// (or run the whole thing as a network service: cmd/ftbfsd).
//
// The package is a facade over the internal implementation; see DESIGN.md
// for the module map and EXPERIMENTS.md for the reproduction results.
package ftbfs

import (
	"context"
	"io"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lowerbound"
	"repro/internal/multifail"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/snap"
	"repro/internal/verify"
)

// Graph is an immutable undirected simple graph with stable edge IDs in
// compressed-sparse-row form. Build one with NewBuilder + Builder.Freeze, a
// generator, or edge-list parsing.
type Graph = graph.Graph

// Builder accumulates edges under validation (range, self-loop, duplicate
// checks) and compiles them into an immutable Graph with Freeze.
type Builder = graph.Builder

// Edge is an undirected edge (normalized endpoints U < V).
type Edge = graph.Edge

// EdgeSet is a set of edge IDs of a fixed graph.
type EdgeSet = graph.EdgeSet

// Structure is a fault-tolerant BFS structure: the kept edge set plus
// provenance and construction statistics.
type Structure = core.Structure

// Options configures the builders (tie-breaking seed, path collection,
// parallelism, cancellation context and live progress sink).
type Options = core.Options

// Progress receives a running build's live monotonic counters (work
// units, Dijkstras, kept edges); hand one to Options.Progress and
// Snapshot it from any goroutine while the build runs.
type Progress = core.Progress

// ProgressSnapshot is one observation of a build's Progress counters.
type ProgressSnapshot = core.ProgressSnapshot

// Report is a verification outcome with counterexamples, if any.
type Report = verify.Report

// VerifyOptions tunes verification (pruning, violation cap).
type VerifyOptions = verify.Options

// LowerBoundInstance is the adversarial graph G*_f of Theorem 1.2.
type LowerBoundInstance = lowerbound.Instance

// LowerBoundMultiInstance is the σ-source adversarial graph of Theorem 4.1.
type LowerBoundMultiInstance = lowerbound.MultiInstance

// NewBuilder returns an empty builder for a graph on n vertices. Add edges
// with AddEdge/MustAddEdge, then Freeze into an immutable Graph.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// BuildDualFTBFS constructs the dual-failure (f = 2) FT-BFS structure of
// Theorem 1.1 via Algorithm Cons2FTBFS: O(n^{5/3}) edges, exact distances
// under every fault set of at most two edges.
func BuildDualFTBFS(g *Graph, source int, opts *Options) (*Structure, error) {
	return core.BuildDual(g, source, opts)
}

// BuildSingleFTBFS constructs the single-failure FT-BFS structure of
// Parter–Peleg (ESA'13), the paper's baseline: O(n^{3/2}) edges.
func BuildSingleFTBFS(g *Graph, source int, opts *Options) (*Structure, error) {
	return core.BuildSingle(g, source, opts)
}

// BuildExhaustiveFTBFS constructs an f-failure FT-BFS (0 ≤ f ≤ 3) as the
// union of canonical shortest-path trees over all fault sets — simple and
// correct for any f, at Θ(m^f) construction cost (Observation 1.6 bound).
func BuildExhaustiveFTBFS(g *Graph, source, f int, opts *Options) (*Structure, error) {
	return core.BuildExhaustive(g, source, f, opts)
}

// BuildFullPathsFTBFS is the no-sparsification ablation of Theorem 1.1:
// same replacement paths as BuildDualFTBFS but keeping every path edge.
func BuildFullPathsFTBFS(g *Graph, source int, opts *Options) (*Structure, error) {
	return core.BuildFullPaths(g, source, opts)
}

// BuildVertexFTBFS constructs a structure resilient to up to f VERTEX
// failures (f ≤ 2; the fault model of Parter–Peleg [10], which the paper
// discusses alongside edge faults). Verify with VerifyVertex.
func BuildVertexFTBFS(g *Graph, source, f int, opts *Options) (*Structure, error) {
	return core.BuildVertexExhaustive(g, source, f, opts)
}

// VerifyVertex exhaustively checks the vertex-failure model (f ≤ 2).
func VerifyVertex(g *Graph, st *Structure, sources []int, f int) Report {
	return verify.VertexFTBFS(g, st.Edges, sources, f, nil)
}

// BuildRecursiveFTBFS constructs an f-failure FT-BFS structure for ANY
// f ≥ 0 by relevant-fault-tree enumeration — the natural generalization the
// paper's "Beyond two faults" discussion calls for. Exponentially cheaper
// than BuildExhaustiveFTBFS on sparse graphs (depth^f instead of m^f
// searches), without the Cons2FTBFS size-analysis selection rules.
func BuildRecursiveFTBFS(g *Graph, source, f int, opts *Options) (*Structure, error) {
	return multifail.Build(g, source, f, opts)
}

// BuildApproxFTMBFS runs the Section-5 O(log n)-approximation for Minimum
// FT-MBFS: an f-failure structure (f ≤ 2) for a whole source set, within a
// logarithmic factor of the optimum size.
func BuildApproxFTMBFS(g *Graph, sources []int, f int, opts *Options) (*Structure, error) {
	return approx.Build(g, sources, f, opts)
}

// BuildMultiSourceDualFTBFS unions per-source dual structures into an
// FT-MBFS structure for the source set.
func BuildMultiSourceDualFTBFS(g *Graph, sources []int, opts *Options) (*Structure, error) {
	return core.BuildMultiSource(g, sources, opts, core.BuildDual)
}

// Verify exhaustively checks that st is an f-failure FT-MBFS structure of g
// for the given sources (f ≤ 2). The zero-value options prune fault sets
// disjoint from the structure once fault-free distances hold.
func Verify(g *Graph, st *Structure, sources []int, f int) Report {
	return verify.FTBFS(g, st.Edges, sources, f, nil)
}

// VerifyWithOptions is Verify with explicit options.
func VerifyWithOptions(g *Graph, st *Structure, sources []int, f int, opts *VerifyOptions) Report {
	return verify.FTBFS(g, st.Edges, sources, f, opts)
}

// VerifySampled draws random fault sets of size ≤ f (any f) and compares
// distances; for instances too large for the exhaustive pass.
func VerifySampled(g *Graph, st *Structure, sources []int, f, trials int, seed int64) Report {
	return verify.Sampled(g, st.Edges, sources, f, trials, seed, nil)
}

// Oracle answers fault-tolerant distance and routing queries on a built
// structure. On a dual or multi structure built in this process
// (Structure.Tables set), every query with |F| ≤ 2 reads the distances
// the build computed; otherwise each distinct failure event costs one
// memoized BFS repair over H. An Oracle is a cheap per-goroutine handle;
// concurrent clients share an OracleSet.
type Oracle = oracle.Oracle

// OracleSet is the shared immutable query state over one structure —
// its replacement-distance tables when it has them, materialized
// subgraph, edge-ID translation and one byte-budgeted LRU of
// per-failure-event distance tables behind one mutex — safe for concurrent
// use through per-goroutine handles (Handle) or the built-in pool
// (Acquire/Release).
type OracleSet = oracle.OracleSet

// OracleCacheStats is a snapshot of an OracleSet's memo counters.
type OracleCacheStats = oracle.CacheStats

// OracleDistView is a read-only view of one failure event's distance
// table without materializing it — a full table, or a delta against the
// source's pinned fault-free base (see Oracle.DistsView).
type OracleDistView = oracle.DistView

// NewOracle wraps a structure for single-goroutine querying, with the
// default memo budget.
func NewOracle(st *Structure) (*Oracle, error) {
	set, err := oracle.NewSet(st, 0)
	if err != nil {
		return nil, err
	}
	return set.Handle(), nil
}

// NewOracleSet builds the shared concurrent query state for a structure.
// Its memo holds as many failure events as fit in cacheBytes
// (delta-compressed events are charged only for what the fault changed):
// 0 means the 256 MiB default, a negative budget turns the memo off.
func NewOracleSet(st *Structure, cacheBytes int64) (*OracleSet, error) {
	return oracle.NewSet(st, cacheBytes)
}

// Snapshot is a persistable build artifact: a structure (with its graph)
// plus free-form metadata, serialized by EncodeSnapshot into the
// versioned, checksummed binary format of DESIGN.md's persistence layer.
type Snapshot = snap.Snapshot

// SnapshotMeta is a snapshot's metadata record (provenance and timing).
type SnapshotMeta = snap.Meta

// EncodeSnapshot writes a snapshot in the versioned binary format. The
// encoding is deterministic: identical snapshots produce identical bytes.
func EncodeSnapshot(w io.Writer, s *Snapshot) error { return snap.Encode(w, s) }

// DecodeSnapshot reads a snapshot, validating lengths and per-section
// checksums; malformed input fails with the offending byte offset rather
// than producing a partial snapshot.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) { return snap.Decode(r) }

// WriteSnapshotFile encodes to a file via temp-file + atomic rename.
func WriteSnapshotFile(path string, s *Snapshot) error { return snap.WriteFile(path, s) }

// ReadSnapshotFile decodes the snapshot at path.
func ReadSnapshotFile(path string) (*Snapshot, error) { return snap.ReadFile(path) }

// Server is the ftbfsd registry: named graphs, asynchronous structure
// builds and pooled fault-tolerant query serving over HTTP JSON (see
// cmd/ftbfsd and DESIGN.md for the API).
type Server = server.Server

// ServerConfig tunes a Server; the zero value is ready to use.
type ServerConfig = server.Config

// ServerGenSpec describes a synthetic graph for Server.RegisterGraph.
type ServerGenSpec = server.GenSpec

// ServerBuildEvent is one terminal build outcome (ready, failed or
// cancelled), delivered to ServerConfig.BuildLog.
type ServerBuildEvent = server.BuildEvent

// NewServer returns an empty ftbfsd registry (nil config for defaults);
// serve its Handler with net/http.
func NewServer(cfg *ServerConfig) *Server { return server.New(cfg) }

// ServerStore persists build snapshots for a Server: completed builds are
// written to it in the background and Server.WarmStart rehydrates from it.
type ServerStore = server.Store

// NewServerDiskStore opens (creating if needed) an atomic-rename disk
// snapshot store rooted at dir — what `ftbfsd -snapshot-dir` uses.
func NewServerDiskStore(dir string) (ServerStore, error) { return server.NewDiskStore(dir) }

// NewServerMemStore returns an in-memory snapshot store (tests,
// replication relays).
func NewServerMemStore() ServerStore { return server.NewMemStore() }

// LowerBound builds the adversarial instance G*_f of Theorem 1.2 with
// roughly n vertices: every bipartite edge (Ω(n^{2-1/(f+1)}) of them) is
// necessary in any f-failure FT-BFS structure rooted at its Source.
func LowerBound(f, n int) (*LowerBoundInstance, error) {
	return lowerbound.NewInstance(f, n)
}

// LowerBoundCtx is LowerBound with cooperative cancellation of the
// quadratic bipartite enumeration.
func LowerBoundCtx(ctx context.Context, f, n int) (*LowerBoundInstance, error) {
	return lowerbound.NewInstanceCtx(ctx, f, n)
}

// LowerBoundMulti builds the σ-source variant of Theorem 4.1.
func LowerBoundMulti(f, sigma, n int) (*LowerBoundMultiInstance, error) {
	return lowerbound.NewMultiInstance(f, sigma, n)
}

// LowerBoundMultiCtx is LowerBoundMulti with cooperative cancellation.
func LowerBoundMultiCtx(ctx context.Context, f, sigma, n int) (*LowerBoundMultiInstance, error) {
	return lowerbound.NewMultiInstanceCtx(ctx, f, sigma, n)
}

// Graph generators (all deterministic under their seeds, all connected).
var (
	// GNP is Erdős–Rényi G(n, p) with a connecting backbone.
	GNP = gen.GNP
	// SparseGNP is G(n, c/n) at a target average degree.
	SparseGNP = gen.SparseGNP
	// Grid is the rows×cols grid graph.
	Grid = gen.Grid
	// PathGraph is the n-vertex path.
	PathGraph = gen.PathGraph
	// Cycle is the n-cycle.
	Cycle = gen.Cycle
	// Complete is K_n.
	Complete = gen.Complete
	// CompleteBipartite is K_{a,b}.
	CompleteBipartite = gen.CompleteBipartite
	// Hypercube is the dim-dimensional hypercube.
	Hypercube = gen.Hypercube
	// Layered is a width×layers layered random graph.
	Layered = gen.Layered
	// TreePlusChords is a random tree plus chord edges.
	TreePlusChords = gen.TreePlusChords
	// RandomRegular is a near-d-regular random graph.
	RandomRegular = gen.RandomRegular
)
