// Package server implements ftbfsd, a long-lived HTTP JSON service that
// serves fault-tolerant distance and routing queries at scale — the
// paper's motivating scenario (answering queries under failures) exposed
// as a network service instead of one-shot CLIs.
//
// The API is versioned under /v1:
//
//	POST   /v1/graphs                       register a graph (gen spec or edge list)
//	GET    /v1/graphs                       list graphs
//	GET    /v1/graphs/{graph}               graph info + build IDs
//	DELETE /v1/graphs/{graph}               unregister
//	POST   /v1/graphs/{graph}/builds        start an async structure build
//	GET    /v1/graphs/{graph}/builds/{build}        build status, stats, live progress, cache counters
//	DELETE /v1/graphs/{graph}/builds/{build}        cancel a queued/running build; remove a terminal one
//	POST   /v1/graphs/{graph}/builds/{build}/query  JSON batch of {source,target?,faults} (NDJSON streaming opt-in)
//	GET    /v1/graphs/{graph}/builds/{build}/dist   ?source&target&faults=3,9
//	GET    /v1/graphs/{graph}/builds/{build}/dists  ?source&faults
//	GET    /v1/graphs/{graph}/builds/{build}/route  ?source&target&faults
//	GET    /v1/stats                        build-plane gauges: slots, queue, cache aggregate
//	GET    /healthz
//
// Builds run asynchronously (they queue behind a bounded semaphore; poll
// the build resource through "queued" and "building" until "ready" —
// running builds report live progress counters, and DELETE cancels them
// cooperatively, normally within a few milliseconds). The query path is
// served by a pool of per-goroutine oracles over one shared immutable
// OracleSet. On a dual or multi build made by this process, every dist,
// route and whole table is read from the build's replacement-distance
// tables, with no search and no lock (a slot the table leaves open falls
// back to the memo). Every query on a build without tables (other modes,
// restored or uploaded snapshots) goes through the set's failure-event
// memo, so concurrent clients asking about one failure event share a
// single repair of H∖F. A whole table goes out as JSON by copying the
// build's pre-encoded fault-free table between the vertices the failure
// event moves.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/snap"
)

// Config tunes the service. The zero value is ready to use.
type Config struct {
	// MaxConcurrentBuilds bounds simultaneously running structure builds
	// (default: GOMAXPROCS; builds beyond it queue).
	MaxConcurrentBuilds int
	// CacheBytes is each build's failure-event memo budget: 0 means
	// oracle.DefaultCacheBytes (256 MiB), > 0 is the budget, < 0 turns
	// the memo off. The memo serves builds without replacement-distance
	// tables (restored or uploaded snapshots, single, f = 3, approximate
	// and exhaustive builds); a dual or multi build made by this process
	// answers every query from its tables and never uses the memo, unless
	// it saw a residual tie and so kept no tables. Entries are
	// byte-accounted — delta-compressed events are charged only for what
	// the fault actually changed — and least-recently-used events are
	// evicted to stay within the budget.
	// Untrusted clients can force one entry per distinct fault set, so
	// the bound must not scale with n; the pinned fault-free base trees
	// that every miss repairs against (distances, parents and child CSR:
	// about 16 bytes × n per source) sit outside it and are reported
	// separately as pinnedBytes.
	CacheBytes int64
	// MaxBodyBytes bounds request bodies (default 32 MiB).
	MaxBodyBytes int64
	// MaxBatchQueries bounds the items of one batch query request
	// (default 65536).
	MaxBatchQueries int
	// Store persists completed builds as binary snapshots (internal/snap
	// format) and serves warm starts and snapshot replication. nil
	// disables persistence: artifacts live and die with the process,
	// exactly the pre-snapshot behavior.
	Store Store
	// MaxSnapshotBytes bounds uploaded snapshot bodies on the PUT
	// snapshot endpoint (default 1 GiB).
	MaxSnapshotBytes int64
	// BuildLog, when set, receives one event per build reaching a
	// terminal state — ready, failed or cancelled — so operators can
	// audit the build plane without polling build resources. It is called
	// outside the registry lock, possibly from several goroutines at
	// once, and must not block for long.
	BuildLog func(BuildEvent)
}

// BuildEvent describes one terminal build outcome for Config.BuildLog.
type BuildEvent struct {
	Graph   string
	Build   string
	Mode    string
	Sources []int
	// Status is the terminal state: ready, failed or cancelled.
	Status    string
	QueuedMS  float64
	ElapsedMS float64
	// Dijkstras counts the build's logical searches, equal to
	// BuildStats.Dijkstras: the final build stats for ready builds, the
	// live progress counter (work done before the stop) for cancelled and
	// failed ones. Searches answered without a kernel run count too.
	Dijkstras int64
	// Edges is |E_H| and GraphEdges |E(G)|, populated for ready builds.
	Edges      int
	GraphEdges int
	Error      string
	// Stack is the panicking goroutine's stack when the build failed
	// because its builder panicked (Error is then "panic: <value>"). It is
	// meant for the daemon log and never appears in an API response.
	Stack string
}

// Server is the ftbfsd registry and HTTP handler factory. It is safe for
// concurrent use.
type Server struct {
	cfg      Config
	mu       sync.RWMutex
	graphs   map[string]*graphEntry // guarded by mu
	buildSeq int                    // guarded by mu
	buildSem chan struct{}
	// baseCtx parents every build's context; stop cancels it (graceful
	// shutdown). builds tracks the build goroutines plus their background
	// snapshot writes so Shutdown can wait for all of them. closed
	// (guarded by mu, set before Shutdown waits) rejects new builds, so a
	// create racing Shutdown can neither leak past the WaitGroup nor Add
	// from zero concurrently with Wait.
	baseCtx context.Context
	stop    context.CancelFunc
	builds  sync.WaitGroup
	closed  bool // guarded by mu
}

// New returns a Server with the given config (nil for defaults).
func New(cfg *Config) *Server {
	s := &Server{graphs: make(map[string]*graphEntry)}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	if cfg != nil {
		s.cfg = *cfg
	}
	if s.cfg.MaxConcurrentBuilds <= 0 {
		s.cfg.MaxConcurrentBuilds = runtime.GOMAXPROCS(0)
	}
	if s.cfg.MaxBodyBytes <= 0 {
		s.cfg.MaxBodyBytes = 32 << 20
	}
	if s.cfg.MaxBatchQueries <= 0 {
		s.cfg.MaxBatchQueries = 65536
	}
	if s.cfg.MaxSnapshotBytes <= 0 {
		s.cfg.MaxSnapshotBytes = 1 << 30
	}
	s.buildSem = make(chan struct{}, s.cfg.MaxConcurrentBuilds)
	return s
}

// RegisterGraph registers a generated graph programmatically (the
// daemon's -demo flag and tests use it; HTTP clients use POST /v1/graphs).
func (s *Server) RegisterGraph(name string, spec *GenSpec) error {
	if !nameRe.MatchString(name) {
		return fmt.Errorf("server: bad graph name %q", name)
	}
	g, err := spec.generate()
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.graphs[name]; exists {
		return fmt.Errorf("server: graph %q already exists", name)
	}
	s.graphs[name] = &graphEntry{name: name, g: g, created: time.Now(), builds: make(map[string]*buildEntry)}
	return nil
}

// RegisterDemo registers the quickstart graph "demo": gnp n=200 p=0.05
// seed=7, matching the curl walkthrough in DESIGN.md.
func (s *Server) RegisterDemo() error {
	return s.RegisterGraph("demo", &GenSpec{Family: "gnp", N: 200, P: 0.05, Seed: 7})
}

// Handler returns the route table as an http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/graphs", s.handleCreateGraph)
	mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	mux.HandleFunc("GET /v1/graphs/{graph}", s.handleGetGraph)
	mux.HandleFunc("DELETE /v1/graphs/{graph}", s.handleDeleteGraph)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/graphs/{graph}/builds", s.handleCreateBuild)
	mux.HandleFunc("GET /v1/graphs/{graph}/builds/{build}", s.handleGetBuild)
	mux.HandleFunc("DELETE /v1/graphs/{graph}/builds/{build}", s.handleDeleteBuild)
	mux.HandleFunc("GET /v1/graphs/{graph}/builds/{build}/snapshot", s.handleGetSnapshot)
	mux.HandleFunc("PUT /v1/graphs/{graph}/builds/{build}/snapshot", s.handlePutSnapshot)
	mux.HandleFunc("POST /v1/graphs/{graph}/builds/{build}/query", s.handleBatchQuery)
	mux.HandleFunc("GET /v1/graphs/{graph}/builds/{build}/dist", s.handleGet(opDist))
	mux.HandleFunc("GET /v1/graphs/{graph}/builds/{build}/dists", s.handleGet(opDists))
	mux.HandleFunc("GET /v1/graphs/{graph}/builds/{build}/route", s.handleGet(opRoute))
	return mux
}

// ---- JSON plumbing ----

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// ---- graph registry ----

type createGraphRequest struct {
	Name     string   `json:"name"`
	Gen      *GenSpec `json:"gen,omitempty"`
	EdgeList string   `json:"edgeList,omitempty"`
}

type graphInfo struct {
	Name   string   `json:"name"`
	N      int      `json:"n"`
	M      int      `json:"m"`
	Builds []string `json:"builds"`
}

// graphInfoLocked renders one graph's wire info. Callers must hold s.mu
// (read suffices).
//
//ftbfs:holds Server.mu
func graphInfoLocked(g *graphEntry) graphInfo {
	return graphInfo{Name: g.name, N: g.g.N(), M: g.g.M(), Builds: append([]string{}, g.order...)}
}

func (s *Server) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	var req createGraphRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeErr(w, bodyErrStatus(err), "bad request body: %v", err)
		return
	}
	if !nameRe.MatchString(req.Name) {
		writeErr(w, http.StatusBadRequest, "bad graph name %q (want %s)", req.Name, nameRe)
		return
	}
	if (req.Gen == nil) == (req.EdgeList == "") {
		writeErr(w, http.StatusBadRequest, "provide exactly one of \"gen\" or \"edgeList\"")
		return
	}
	// Reject duplicate names before paying for generation/parsing (the
	// insert below re-checks under the same lock, so a racing create is
	// still caught).
	s.mu.RLock()
	_, exists := s.graphs[req.Name]
	s.mu.RUnlock()
	if exists {
		writeErr(w, http.StatusConflict, "graph %q already exists", req.Name)
		return
	}
	var gg *graph.Graph
	if req.Gen != nil {
		var err error
		if gg, err = req.Gen.generate(); err != nil {
			writeErr(w, http.StatusBadRequest, "gen: %v", err)
			return
		}
	} else {
		var err error
		if gg, err = parseEdgeList(req.EdgeList); err != nil {
			writeErr(w, http.StatusBadRequest, "edge list: %v", err)
			return
		}
	}
	g := &graphEntry{name: req.Name, g: gg}
	g.created = time.Now()
	g.builds = make(map[string]*buildEntry)
	s.mu.Lock()
	if _, exists := s.graphs[req.Name]; exists {
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, "graph %q already exists", req.Name)
		return
	}
	s.graphs[req.Name] = g
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, graphInfo{Name: g.name, N: g.g.N(), M: g.g.M(), Builds: []string{}})
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	out := make([]graphInfo, 0, len(s.graphs))
	for _, g := range s.graphs {
		out = append(out, graphInfoLocked(g))
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"graphs": out})
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	g, ok := s.graphs[r.PathValue("graph")]
	var info graphInfo
	if ok {
		info = graphInfoLocked(g)
	}
	s.mu.RUnlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no graph %q", r.PathValue("graph"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleDeleteGraph unregisters a graph and cancels every in-flight or
// queued build of it: each build's context is cancelled after the entry
// leaves the registry, so a running builder returns at its next poll
// point and frees its semaphore slot, and a queued one never starts.
// The cancelled goroutines publish their terminal status into the
// now-unreachable entry and are garbage-collected with it.
//
// Snapshot cleanup ordering matters twice over. The registry entry is
// removed FIRST: persistBuild's post-Put liveness check then guarantees
// that a background snapshot racing this delete is cleaned up by one side
// or the other, whichever runs last. And the store delete is attempted
// even when the graph is already unregistered, so if it fails (500) the
// operator can retry the DELETE and still reach the orphaned files.
func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("graph")
	s.mu.Lock()
	g, ok := s.graphs[name]
	delete(s.graphs, name)
	var cancels []context.CancelFunc
	if ok {
		for _, be := range g.builds {
			if be.cancel != nil && (be.status == StatusQueued || be.status == StatusBuilding) {
				cancels = append(cancels, be.cancel)
			}
		}
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	if s.cfg.Store != nil && nameRe.MatchString(name) {
		if err := s.cfg.Store.DeleteGraph(name); err != nil {
			writeErr(w, http.StatusInternalServerError,
				"graph unregistered but snapshots not deleted (retry DELETE to clean them): %v", err)
			return
		}
	}
	if !ok {
		writeErr(w, http.StatusNotFound, "no graph %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---- builds ----

type createBuildRequest struct {
	Mode        string `json:"mode"`
	Sources     []int  `json:"sources"`
	Seed        int64  `json:"seed,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`
}

type buildStats struct {
	Dijkstras    int `json:"dijkstras"`
	Fallbacks    int `json:"fallbacks"`
	TieWarnings  int `json:"tieWarnings"`
	MaxNewEdges  int `json:"maxNewEdges"`
	MaxE1        int `json:"maxE1"`
	MaxE2        int `json:"maxE2"`
	NewEndingPiD int `json:"newEndingPiD"`
}

type buildInfo struct {
	ID      string `json:"id"`
	Graph   string `json:"graph"`
	Mode    string `json:"mode"`
	Sources []int  `json:"sources"`
	Seed    int64  `json:"seed"`
	Status  string `json:"status"`
	Error   string `json:"error,omitempty"`
	// QueuedMS is the time the build waited for a build slot; ElapsedMS
	// is pure build time from slot acquisition (0 while queued, live
	// while building, final once terminal — including "cancelled", where
	// it measures slot acquisition to cancellation).
	QueuedMS  float64            `json:"queuedMs,omitempty"`
	ElapsedMS float64            `json:"elapsedMs,omitempty"`
	Faults    int                `json:"faults,omitempty"`
	Edges     int                `json:"edges,omitempty"`
	GraphM    int                `json:"graphEdges,omitempty"`
	Stats     *buildStats        `json:"stats,omitempty"`
	Cache     *oracle.CacheStats `json:"cache,omitempty"`
	// Progress reports the builder's live counters while the build runs
	// (and, for cancelled builds, where the work stopped).
	Progress *progressInfo `json:"progress,omitempty"`
	// Restored marks builds rehydrated from a snapshot (warm start or
	// upload) — ElapsedMS then reports the original build time.
	Restored bool `json:"restored,omitempty"`
	// Snapshot tracks background persistence when a Store is configured:
	// pending → saved | failed (SnapshotError holds the failure).
	Snapshot      string `json:"snapshot,omitempty"`
	SnapshotError string `json:"snapshotError,omitempty"`

	// set is a ready build's oracle set, read under Server.mu; withCache
	// fills Cache from it once the lock is released.
	set *oracle.OracleSet
}

// withCache returns info with its memo counters filled in. Call it after
// releasing Server.mu: CacheStats takes the memo's own mutex, and a ready
// build's set never changes, so it needs no server lock.
func (info buildInfo) withCache() buildInfo {
	if info.set != nil {
		cs := info.set.CacheStats()
		info.Cache = &cs
	}
	return info
}

func (s *Server) handleCreateBuild(w http.ResponseWriter, r *http.Request) {
	var req createBuildRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeErr(w, bodyErrStatus(err), "bad request body: %v", err)
		return
	}
	name := r.PathValue("graph")
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	g, ok := s.graphs[name]
	if !ok {
		s.mu.Unlock()
		writeErr(w, http.StatusNotFound, "no graph %q", name)
		return
	}
	for _, src := range req.Sources {
		if src < 0 || src >= g.g.N() {
			s.mu.Unlock()
			writeErr(w, http.StatusBadRequest, "source %d out of range [0,%d)", src, g.g.N())
			return
		}
	}
	build, err := core.BuilderForMode(req.Mode, req.Sources)
	if err != nil {
		s.mu.Unlock()
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.buildSeq++
	ctx, cancel := context.WithCancel(s.baseCtx)
	be := &buildEntry{
		id:       fmt.Sprintf("b%d", s.buildSeq),
		mode:     req.Mode,
		sources:  append([]int(nil), req.Sources...),
		seed:     req.Seed,
		status:   StatusQueued,
		created:  time.Now(),
		cancel:   cancel,
		done:     make(chan struct{}),
		progress: &core.Progress{},
	}
	g.builds[be.id] = be
	g.order = append(g.order, be.id)
	gg := g.g
	s.builds.Add(1)
	s.mu.Unlock()

	// Every worker allocates its own repair scratch, and builds are
	// identical at every worker count, so workers past the cores only cost
	// memory: the client's parallelism is capped at GOMAXPROCS.
	go s.runBuild(ctx, name, gg, be, build, min(req.Parallelism, runtime.GOMAXPROCS(0)))
	writeJSON(w, http.StatusAccepted, buildInfo{
		ID: be.id, Graph: name, Mode: be.mode, Sources: be.sources,
		Seed: be.seed, Status: StatusQueued,
	})
}

// runBuild executes one structure build under the concurrency semaphore
// and publishes the result (or failure) under the server lock. The build
// timer starts only once the semaphore slot is acquired; time spent queued
// behind other builds is reported separately. When a Store is configured,
// a ready build is snapshotted into it in the background — queries are
// served the moment the build is published, not when the disk write lands.
//
// The context is the build's cancellation plane: it is cancelled by
// DELETE on the build, by deleting the graph, or by Server.Shutdown. A
// build cancelled while queued never acquires the semaphore and never
// starts; one cancelled mid-build returns from the builder at its next
// cooperative poll point (ctx.Err(), no partial structure) and frees its
// slot. Either way the entry lands in the terminal "cancelled" status and
// be.done is closed once the goroutine has fully wound down.
func (s *Server) runBuild(ctx context.Context, graphName string, g2 *graph.Graph, be *buildEntry,
	build func(*graph.Graph, *core.Options) (*core.Structure, error), parallelism int) {
	defer s.builds.Done()
	defer close(be.done)
	defer be.cancel() // release the context once the build is over
	select {
	case s.buildSem <- struct{}{}:
	case <-ctx.Done():
		s.mu.Lock()
		be.status = StatusCancelled
		be.queued = time.Since(be.created)
		s.mu.Unlock()
		s.logBuild(graphName, be)
		return
	}
	defer func() { <-s.buildSem }()
	s.mu.Lock()
	be.status = StatusBuilding
	be.started = time.Now()
	be.queued = be.started.Sub(be.created)
	s.mu.Unlock()
	opts := &core.Options{Seed: be.seed, Parallelism: parallelism, Ctx: ctx, Progress: be.progress}
	st, set, texts, err := s.buildStructure(ctx, g2, build, opts)
	s.mu.Lock()
	be.elapsed = time.Since(be.started)
	switch {
	case ctx.Err() != nil:
		// Cancelled before the result was published; work that finished
		// under the wire is discarded, queries never see it.
		be.status = StatusCancelled
	case err != nil:
		be.status = StatusFailed
		be.errMsg = err.Error()
		var pe *sched.PanicError
		if errors.As(err, &pe) {
			be.stack = string(pe.Stack)
		}
	default:
		be.st = st
		be.set = set
		be.texts = texts
		be.status = StatusReady
		if s.cfg.Store != nil {
			be.snapState = SnapPending
			s.builds.Add(1) // safe: runBuild still holds its own slot
			go func() {
				defer s.builds.Done()
				s.persistBuild(graphName, be)
			}()
		}
	}
	s.mu.Unlock()
	s.logBuild(graphName, be)
}

// buildStructure runs the builder and indexes its structure for queries:
// its oracle set and the JSON text of its fault-free tables. A panic in
// any of them — on a pool worker (sched.Run) or here on the build
// goroutine — becomes a *sched.PanicError, so a faulty builder fails its
// build instead of the daemon.
func (s *Server) buildStructure(ctx context.Context, g2 *graph.Graph,
	build func(*graph.Graph, *core.Options) (*core.Structure, error),
	opts *core.Options) (st *core.Structure, set *oracle.OracleSet, texts []tableText, err error) {
	defer sched.Recover(&err)
	st, err = build(g2, opts)
	if err == nil && ctx.Err() == nil {
		if set, err = s.newOracleSet(st); err == nil {
			texts = newTableTexts(set)
		}
	}
	return st, set, texts, err
}

// logBuild reports a terminal build outcome to Config.BuildLog.
func (s *Server) logBuild(graphName string, be *buildEntry) {
	if s.cfg.BuildLog == nil {
		return
	}
	s.mu.RLock()
	ev := BuildEvent{
		Graph: graphName, Build: be.id, Mode: be.mode,
		Sources: append([]int(nil), be.sources...),
		Status:  be.status, Error: be.errMsg, Stack: be.stack,
		QueuedMS: durationMS(be.queued), ElapsedMS: durationMS(be.elapsed),
		Dijkstras: be.progress.Snapshot().Dijkstras,
	}
	if be.status == StatusReady {
		ev.Dijkstras = int64(be.st.Stats.Dijkstras)
		ev.Edges = be.st.NumEdges()
		ev.GraphEdges = be.st.G.M()
	}
	s.mu.RUnlock()
	s.cfg.BuildLog(ev)
}

// Shutdown cancels every in-flight and queued build and waits — bounded
// by ctx — for their goroutines (including background snapshot writes) to
// exit. After a nil return, no build goroutine is left running, so the
// process can exit without silently abandoning work. From the moment
// Shutdown is entered the server rejects new builds with 503 — even a
// create racing the wait cannot slip a goroutine past it — so draining
// the HTTP layer first is good manners, not a correctness requirement.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stop()
	done := make(chan struct{})
	go func() {
		s.builds.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown: builds still running: %w", ctx.Err())
	}
}

// snapshotOf assembles the snapshot of a ready build. Callers must hold
// s.mu (read suffices); the returned snapshot only references immutable
// state, so encoding may proceed outside the lock. It is a pure function
// of the entry, so the background-persisted bytes and a live-encoded
// GET response are identical; for restored entries the original
// snapshot's timing fields are carried over rather than re-derived, so
// re-encoding preserves provenance.
//
//ftbfs:holds Server.mu
func snapshotOf(graphName string, be *buildEntry) *snap.Snapshot {
	meta := snap.Meta{
		Graph:         graphName,
		Build:         be.id,
		Mode:          be.mode,
		Seed:          be.seed,
		ElapsedMS:     float64(be.elapsed.Microseconds()) / 1000,
		CreatedUnixMS: be.created.UnixMilli(),
	}
	if be.restored {
		meta.ElapsedMS = be.origMeta.ElapsedMS
		meta.CreatedUnixMS = be.origMeta.CreatedUnixMS
	}
	return &snap.Snapshot{Structure: be.st, Meta: meta}
}

// persistBuild encodes one ready build into the store and records the
// outcome. If the graph — or just this build — was deleted while the
// encode was in flight, the freshly written snapshot is removed again so
// a later warm start cannot resurrect deleted state.
func (s *Server) persistBuild(graphName string, be *buildEntry) {
	s.mu.RLock()
	sn := snapshotOf(graphName, be)
	s.mu.RUnlock()
	err := s.cfg.Store.Put(graphName, be.id, func(w io.Writer) error {
		return snap.Encode(w, sn)
	})
	s.mu.Lock()
	if err != nil {
		be.snapState = SnapFailed
		be.snapErr = err.Error()
	} else {
		be.snapState = SnapSaved
	}
	g, alive := s.graphs[graphName]
	buildAlive := false
	if alive {
		_, buildAlive = g.builds[be.id]
	}
	s.mu.Unlock()
	switch {
	case err != nil:
	case !alive:
		_ = s.cfg.Store.DeleteGraph(graphName)
	case !buildAlive:
		_ = s.cfg.Store.Delete(graphName, be.id)
	}
}

// newOracleSet builds a build's shared query state with the configured
// memo budget, which oracle.NewSet reads exactly as Config.CacheBytes
// documents it.
func (s *Server) newOracleSet(st *core.Structure) (*oracle.OracleSet, error) {
	return oracle.NewSet(st, s.cfg.CacheBytes)
}

// progressInfo is the wire form of a build's live progress counters.
type progressInfo struct {
	// Fraction is UnitsDone/UnitsTotal clamped to [0,1] (0 while the
	// builder has not yet announced its work-unit total).
	Fraction   float64 `json:"fraction"`
	UnitsDone  int64   `json:"unitsDone"`
	UnitsTotal int64   `json:"unitsTotal"`
	Dijkstras  int64   `json:"dijkstras"`
	EdgesKept  int64   `json:"edgesKept"`
}

// durationMS renders a duration as fractional milliseconds (the API's
// timing unit).
func durationMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// buildInfoLocked renders one build's wire info but for its memo
// counters. Callers must hold s.mu (read suffices) and call withCache on
// the result after releasing it.
//
//ftbfs:holds Server.mu
func (s *Server) buildInfoLocked(graphName string, be *buildEntry) buildInfo {
	info := buildInfo{
		ID: be.id, Graph: graphName, Mode: be.mode, Sources: be.sources,
		Seed: be.seed, Status: be.status, Error: be.errMsg,
		QueuedMS:  durationMS(be.queued),
		ElapsedMS: durationMS(be.elapsed),
	}
	if be.status == StatusQueued {
		// Still waiting for a slot: report the wait so far.
		info.QueuedMS = durationMS(time.Since(be.created))
	}
	if be.status == StatusBuilding {
		// Live build time plus the builder's progress counters, readable
		// without disturbing the build (atomic snapshots of monotone
		// counters).
		info.ElapsedMS = durationMS(time.Since(be.started))
	}
	if (be.status == StatusBuilding || be.status == StatusCancelled) && be.progress != nil {
		ps := be.progress.Snapshot()
		info.Progress = &progressInfo{
			Fraction:   ps.Fraction(),
			UnitsDone:  ps.UnitsDone,
			UnitsTotal: ps.UnitsTotal,
			Dijkstras:  ps.Dijkstras,
			EdgesKept:  ps.EdgesKept,
		}
	}
	if be.status == StatusReady {
		info.Faults = be.st.Faults
		info.Edges = be.st.NumEdges()
		info.GraphM = be.st.G.M()
		info.Stats = &buildStats{
			Dijkstras:    be.st.Stats.Dijkstras,
			Fallbacks:    be.st.Stats.Fallbacks,
			TieWarnings:  be.st.Stats.TieWarnings,
			MaxNewEdges:  be.st.Stats.MaxNewEdges,
			MaxE1:        be.st.Stats.MaxE1,
			MaxE2:        be.st.Stats.MaxE2,
			NewEndingPiD: be.st.Stats.NewEndingPiD,
		}
		info.set = be.set
		info.Restored = be.restored
		info.Snapshot = be.snapState
		info.SnapshotError = be.snapErr
	}
	return info
}

func (s *Server) handleGetBuild(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	g, be, err := s.resolveLocked(r)
	var info buildInfo
	if err == nil {
		info = s.buildInfoLocked(g.name, be)
	}
	s.mu.RUnlock()
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info.withCache())
}

// cancelWaitMax bounds how long DELETE on a running build waits for the
// build goroutine to observe the cancel before answering with whatever
// state the build is in. Cooperative cancellation lands within a few poll
// intervals (~ms); the bound only guards against a wedged builder.
const cancelWaitMax = 10 * time.Second

// handleDeleteBuild cancels or removes a build. An in-flight or queued
// build is cancelled: its context is cancelled, the handler waits
// (bounded) for the build goroutine to wind down — freeing its semaphore
// slot — and answers 200 with the terminal entry (normally status
// "cancelled"; "ready" if publication won the race). A build already in a
// terminal state is removed from the registry and the snapshot store, and
// the handler answers 204 — so cancelling and then re-DELETEing fully
// disposes of a build.
//
// Store cleanup mirrors graph deletion: the registry entry goes first,
// and the store delete is attempted even when the build is already gone
// from the registry, so a failed store delete (500) can be retried and
// still reach the orphaned snapshot — otherwise a warm start would
// resurrect the deleted build. persistBuild's post-Put liveness check
// covers a background snapshot write racing this delete.
func (s *Server) handleDeleteBuild(w http.ResponseWriter, r *http.Request) {
	graphName, buildID := r.PathValue("graph"), r.PathValue("build")
	s.mu.Lock()
	g, be, err := s.resolveLocked(r)
	if err == nil && (be.status == StatusQueued || be.status == StatusBuilding) {
		cancel, done := be.cancel, be.done
		s.mu.Unlock()
		cancel()
		select {
		case <-done:
		case <-time.After(cancelWaitMax):
		}
		s.mu.RLock()
		info := s.buildInfoLocked(g.name, be)
		s.mu.RUnlock()
		writeJSON(w, http.StatusOK, info.withCache())
		return
	}
	if err == nil {
		delete(g.builds, be.id)
		for i, id := range g.order {
			if id == be.id {
				g.order = append(g.order[:i], g.order[i+1:]...)
				break
			}
		}
	}
	s.mu.Unlock()
	if s.cfg.Store != nil && nameRe.MatchString(graphName) && nameRe.MatchString(buildID) {
		if serr := s.cfg.Store.Delete(graphName, buildID); serr != nil {
			writeErr(w, http.StatusInternalServerError,
				"build unregistered but snapshot not deleted (retry DELETE to clean it): %v", serr)
			return
		}
	}
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// resolveLocked looks up the graph and build named in the request path.
// Callers must hold s.mu (read suffices).
//
//ftbfs:holds Server.mu
func (s *Server) resolveLocked(r *http.Request) (*graphEntry, *buildEntry, error) {
	g, ok := s.graphs[r.PathValue("graph")]
	if !ok {
		return nil, nil, fmt.Errorf("no graph %q", r.PathValue("graph"))
	}
	be, ok := g.builds[r.PathValue("build")]
	if !ok {
		return nil, nil, fmt.Errorf("no build %q of graph %q", r.PathValue("build"), g.name)
	}
	return g, be, nil
}

// readySet resolves the request's build and returns its oracle set and
// the JSON text of its fault-free tables, or writes the error response
// and returns a nil set.
func (s *Server) readySet(w http.ResponseWriter, r *http.Request) (*oracle.OracleSet, []tableText) {
	s.mu.RLock()
	_, be, err := s.resolveLocked(r)
	var (
		set    *oracle.OracleSet
		texts  []tableText
		status string
	)
	if err == nil {
		status = be.status
		set, texts = be.set, be.texts
	}
	s.mu.RUnlock()
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return nil, nil
	}
	if status != StatusReady {
		writeErr(w, http.StatusConflict, "build is %s, not ready", status)
		return nil, nil
	}
	return set, texts
}

// ---- queries ----

func parseFaults(q string) ([]int, error) {
	if q == "" {
		return nil, nil
	}
	parts := strings.Split(q, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad fault edge ID %q", p)
		}
		out = append(out, id)
	}
	return out, nil
}

func queryInt(v url.Values, key string) (int, error) {
	raw := v.Get(key)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", key)
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %q: %q", key, raw)
	}
	return n, nil
}

// queryOp is what a query asks for.
type queryOp uint8

const (
	opDist     queryOp = iota // one distance
	opDists                   // the failure event's whole distance table
	opRoute                   // one distance and a realizing path
	opNoTarget                // a JSON route without a target: spelled, never answered
)

// query is one decoded query item: what every protocol — GET, JSON,
// NDJSON and binary — decodes into. Only item shapes a protocol can spell
// but not answer are turned away before the oracle: binary rejects an
// item failing Valid(), and JSON decodes a route without a target as
// opNoTarget, which answer rejects. Everything else is the oracle's to
// validate.
type query struct {
	op             queryOp
	source, target int // target is unused by opDists
	faults         []int
}

// reply is the answer to one query, for the protocol encoders: err (a
// *oracle.QueryError, or errRouteNoTarget) for a rejected query, else dist
// for opDist and opRoute (bfs.Unreachable when cut off), path for a
// reachable opRoute (in the request's route buffer) and view for opDists
// (lent by the oracle until the handle's next query). Both are reused by
// the next item, so each encoder writes a reply out at once. Four fields,
// seven words: small enough to return in registers, which keeps the
// per-item cost of both batch codecs flat.
type reply struct {
	err  error
	dist int32
	path []int
	view *oracle.DistView
}

// pathPool recycles the route buffer answer appends each route into. A
// request's routes are encoded one at a time, so one buffer serves them
// all; it grows to the longest route it has held.
var pathPool = sync.Pool{New: func() any { return new([]int) }}

// answer resolves one query with the request's pooled handle, appending a
// route into *path, the request's route buffer (from pathPool). It is
// this package's only caller of the oracle's query methods, and it
// allocates only to grow that buffer (and on a memo miss).
//
//ftbfs:hotpath
func answer(o *oracle.Oracle, q *query, path *[]int) reply {
	switch q.op {
	case opNoTarget:
		return reply{err: errRouteNoTarget}
	case opDists:
		v, err := o.DistsLent(q.source, q.faults)
		return reply{err: err, view: v}
	case opRoute:
		p, err := o.AppendRoute((*path)[:0], q.source, q.target, q.faults)
		*path = p
		if len(p) == 0 {
			return reply{err: err, dist: bfs.Unreachable}
		}
		return reply{dist: int32(len(p) - 1), path: p}
	default:
		d, err := o.Dist(q.source, q.target, q.faults)
		return reply{err: err, dist: d}
	}
}

// handleGet serves the single-query GET endpoints (dist, dists, route).
// The query string is parsed into the same query a JSON batch item
// decodes into and answered as one, so the two APIs cannot diverge; a
// rejected query becomes a 400 carrying the item's error object.
func (s *Server) handleGet(op queryOp) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		set, texts := s.readySet(w, r)
		if set == nil {
			return
		}
		q, err := parseGet(r.URL.Query(), op)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		o := set.Acquire()
		defer set.Release(o)
		path := pathPool.Get().(*[]int)
		defer pathPool.Put(path)
		rep := answer(o, &q, path)
		code := http.StatusOK
		if rep.err != nil {
			code = http.StatusBadRequest
		}
		sc := jsonPool.Get().(*jsonScratch)
		defer jsonPool.Put(sc)
		sc.out = append(appendReply(sc.out[:0], op, rep, textOf(texts, q.source)), '\n')
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_, _ = w.Write(sc.out)
	}
}

// parseGet decodes a GET endpoint's query string into a query.
func parseGet(v url.Values, op queryOp) (query, error) {
	src, err := queryInt(v, "source")
	if err != nil {
		return query{}, err
	}
	q := query{op: op, source: src}
	if op != opDists {
		if q.target, err = queryInt(v, "target"); err != nil {
			return query{}, err
		}
	}
	q.faults, err = parseFaults(v.Get("faults"))
	return q, err
}

// ---- batch queries ----

// streamFlushEvery bounds how many NDJSON lines are buffered before an
// explicit flush (and how often the request context is polled for a gone
// client).
const streamFlushEvery = 64

// streamWriteWindow is the rolling per-window write deadline of a
// streaming response. The server's global WriteTimeout covers a response
// from its first byte, which a large legal batch can outlive; the
// streaming handler instead re-arms this deadline at every flush, so a
// healthy client can stream indefinitely while a stalled one is still
// cut off.
const streamWriteWindow = 30 * time.Second

// maxBatchResultValues bounds the numbers materialized by ONE
// non-streaming batch response (~32 MiB of JSON at worst). Whole-table
// items cost n values each, so a batch within MaxBatchQueries could
// otherwise force an arbitrarily large in-memory response on big graphs;
// past the bound the client is told to use streaming, which buffers at
// most streamFlushEvery lines. A var only so tests can lower it.
var maxBatchResultValues = 4 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// bodyErrStatus distinguishes an oversized body (413) from a malformed
// one (400).
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}
