package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/snap"
)

// This file is the snapshot side of the registry: warm starts from a
// Store, and the GET/PUT snapshot endpoints that stream build artifacts
// between instances (GET on one ftbfsd piped into PUT on another is the
// whole replication story).

// WarmStart scans the configured store and rehydrates every stored
// snapshot into a ready build — graph registered (or matched against an
// already registered one), structure decoded, oracle set rebuilt — with
// no builder invocation. It returns the number of builds restored.
// Snapshots that fail to decode or conflict with live state are skipped,
// and the skip reasons are joined into the returned error; a partial warm
// start is better than refusing to boot over one bad file.
func (s *Server) WarmStart() (int, error) {
	if s.cfg.Store == nil {
		return 0, fmt.Errorf("server: warm start needs a configured Store")
	}
	keys, err := s.cfg.Store.List()
	if err != nil {
		return 0, err
	}
	restored := 0
	var skips []error
	for _, k := range keys {
		if err := s.restoreOne(k); err != nil {
			skips = append(skips, fmt.Errorf("%s/%s: %w", k.Graph, k.Build, err))
			continue
		}
		restored++
	}
	return restored, errors.Join(skips...)
}

func (s *Server) restoreOne(k StoreKey) error {
	rc, err := s.cfg.Store.Open(k.Graph, k.Build)
	if err != nil {
		return err
	}
	sn, err := snap.Decode(rc)
	rc.Close()
	if err != nil {
		return err
	}
	// The store key (not the snapshot metadata) names the entry: the
	// directory layout is authoritative for what this instance serves.
	_, err = s.installSnapshot(k.Graph, k.Build, sn, SnapSaved)
	return err
}

// installSnapshot registers a decoded snapshot as a ready build under
// (graphName, buildID): the graph is created if absent or checked for
// equality if present, the oracle set is rehydrated from the decoded
// structure, and the build-ID sequence is advanced past the installed ID
// so future builds cannot collide. Shared by warm start and PUT.
func (s *Server) installSnapshot(graphName, buildID string, sn *snap.Snapshot, snapState string) (*buildEntry, error) {
	if !nameRe.MatchString(graphName) {
		return nil, fmt.Errorf("bad graph name %q", graphName)
	}
	if !nameRe.MatchString(buildID) {
		return nil, fmt.Errorf("bad build ID %q", buildID)
	}
	st := sn.Structure
	// The query plane implements the edge-failure model only: serving a
	// vertex-fault structure would silently interpret fault IDs as edge
	// IDs. ftbfsverify/ftbfsbench handle such snapshots; the server must
	// refuse them.
	if st.VertexFaults {
		return nil, fmt.Errorf("vertex-failure structures cannot be served (queries use edge-fault semantics)")
	}
	// Fail conflicting installs before paying for rehydration (the final
	// insert below re-checks under the same lock, so a racing install is
	// still caught). When the graph is already registered and equal, the
	// decoded copy is dropped in favor of the registered CSR — k restored
	// builds of one graph share one graph in memory, exactly like k
	// locally built ones.
	s.mu.RLock()
	g0, graphLive := s.graphs[graphName]
	var conflictErr error
	if graphLive {
		if _, exists := g0.builds[buildID]; exists {
			conflictErr = fmt.Errorf("build %q of graph %q already exists", buildID, graphName)
		} else if !graphsEqual(g0.g, st.G) {
			conflictErr = fmt.Errorf("snapshot graph differs from registered graph %q", graphName)
		} else {
			st.G = g0.g
		}
	}
	s.mu.RUnlock()
	if conflictErr != nil {
		return nil, conflictErr
	}
	// Rehydrate the shared query state before taking the write lock: it
	// materializes H and is the expensive part of a restore.
	set, err := s.newOracleSet(st)
	if err != nil {
		return nil, err
	}
	be := &buildEntry{
		id:        buildID,
		mode:      sn.Meta.Mode,
		sources:   st.Sources,
		seed:      sn.Meta.Seed,
		status:    StatusReady,
		created:   time.Now(),
		elapsed:   time.Duration(sn.Meta.ElapsedMS * float64(time.Millisecond)),
		st:        st,
		set:       set,
		texts:     newTableTexts(set),
		restored:  true,
		origMeta:  sn.Meta,
		snapState: snapState,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.graphs[graphName]
	if !ok {
		g = &graphEntry{name: graphName, g: st.G, created: time.Now(), builds: make(map[string]*buildEntry)}
		s.graphs[graphName] = g
	} else if !graphsEqual(g.g, st.G) {
		return nil, fmt.Errorf("snapshot graph differs from registered graph %q", graphName)
	}
	if _, exists := g.builds[buildID]; exists {
		return nil, fmt.Errorf("build %q of graph %q already exists", buildID, graphName)
	}
	g.builds[buildID] = be
	g.order = append(g.order, buildID)
	// Keep server-assigned IDs ("b<seq>") ahead of every installed ID.
	if n, err := strconv.Atoi(strings.TrimPrefix(buildID, "b")); err == nil && n > s.buildSeq {
		s.buildSeq = n
	}
	return be, nil
}

// graphsEqual reports observational equality of two frozen graphs: same
// vertex count and identical edge tables (IDs and endpoints). The CSR
// arrays are a pure function of (n, edge table), so equal edge tables
// imply equal graphs.
func graphsEqual(a, b *graph.Graph) bool {
	if a == b {
		return true
	}
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for id := 0; id < a.M(); id++ {
		if a.EdgeAt(id) != b.EdgeAt(id) {
			return false
		}
	}
	return true
}

// handleGetSnapshot streams a ready build as one snapshot file, encoded
// from live state. The encoding is deterministic, so this is byte for
// byte the copy a Store holds for the build, without trusting that copy:
// a torn or pruned stored file is never served. A build restored from a
// legacy version-2 file is served as its version-1 equivalent.
func (s *Server) handleGetSnapshot(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	g, be, err := s.resolveLocked(r)
	var (
		sn     *snap.Snapshot
		status string
	)
	if err == nil {
		status = be.status
		if status == StatusReady {
			sn = snapshotOf(g.name, be)
		}
	}
	s.mu.RUnlock()
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	if status != StatusReady {
		writeErr(w, http.StatusConflict, "build is %s, not ready", status)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_ = snap.Encode(w, sn)
}

// handlePutSnapshot installs an uploaded snapshot as a ready build of the
// graph and build named in the path — the receiving half of replication.
// The graph is registered from the snapshot when absent; when present, the
// snapshot must be over the identical graph. The registry is the source of
// truth: the build is installed first, then (with a store configured) the
// snapshot is persisted before the response, and the returned "snapshot"
// field reports whether the artifact landed on disk. The body is decoded
// as a stream — never buffered whole — and the store copy is re-encoded
// from the decoded snapshot, which reproduces an uploaded version-1 file
// exactly because the encoding is deterministic (a legacy version-2
// upload is stored as its version-1 equivalent).
func (s *Server) handlePutSnapshot(w http.ResponseWriter, r *http.Request) {
	graphName, buildID := r.PathValue("graph"), r.PathValue("build")
	sn, err := snap.Decode(http.MaxBytesReader(w, r.Body, s.cfg.MaxSnapshotBytes))
	if err != nil {
		// An oversized body surfaces as a read error inside the decoder;
		// unwrap it back to 413 rather than a generic 400.
		writeErr(w, bodyErrStatus(err), "decode snapshot: %v", err)
		return
	}
	snapState := ""
	if s.cfg.Store != nil {
		snapState = SnapPending
	}
	be, err := s.installSnapshot(graphName, buildID, sn, snapState)
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "already exists") || strings.Contains(err.Error(), "differs") {
			status = http.StatusConflict
		}
		writeErr(w, status, "%v", err)
		return
	}
	if s.cfg.Store != nil {
		// Same path as a locally built artifact, run synchronously so a
		// 201 reflects the final snapshot state. Persisting via
		// snapshotOf (not the uploaded bytes) re-stamps META with THIS
		// registry's graph/build names, so the stored copy always equals
		// what a live-encoded GET would produce — including for uploads
		// installed under different names than they were built with.
		s.persistBuild(graphName, be)
	}
	s.mu.RLock()
	info := s.buildInfoLocked(graphName, be)
	s.mu.RUnlock()
	writeJSON(w, http.StatusCreated, info.withCache())
}
