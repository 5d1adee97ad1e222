package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/snap"
)

// newStoreClient is newTestClient over a caller-built Server (so tests can
// share a Store across instances and call WarmStart).
func newStoreClient(t *testing.T, s *Server) *testClient {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &testClient{t: t, srv: ts}
}

// waitSnapshot polls until the build's background snapshot leaves
// "pending".
func (c *testClient) waitSnapshot(graph, build string) buildInfo {
	c.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var info buildInfo
		c.decode("GET", "/v1/graphs/"+graph+"/builds/"+build, nil, http.StatusOK, &info)
		if info.Snapshot != SnapPending {
			return info
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("snapshot of %s/%s still pending", graph, build)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// buildReady registers a graph, starts a dual build and waits for it (and,
// with a store, its background snapshot) to complete.
func buildReady(t *testing.T, c *testClient, graphName string, withStore bool) buildInfo {
	t.Helper()
	c.decode("POST", "/v1/graphs", map[string]any{
		"name": graphName,
		"gen":  map[string]any{"family": "gnp", "n": 90, "p": 0.08, "seed": 7},
	}, http.StatusCreated, nil)
	var info buildInfo
	c.decode("POST", "/v1/graphs/"+graphName+"/builds",
		map[string]any{"mode": "dual", "sources": []int{0}, "seed": 3}, http.StatusAccepted, &info)
	got := c.waitReady(graphName, info.ID)
	if got.Status != StatusReady {
		t.Fatalf("build did not become ready: %+v", got)
	}
	if withStore {
		got = c.waitSnapshot(graphName, info.ID)
		if got.Snapshot != SnapSaved {
			t.Fatalf("snapshot not saved: %+v", got)
		}
	}
	return got
}

// queryBatch returns the raw JSON of a fixed deterministic batch — used to
// compare answers across server instances byte for byte.
func queryBatch(t *testing.T, c *testClient, graph, build string) []byte {
	t.Helper()
	queries := []map[string]any{
		{"source": 0, "target": 17, "faults": []int{3, 9}},
		{"source": 0, "target": 41, "faults": []int{}},
		{"source": 0, "faults": []int{12}},
		{"source": 0, "target": 33, "faults": []int{5, 6}, "route": true},
		{"source": 0, "target": 2, "faults": []int{1}, "route": true},
	}
	code, body := c.do("POST", "/v1/graphs/"+graph+"/builds/"+build+"/query",
		map[string]any{"queries": queries})
	if code != http.StatusOK {
		t.Fatalf("batch query: %d: %s", code, body)
	}
	return body
}

// TestEndToEndRestart is the acceptance scenario: build under a snapshot
// directory, stop the server, start a FRESH instance over the same
// directory, and require (a) the build is ready with no builder
// invocation — it is marked restored, with the original build stats — and
// (b) dist/route/batch answers are bit-identical to pre-restart.
func TestEndToEndRestart(t *testing.T) {
	dir := t.TempDir()
	store1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(&Config{Store: store1})
	c1 := newStoreClient(t, srv1)
	info := buildReady(t, c1, "net", true)
	preBatch := queryBatch(t, c1, "net", info.ID)
	_, preDist := c1.do("GET", "/v1/graphs/net/builds/"+info.ID+"/dist?source=0&target=17&faults=3,9", nil)
	_, preRoute := c1.do("GET", "/v1/graphs/net/builds/"+info.ID+"/route?source=0&target=17&faults=3,9", nil)
	c1.srv.Close() // stop instance 1

	store2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(&Config{Store: store2})
	// The build POSTed last below may still be running, or writing its
	// snapshot into dir, when the test returns. Cleanups run last-in
	// first-out, so this shutdown — which cancels it and waits for its
	// goroutines — runs before the TempDir is removed.
	t.Cleanup(func() {
		if err := srv2.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	restored, err := srv2.WarmStart()
	if err != nil {
		t.Fatalf("warm start: %v", err)
	}
	if restored != 1 {
		t.Fatalf("restored %d builds, want 1", restored)
	}
	c2 := newStoreClient(t, srv2)

	var got buildInfo
	c2.decode("GET", "/v1/graphs/net/builds/"+info.ID, nil, http.StatusOK, &got)
	if got.Status != StatusReady {
		t.Fatalf("restored build is %q, want ready with no rebuild", got.Status)
	}
	if !got.Restored {
		t.Fatalf("restored build not marked restored: %+v", got)
	}
	if got.Mode != "dual" || got.Seed != 3 || len(got.Sources) != 1 || got.Sources[0] != 0 {
		t.Fatalf("restored build lost provenance: %+v", got)
	}
	if got.Stats == nil || *got.Stats != *info.Stats {
		t.Fatalf("restored stats = %+v, want %+v", got.Stats, info.Stats)
	}
	if got.Edges != info.Edges || got.GraphM != info.GraphM || got.Faults != info.Faults {
		t.Fatalf("restored sizes differ: %+v vs %+v", got, info)
	}

	if postBatch := queryBatch(t, c2, "net", info.ID); !bytes.Equal(preBatch, postBatch) {
		t.Fatalf("batch answers differ after restart:\npre:  %s\npost: %s", preBatch, postBatch)
	}
	_, postDist := c2.do("GET", "/v1/graphs/net/builds/"+info.ID+"/dist?source=0&target=17&faults=3,9", nil)
	if !bytes.Equal(preDist, postDist) {
		t.Fatalf("dist answer differs after restart: %s vs %s", preDist, postDist)
	}
	_, postRoute := c2.do("GET", "/v1/graphs/net/builds/"+info.ID+"/route?source=0&target=17&faults=3,9", nil)
	if !bytes.Equal(preRoute, postRoute) {
		t.Fatalf("route answer differs after restart: %s vs %s", preRoute, postRoute)
	}

	// New builds on the restored registry must not collide with the
	// restored build ID.
	var next buildInfo
	c2.decode("POST", "/v1/graphs/net/builds",
		map[string]any{"mode": "dual", "sources": []int{1}}, http.StatusAccepted, &next)
	if next.ID == info.ID {
		t.Fatalf("new build reused restored ID %q", next.ID)
	}
}

// TestSnapshotReplication streams a snapshot out of one instance and PUTs
// it into another with no shared storage — the replication path.
func TestSnapshotReplication(t *testing.T) {
	srcStore := NewMemStore()
	src := New(&Config{Store: srcStore})
	c1 := newStoreClient(t, src)
	info := buildReady(t, c1, "net", true)
	code, snapBytes := c1.do("GET", "/v1/graphs/net/builds/"+info.ID+"/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("GET snapshot: %d", code)
	}
	if _, err := snap.Decode(bytes.NewReader(snapBytes)); err != nil {
		t.Fatalf("streamed snapshot does not decode: %v", err)
	}

	dst := New(nil) // no store: replication needs none
	c2 := newStoreClient(t, dst)
	req, err := http.NewRequest("PUT", c2.srv.URL+"/v1/graphs/net/builds/"+info.ID+"/snapshot",
		bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c2.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT snapshot: %d", resp.StatusCode)
	}
	if a, b := queryBatch(t, c1, "net", info.ID), queryBatch(t, c2, "net", info.ID); !bytes.Equal(a, b) {
		t.Fatalf("replica answers differ:\nsrc: %s\ndst: %s", a, b)
	}

	// Replaying the same PUT conflicts; so does a snapshot of a DIFFERENT
	// graph under the existing name.
	resp, err = c2.srv.Client().Do(mustRequest(t, "PUT",
		c2.srv.URL+"/v1/graphs/net/builds/"+info.ID+"/snapshot", snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate PUT: %d, want 409", resp.StatusCode)
	}
}

func mustRequest(t *testing.T, method, url string, body []byte) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestPutSnapshotRejectsMismatchedGraph uploads a valid snapshot under a
// graph name that already holds a different graph.
func TestPutSnapshotRejectsMismatchedGraph(t *testing.T) {
	src := New(&Config{Store: NewMemStore()})
	c1 := newStoreClient(t, src)
	info := buildReady(t, c1, "net", true)
	_, snapBytes := c1.do("GET", "/v1/graphs/net/builds/"+info.ID+"/snapshot", nil)

	dst := New(nil)
	c2 := newStoreClient(t, dst)
	c2.decode("POST", "/v1/graphs", map[string]any{
		"name": "net",
		"gen":  map[string]any{"family": "grid", "rows": 4, "cols": 4},
	}, http.StatusCreated, nil)
	resp, err := c2.srv.Client().Do(mustRequest(t, "PUT",
		c2.srv.URL+"/v1/graphs/net/builds/b9/snapshot", snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched graph PUT: %d, want 409", resp.StatusCode)
	}
}

// TestPutSnapshotRejectsGarbage uploads junk bytes.
func TestPutSnapshotRejectsGarbage(t *testing.T) {
	c := newTestClient(t, nil)
	resp, err := c.srv.Client().Do(mustRequest(t, "PUT",
		c.srv.URL+"/v1/graphs/g/builds/b1/snapshot", []byte("not a snapshot")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage PUT: %d, want 400", resp.StatusCode)
	}
}

// TestGetSnapshotNotReady asks for a snapshot of a build that is still
// queued or missing.
func TestGetSnapshotNotReady(t *testing.T) {
	c := newTestClient(t, nil)
	code, _ := c.do("GET", "/v1/graphs/none/builds/b1/snapshot", nil)
	if code != http.StatusNotFound {
		t.Fatalf("missing build snapshot: %d, want 404", code)
	}
}

// TestWarmStartSkipsCorruptSnapshot seeds a snapshot dir with one good
// snapshot and one garbage file: warm start must restore the good build
// and report (not die on) the bad one.
func TestWarmStartSkipsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(&Config{Store: store})
	c := newStoreClient(t, srv)
	info := buildReady(t, c, "good", true)
	if err := os.MkdirAll(filepath.Join(dir, "bad"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad", "b1"+".ftbfs"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := New(&Config{Store: mustDiskStore(t, dir)})
	restored, err := srv2.WarmStart()
	if restored != 1 {
		t.Fatalf("restored %d, want 1", restored)
	}
	if err == nil || !strings.Contains(err.Error(), "bad/b1") {
		t.Fatalf("warm start error %v does not report the corrupt snapshot", err)
	}
	c2 := newStoreClient(t, srv2)
	var got buildInfo
	c2.decode("GET", "/v1/graphs/good/builds/"+info.ID, nil, http.StatusOK, &got)
	if got.Status != StatusReady || !got.Restored {
		t.Fatalf("good build not restored: %+v", got)
	}
}

func mustDiskStore(t *testing.T, dir string) *DiskStore {
	t.Helper()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDeleteGraphRemovesSnapshots deletes a graph and expects the next
// warm start over the same directory to restore nothing.
func TestDeleteGraphRemovesSnapshots(t *testing.T) {
	dir := t.TempDir()
	srv := New(&Config{Store: mustDiskStore(t, dir)})
	c := newStoreClient(t, srv)
	buildReady(t, c, "gone", true)
	c.decode("DELETE", "/v1/graphs/gone", nil, http.StatusNoContent, nil)

	srv2 := New(&Config{Store: mustDiskStore(t, dir)})
	restored, err := srv2.WarmStart()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 {
		t.Fatalf("restored %d builds of a deleted graph, want 0", restored)
	}
}

// TestWarmStartMultipleBuildsOneGraph persists two builds of one graph
// and warm-starts both into the same registered graph.
func TestWarmStartMultipleBuildsOneGraph(t *testing.T) {
	dir := t.TempDir()
	srv := New(&Config{Store: mustDiskStore(t, dir)})
	c := newStoreClient(t, srv)
	buildReady(t, c, "multi", true)
	var second buildInfo
	c.decode("POST", "/v1/graphs/multi/builds",
		map[string]any{"mode": "single", "sources": []int{2}}, http.StatusAccepted, &second)
	if got := c.waitReady("multi", second.ID); got.Status != StatusReady {
		t.Fatalf("second build: %+v", got)
	}
	c.waitSnapshot("multi", second.ID)

	srv2 := New(&Config{Store: mustDiskStore(t, dir)})
	restored, err := srv2.WarmStart()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 {
		t.Fatalf("restored %d builds, want 2", restored)
	}
	c2 := newStoreClient(t, srv2)
	var got buildInfo
	c2.decode("GET", "/v1/graphs/multi/builds/"+second.ID, nil, http.StatusOK, &got)
	if got.Mode != "single" || !got.Restored {
		t.Fatalf("second restored build: %+v", got)
	}
}

// ---- store unit tests ----

func TestDiskStoreAtomicityAndListing(t *testing.T) {
	dir := t.TempDir()
	s := mustDiskStore(t, dir)
	// A failing write must leave nothing behind under the final name.
	err := s.Put("g", "b1", func(w io.Writer) error { return fmt.Errorf("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Put error = %v", err)
	}
	if _, err := s.Open("g", "b1"); !os.IsNotExist(err) {
		t.Fatalf("failed Put left a snapshot behind: %v", err)
	}
	keys, err := s.List()
	if err != nil || len(keys) != 0 {
		t.Fatalf("List after failed put = %v, %v", keys, err)
	}
	// Strays are ignored.
	if err := os.WriteFile(filepath.Join(dir, "g", "README.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("g", "b1", func(w io.Writer) error { _, err := w.Write([]byte("data")); return err }); err != nil {
		t.Fatal(err)
	}
	keys, err = s.List()
	if err != nil || len(keys) != 1 || keys[0] != (StoreKey{Graph: "g", Build: "b1"}) {
		t.Fatalf("List = %v, %v", keys, err)
	}
	rc, err := s.Open("g", "b1")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	if string(got) != "data" {
		t.Fatalf("Open read %q", got)
	}
	// A failing replace leaves the old snapshot readable, and no failed
	// write leaves its temp file behind.
	err = s.Put("g", "b1", func(w io.Writer) error {
		if _, err := w.Write([]byte("half of the new")); err != nil {
			return err
		}
		return fmt.Errorf("boom again")
	})
	if err == nil || !strings.Contains(err.Error(), "boom again") {
		t.Fatalf("failed replace: Put error = %v", err)
	}
	rc, err = s.Open("g", "b1")
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(rc)
	rc.Close()
	if string(got) != "data" {
		t.Fatalf("after a failed replace Open read %q, want the old bytes", got)
	}
	noTempFiles(t, filepath.Join(dir, "g"))
	// Path traversal attempts are rejected outright.
	if err := s.Put("../evil", "b1", func(io.Writer) error { return nil }); err == nil {
		t.Fatal("traversal graph name accepted")
	}
	if _, err := s.Open("g", "../../b1"); err == nil {
		t.Fatal("traversal build name accepted")
	}
	if err := s.DeleteGraph("g"); err != nil {
		t.Fatal(err)
	}
	if keys, _ := s.List(); len(keys) != 0 {
		t.Fatalf("List after delete = %v", keys)
	}
}

func TestMemStoreBasics(t *testing.T) {
	s := NewMemStore()
	if err := s.Put("g", "b1", func(w io.Writer) error { _, err := w.Write([]byte("abc")); return err }); err != nil {
		t.Fatal(err)
	}
	rc, err := s.Open("g", "b1")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	if string(got) != "abc" {
		t.Fatalf("Open read %q", got)
	}
	if _, err := s.Open("g", "b2"); !os.IsNotExist(err) {
		t.Fatalf("missing key error = %v", err)
	}
	if err := s.DeleteGraph("g"); err != nil {
		t.Fatal(err)
	}
	if keys, _ := s.List(); len(keys) != 0 {
		t.Fatalf("List after delete = %v", keys)
	}
}

// TestGetSnapshotDeterministic: with no store, every GET live-encodes —
// and must produce identical bytes each time (what lets the store-served
// and live-encoded paths claim byte equality).
func TestGetSnapshotDeterministic(t *testing.T) {
	c := newStoreClient(t, New(nil))
	info := buildReady(t, c, "det", false)
	_, a := c.do("GET", "/v1/graphs/det/builds/"+info.ID+"/snapshot", nil)
	_, b := c.do("GET", "/v1/graphs/det/builds/"+info.ID+"/snapshot", nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("two GETs of the same snapshot differ (%d vs %d bytes)", len(a), len(b))
	}
	if _, err := snap.Decode(bytes.NewReader(a)); err != nil {
		t.Fatal(err)
	}
}

// TestPutSnapshotRejectsVertexModel: the query plane speaks edge faults
// only, so a vertex-fault snapshot must be refused rather than silently
// served with wrong fault semantics.
func TestPutSnapshotRejectsVertexModel(t *testing.T) {
	st, err := core.BuildVertexExhaustive(gen.GNP(14, 0.3, 3), 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf, &snap.Snapshot{Structure: st}); err != nil {
		t.Fatal(err)
	}
	c := newTestClient(t, nil)
	resp, err := c.srv.Client().Do(mustRequest(t, "PUT",
		c.srv.URL+"/v1/graphs/vx/builds/b1/snapshot", buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "vertex") {
		t.Fatalf("vertex snapshot PUT: %d %s, want 400 mentioning the fault model", resp.StatusCode, body)
	}
}

// TestPutSnapshotOversizedBody: a body over MaxSnapshotBytes must come
// back as 413, not a generic decode failure.
func TestPutSnapshotOversizedBody(t *testing.T) {
	srv := New(&Config{MaxSnapshotBytes: 64})
	c := newStoreClient(t, srv)
	st, err := core.BuildDual(gen.GNP(20, 0.3, 1), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf, &snap.Snapshot{Structure: st}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.srv.Client().Do(mustRequest(t, "PUT",
		c.srv.URL+"/v1/graphs/big/builds/b1/snapshot", buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT: %d, want 413", resp.StatusCode)
	}
}

// TestPutSnapshotUnderNewNames uploads a snapshot under DIFFERENT
// graph/build names: the stored copy must be re-stamped with the new
// names and must match what GET streams, every time.
func TestPutSnapshotUnderNewNames(t *testing.T) {
	src := New(&Config{Store: NewMemStore()})
	c1 := newStoreClient(t, src)
	info := buildReady(t, c1, "net", true)
	_, upload := c1.do("GET", "/v1/graphs/net/builds/"+info.ID+"/snapshot", nil)

	dstStore := NewMemStore()
	dst := New(&Config{Store: dstStore})
	c2 := newStoreClient(t, dst)
	resp, err := c2.srv.Client().Do(mustRequest(t, "PUT",
		c2.srv.URL+"/v1/graphs/other/builds/b7/snapshot", upload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT under new names: %d", resp.StatusCode)
	}
	_, got1 := c2.do("GET", "/v1/graphs/other/builds/b7/snapshot", nil)
	_, got2 := c2.do("GET", "/v1/graphs/other/builds/b7/snapshot", nil)
	if !bytes.Equal(got1, got2) {
		t.Fatal("GETs of a renamed upload differ")
	}
	rc, err := dstStore.Open("other", "b7")
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := io.ReadAll(rc)
	rc.Close()
	if !bytes.Equal(stored, got1) {
		t.Fatal("stored bytes differ from GET bytes for a renamed upload")
	}
	sn, err := snap.Decode(bytes.NewReader(got1))
	if err != nil {
		t.Fatal(err)
	}
	if sn.Meta.Graph != "other" || sn.Meta.Build != "b7" {
		t.Fatalf("renamed upload META = %+v, want other/b7", sn.Meta)
	}
	// The answers served under the new name are still the original's.
	if a, b := queryBatch(t, c1, "net", info.ID), queryBatch(t, c2, "other", "b7"); !bytes.Equal(a, b) {
		t.Fatalf("renamed replica answers differ")
	}
}

// TestDecodeHostileSectionLength: a tiny input declaring a huge section
// must fail fast without allocating the declared size (guarded indirectly:
// the error must be a truncation FormatError, and the test completes
// instantly under -race without OOM).
func TestDecodeHostileSectionLength(t *testing.T) {
	st, err := core.BuildDual(gen.PathGraph(4), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf, &snap.Snapshot{Structure: st}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Declare GRPH (section table entry 1, length at offset 16+12+4+4) as
	// ~1 GiB while providing almost no bytes.
	mut := append([]byte(nil), data[:60]...)
	mut[16+12+8] = 0xff // bump a high byte of GRPH's length field
	mut[16+12+9] = 0x3f
	if _, err := snap.Decode(bytes.NewReader(mut)); err == nil {
		t.Fatal("hostile section length accepted")
	}
}

// TestWarmStartPinsTrees: a warm start rebuilds each restored build's
// oracle set, whose constructor pins the fault-free tree of every source —
// /v1/stats reports the pinned bytes before any query, and the canonical
// post-restart query, no faults, is a pure memo hit.
func TestWarmStartPinsTrees(t *testing.T) {
	dir := t.TempDir()
	store1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(&Config{Store: store1})
	c1 := newStoreClient(t, srv1)
	info := buildReady(t, c1, "pw", true)
	c1.srv.Close()

	store2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(&Config{Store: store2})
	if restored, err := srv2.WarmStart(); err != nil || restored != 1 {
		t.Fatalf("warm start: restored=%d err=%v", restored, err)
	}
	c2 := newStoreClient(t, srv2)

	var stats statsResponse
	c2.decode("GET", "/v1/stats", nil, http.StatusOK, &stats)
	if stats.Cache == nil || stats.Cache.PinnedBytes == 0 || stats.Cache.Hits != 0 || stats.Cache.Misses != 0 {
		t.Fatalf("restored build has no pinned tree before its first query: %+v", stats.Cache)
	}

	c2.decode("GET", "/v1/graphs/pw/builds/"+info.ID+"/dist?source=0&target=5", nil, http.StatusOK, nil)
	stats = statsResponse{}
	c2.decode("GET", "/v1/stats", nil, http.StatusOK, &stats)
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 0 {
		t.Fatalf("fault-free query not served from the pinned tree: hits %d, misses %d",
			stats.Cache.Hits, stats.Cache.Misses)
	}
}
