package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/snap"
)

// faultStore wraps a MemStore and injects the failures a snapshot store
// can meet on disk: a Put whose encoder ran but whose commit (fsync,
// rename) failed, a Put that kept only a torn prefix of the encoded bytes
// while reporting success, and an Open that fails.
type faultStore struct {
	*MemStore

	mu      sync.Mutex
	putErr  error                          // guarded by mu; Put stores nothing and returns it
	tear    func(k StoreKey, b []byte) int // guarded by mu; Put keeps b[:tear(k, b)], all of b when < 0
	openErr error                          // guarded by mu; Open returns it
}

func newFaultStore() *faultStore { return &faultStore{MemStore: NewMemStore()} }

func (f *faultStore) set(fn func(f *faultStore)) {
	f.mu.Lock()
	fn(f)
	f.mu.Unlock()
}

// Put implements Store: the encoder always runs to completion first.
func (f *faultStore) Put(graph, build string, write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	f.mu.Lock()
	putErr, tear := f.putErr, f.tear
	f.mu.Unlock()
	if putErr != nil {
		return putErr
	}
	b := buf.Bytes()
	if tear != nil {
		if n := tear(StoreKey{Graph: graph, Build: build}, b); n >= 0 {
			b = b[:n]
		}
	}
	return f.MemStore.Put(graph, build, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// Open implements Store.
func (f *faultStore) Open(graph, build string) (io.ReadCloser, error) {
	f.mu.Lock()
	err := f.openErr
	f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return f.MemStore.Open(graph, build)
}

// TestStoreFaultFailedPut: a store whose Put fails after the encoder ran
// must cost a build only its snapshot. The build stays ready and answers
// queries, and reports "snapshot":"failed" with the error. A PUT snapshot
// onto such a store installs the build, answers 201 with the failure, and
// later GETs of the snapshot return the live encoding.
func TestStoreFaultFailedPut(t *testing.T) {
	fs := newFaultStore()
	fs.set(func(f *faultStore) { f.putErr = errors.New("injected: fsync failed") })
	c := newStoreClient(t, New(&Config{Store: fs}))
	info := buildReady(t, c, "net", false)
	info = c.waitSnapshot("net", info.ID)
	if info.Status != StatusReady || info.Snapshot != SnapFailed ||
		!strings.Contains(info.SnapshotError, "injected: fsync failed") {
		t.Fatalf("build after a failed Put: %+v", info)
	}
	if keys, _ := fs.List(); len(keys) != 0 {
		t.Fatalf("a failed Put left %v in the store", keys)
	}
	g := gen.GNP(90, 0.08, 7)
	for _, tc := range []struct {
		target int
		faults []int
	}{{17, []int{3, 9}}, {41, nil}, {33, []int{5}}} {
		var got distResponse
		c.decode("GET", fmt.Sprintf("/v1/graphs/net/builds/%s/dist?source=0&target=%d&faults=%s",
			info.ID, tc.target, faultsParam(tc.faults)), nil, http.StatusOK, &got)
		if want := bfs.Distances(g, 0, tc.faults)[tc.target]; got.Dist != want {
			t.Fatalf("dist to %d with faults %v = %d, want %d", tc.target, tc.faults, got.Dist, want)
		}
	}
	code, up := c.do("GET", "/v1/graphs/net/builds/"+info.ID+"/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("GET snapshot of an unsaved build: %d %s", code, up)
	}

	dstStore := newFaultStore()
	dstStore.set(func(f *faultStore) { f.putErr = errors.New("injected: rename failed") })
	dst := newStoreClient(t, New(&Config{Store: dstStore}))
	resp, err := dst.srv.Client().Do(mustRequest(t, "PUT",
		dst.srv.URL+"/v1/graphs/net/builds/"+info.ID+"/snapshot", up))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT snapshot onto a failing store: %d %s", resp.StatusCode, body)
	}
	var put buildInfo
	if err := json.Unmarshal(body, &put); err != nil {
		t.Fatal(err)
	}
	if put.Status != StatusReady || put.Snapshot != SnapFailed || !strings.Contains(put.SnapshotError, "injected: rename failed") {
		t.Fatalf("PUT onto a failing store: %+v", put)
	}
	sn, err := snap.Decode(bytes.NewReader(up))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := snap.Encode(&want, sn); err != nil {
		t.Fatal(err)
	}
	code, got := dst.do("GET", "/v1/graphs/net/builds/"+info.ID+"/snapshot", nil)
	if code != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("GET snapshot after a failed persist: %d, %d bytes equal to snap.Encode's %d: %v",
			code, len(got), want.Len(), bytes.Equal(got, want.Bytes()))
	}
	if a, b := queryBatch(t, c, "net", info.ID), queryBatch(t, dst, "net", info.ID); !bytes.Equal(a, b) {
		t.Fatalf("answers differ across the failed persist:\nsrc: %s\ndst: %s", a, b)
	}
}

// TestStoreFaultOpen: when the store cannot open a saved snapshot, GET
// snapshot still answers the live encoding, and a warm start names the
// key and registers nothing.
func TestStoreFaultOpen(t *testing.T) {
	fs := newFaultStore()
	c := newStoreClient(t, New(&Config{Store: fs}))
	info := buildReady(t, c, "net", true)
	_, saved := c.do("GET", "/v1/graphs/net/builds/"+info.ID+"/snapshot", nil)
	fs.set(func(f *faultStore) { f.openErr = errors.New("injected: open failed") })
	code, live := c.do("GET", "/v1/graphs/net/builds/"+info.ID+"/snapshot", nil)
	if code != http.StatusOK || !bytes.Equal(live, saved) {
		t.Fatalf("GET snapshot with Open failing: %d, equal to the saved bytes: %v", code, bytes.Equal(live, saved))
	}

	srv2 := New(&Config{Store: fs})
	restored, err := srv2.WarmStart()
	if restored != 0 || err == nil || !strings.Contains(err.Error(), "net/"+info.ID+": injected: open failed") {
		t.Fatalf("warm start over a failing Open: restored %d, err %v", restored, err)
	}
	c2 := newStoreClient(t, srv2)
	if code, body := c2.do("GET", "/v1/graphs/net/builds/"+info.ID, nil); code != http.StatusNotFound {
		t.Fatalf("unopenable snapshot registered: %d %s", code, body)
	}
}

// TestStoreFaultTornCopyNotServed: the store keeps only the first half of
// a PUT's persisted copy while reporting success, so the build reads
// "snapshot":"saved". GET snapshot must still answer the whole live
// encoding, never the torn stored copy.
func TestStoreFaultTornCopyNotServed(t *testing.T) {
	src := newStoreClient(t, New(&Config{Store: NewMemStore()}))
	info := buildReady(t, src, "net", true)
	_, up := src.do("GET", "/v1/graphs/net/builds/"+info.ID+"/snapshot", nil)

	fs := newFaultStore()
	fs.set(func(f *faultStore) { f.tear = func(_ StoreKey, b []byte) int { return len(b) / 2 } })
	c := newStoreClient(t, New(&Config{Store: fs}))
	resp, err := c.srv.Client().Do(mustRequest(t, "PUT",
		c.srv.URL+"/v1/graphs/net/builds/"+info.ID+"/snapshot", up))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var put buildInfo
	if resp.StatusCode != http.StatusCreated || json.Unmarshal(body, &put) != nil || put.Snapshot != SnapSaved {
		t.Fatalf("PUT snapshot onto a tearing store: %d %s", resp.StatusCode, body)
	}
	rc, err := fs.Open("net", info.ID)
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := io.ReadAll(rc)
	rc.Close()
	if len(stored) != len(up)/2 {
		t.Fatalf("store holds %d bytes, want the torn %d of %d", len(stored), len(up)/2, len(up))
	}

	code, got := c.do("GET", "/v1/graphs/net/builds/"+info.ID+"/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("GET snapshot: %d %s", code, got)
	}
	sn, err := snap.Decode(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("GET snapshot served %d bytes that do not decode: %v", len(got), err)
	}
	var live bytes.Buffer
	if err := snap.Encode(&live, sn); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, live.Bytes()) || !bytes.Equal(got, up) {
		t.Fatalf("GET snapshot: %d bytes, want the %d-byte live encoding", len(got), len(up))
	}
}

// TestDiskStoreRenameFails: a non-empty directory squats on the snapshot's
// final name, so the rename in snap.AtomicWriteFile fails. Put returns the
// rename error and leaves no temp file or listed key. A build on that
// store stays ready, answers queries, and reports "snapshot":"failed".
func TestDiskStoreRenameFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "net", "b1"+snapExt, "squatter"), 0o755); err != nil {
		t.Fatal(err)
	}
	s := mustDiskStore(t, dir)
	err := s.Put("net", "b1", func(w io.Writer) error { _, err := w.Write([]byte("data")); return err })
	if err == nil || !strings.Contains(err.Error(), "file exists") {
		t.Fatalf("Put onto a squatted name returned %v, want the rename error", err)
	}
	noTempFiles(t, filepath.Join(dir, "net"))
	if keys, err := s.List(); err != nil || len(keys) != 0 {
		t.Fatalf("List after a failed rename = %v, %v", keys, err)
	}

	c := newStoreClient(t, New(&Config{Store: s}))
	info := buildReady(t, c, "net", false)
	info = c.waitSnapshot("net", info.ID)
	if info.ID != "b1" || info.Status != StatusReady || info.Snapshot != SnapFailed ||
		!strings.Contains(info.SnapshotError, "file exists") {
		t.Fatalf("build over a failing rename: %+v", info)
	}
	var got distResponse
	c.decode("GET", "/v1/graphs/net/builds/b1/dist?source=0&target=17&faults=3,9", nil, http.StatusOK, &got)
	if want := bfs.Distances(gen.GNP(90, 0.08, 7), 0, []int{3, 9})[17]; got.Dist != want {
		t.Fatalf("dist to 17 with faults [3 9] = %d, want %d", got.Dist, want)
	}
	noTempFiles(t, filepath.Join(dir, "net"))
}

// noTempFiles fails the test if a snap.AtomicWriteFile temporary
// (.<build>.ftbfs.tmp-*) is left in dir.
func noTempFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), snapExt+".tmp-") {
			t.Errorf("temp file %s left in %s", e.Name(), dir)
		}
	}
}

// snapshotCuts returns where TestWarmStartTornSnapshots tears an encoded
// snapshot: inside and at the end of the header and of the section table,
// and in the middle, at the end and after the checksum of every section
// payload (short of the whole file).
func snapshotCuts(b []byte) []int {
	nsec := int(binary.LittleEndian.Uint32(b[12:]))
	off := 16 + 12*nsec
	cuts := []int{0, 8, 16, 16 + 6, off}
	for i := 0; i < nsec; i++ {
		n := int(binary.LittleEndian.Uint64(b[16+12*i+4:]))
		cuts = append(cuts, off+n/2, off+n, off+n+2)
		if off += n + 4; off < len(b) {
			cuts = append(cuts, off)
		}
	}
	return cuts
}

// TestWarmStartTornSnapshots: a store holding torn copies, cut at each
// section boundary and mid-section, next to intact ones. Warm start must
// restore every intact build, name every torn key in its error, and
// register none of the torn builds.
func TestWarmStartTornSnapshots(t *testing.T) {
	src := newStoreClient(t, New(&Config{Store: NewMemStore()}))
	info := buildReady(t, src, "net", true)
	_, up := src.do("GET", "/v1/graphs/net/builds/"+info.ID+"/snapshot", nil)

	// The torn builds are b100, b101, …, one per cut; the tear runs on
	// the bytes the server encodes for each key, whose META names it.
	nCuts := len(snapshotCuts(up))
	torn := make(map[string]int, nCuts)
	for i := 0; i < nCuts; i++ {
		torn[fmt.Sprintf("b%d", 100+i)] = i
	}
	fs := newFaultStore()
	fs.set(func(f *faultStore) {
		f.tear = func(k StoreKey, b []byte) int {
			if i, ok := torn[k.Build]; ok {
				return snapshotCuts(b)[i]
			}
			return -1
		}
	})
	writer := newStoreClient(t, New(&Config{Store: fs}))
	intact := []string{info.ID, "b7"}
	ids := append([]string(nil), intact...)
	for i := 0; i < nCuts; i++ {
		ids = append(ids, fmt.Sprintf("b%d", 100+i))
	}
	for _, id := range ids {
		resp, err := writer.srv.Client().Do(mustRequest(t, "PUT",
			writer.srv.URL+"/v1/graphs/net/builds/"+id+"/snapshot", up))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %s: %d", id, resp.StatusCode)
		}
	}
	if keys, _ := fs.List(); len(keys) != len(ids) {
		t.Fatalf("store holds %d keys, want %d", len(keys), len(ids))
	}

	srv := New(&Config{Store: fs})
	restored, err := srv.WarmStart()
	if restored != len(intact) {
		t.Fatalf("warm start restored %d builds, want the %d intact ones (err %v)", restored, len(intact), err)
	}
	if err == nil {
		t.Fatal("warm start over torn snapshots reported no error")
	}
	for id, i := range torn {
		if !strings.Contains(err.Error(), "net/"+id+": ") {
			t.Errorf("warm start error does not name %s (cut %d)", id, i)
		}
	}
	c := newStoreClient(t, srv)
	for id := range torn {
		if code, body := c.do("GET", "/v1/graphs/net/builds/"+id, nil); code != http.StatusNotFound {
			t.Errorf("torn snapshot %s registered: %d %s", id, code, body)
		}
	}
	want := queryBatch(t, src, "net", info.ID)
	for _, id := range intact {
		var got buildInfo
		c.decode("GET", "/v1/graphs/net/builds/"+id, nil, http.StatusOK, &got)
		if got.Status != StatusReady || !got.Restored {
			t.Fatalf("intact build %s not restored: %+v", id, got)
		}
		if b := queryBatch(t, c, "net", id); !bytes.Equal(b, want) {
			t.Fatalf("restored build %s answers differ:\n%s\nwant\n%s", id, b, want)
		}
	}
}
