package server

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/snap"
)

// A Store persists encoded build snapshots keyed by (graph, build). The
// server snapshots completed and PUT builds into it (ready builds in the
// background, PUT ones before answering) and warm-starts from it on boot;
// GET snapshot encodes live state and never reads it. Implementations
// must be safe for concurrent use. Keys must satisfy the registry name
// grammar (see nameRe); stores reject anything else, so a hostile build
// ID can never become a path traversal.
type Store interface {
	// Put atomically replaces the snapshot under the key with whatever
	// write produces: a reader must never observe a partial write.
	Put(graph, build string, write func(io.Writer) error) error
	// Open returns the stored snapshot bytes; os.ErrNotExist when absent.
	Open(graph, build string) (io.ReadCloser, error)
	// List enumerates every stored key in deterministic order.
	List() ([]StoreKey, error)
	// Delete removes the snapshot under one (graph, build) key (a no-op
	// when absent). DELETE on a terminal build uses it.
	Delete(graph, build string) error
	// DeleteGraph removes every snapshot of the named graph (a no-op when
	// none are stored).
	DeleteGraph(graph string) error
}

// StoreKey identifies one stored snapshot.
type StoreKey struct {
	Graph string
	Build string
}

func checkStoreKey(graph, build string) error {
	if !nameRe.MatchString(graph) {
		return fmt.Errorf("server: bad graph name %q", graph)
	}
	if !nameRe.MatchString(build) {
		return fmt.Errorf("server: bad build name %q", build)
	}
	return nil
}

// ---- in-memory store ----

// MemStore is a Store keeping encoded snapshots in process memory. It is
// the registry's historical behavior (artifacts die with the process) made
// explicit, and the natural store for tests and for replication relays
// that only ever stream snapshots through.
type MemStore struct {
	mu    sync.RWMutex
	snaps map[StoreKey][]byte // guarded by mu
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{snaps: make(map[StoreKey][]byte)}
}

// Put implements Store.
func (s *MemStore) Put(graph, build string, write func(io.Writer) error) error {
	if err := checkStoreKey(graph, build); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	s.mu.Lock()
	s.snaps[StoreKey{Graph: graph, Build: build}] = buf.Bytes()
	s.mu.Unlock()
	return nil
}

// Open implements Store. The stored slice is never mutated, so readers
// share it without copying.
func (s *MemStore) Open(graph, build string) (io.ReadCloser, error) {
	if err := checkStoreKey(graph, build); err != nil {
		return nil, err
	}
	s.mu.RLock()
	b, ok := s.snaps[StoreKey{Graph: graph, Build: build}]
	s.mu.RUnlock()
	if !ok {
		return nil, os.ErrNotExist
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}

// List implements Store.
func (s *MemStore) List() ([]StoreKey, error) {
	s.mu.RLock()
	out := make([]StoreKey, 0, len(s.snaps))
	for k := range s.snaps {
		out = append(out, k)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Graph != out[j].Graph {
			return out[i].Graph < out[j].Graph
		}
		return out[i].Build < out[j].Build
	})
	return out, nil
}

// Delete implements Store.
func (s *MemStore) Delete(graph, build string) error {
	if err := checkStoreKey(graph, build); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.snaps, StoreKey{Graph: graph, Build: build})
	s.mu.Unlock()
	return nil
}

// DeleteGraph implements Store.
func (s *MemStore) DeleteGraph(graph string) error {
	s.mu.Lock()
	for k := range s.snaps {
		if k.Graph == graph {
			delete(s.snaps, k)
		}
	}
	s.mu.Unlock()
	return nil
}

// ---- disk store ----

// snapExt is the on-disk snapshot file suffix.
const snapExt = ".ftbfs"

// DiskStore is a Store laying snapshots out as
// <dir>/<graph>/<build>.ftbfs. Writes go to a temporary file in the
// destination directory followed by fsync + atomic rename, so a crash
// mid-snapshot can never leave a corrupt file under a live name, and a
// concurrent reader sees either the old snapshot or the new one, whole.
type DiskStore struct {
	dir string
}

// NewDiskStore opens (creating if needed) a snapshot directory.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: snapshot dir: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

func (s *DiskStore) path(graph, build string) string {
	return filepath.Join(s.dir, graph, build+snapExt)
}

// Put implements Store via snap.AtomicWriteFile, the shared
// temp-fsync-rename protocol.
func (s *DiskStore) Put(graph, build string, write func(io.Writer) error) error {
	if err := checkStoreKey(graph, build); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(s.dir, graph), 0o755); err != nil {
		return fmt.Errorf("server: snapshot dir: %w", err)
	}
	return snap.AtomicWriteFile(s.path(graph, build), write)
}

// Open implements Store.
func (s *DiskStore) Open(graph, build string) (io.ReadCloser, error) {
	if err := checkStoreKey(graph, build); err != nil {
		return nil, err
	}
	return os.Open(s.path(graph, build))
}

// List implements Store. Stray files (wrong suffix, bad names, leftover
// temporaries) are skipped, not errors: the store owns only what it wrote.
func (s *DiskStore) List() ([]StoreKey, error) {
	graphs, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("server: snapshot dir: %w", err)
	}
	var out []StoreKey
	for _, gd := range graphs {
		if !gd.IsDir() || !nameRe.MatchString(gd.Name()) {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, gd.Name()))
		if err != nil {
			return nil, fmt.Errorf("server: snapshot dir %s: %w", gd.Name(), err)
		}
		for _, fd := range files {
			name, ok := strings.CutSuffix(fd.Name(), snapExt)
			if fd.IsDir() || !ok || !nameRe.MatchString(name) {
				continue
			}
			out = append(out, StoreKey{Graph: gd.Name(), Build: name})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Graph != out[j].Graph {
			return out[i].Graph < out[j].Graph
		}
		return out[i].Build < out[j].Build
	})
	return out, nil
}

// Delete implements Store. Removing the last snapshot of a graph leaves
// its (empty) directory behind; List skips directories without snapshot
// files, and DeleteGraph removes the directory itself.
func (s *DiskStore) Delete(graph, build string) error {
	if err := checkStoreKey(graph, build); err != nil {
		return err
	}
	if err := os.Remove(s.path(graph, build)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("server: snapshot delete: %w", err)
	}
	return nil
}

// DeleteGraph implements Store.
func (s *DiskStore) DeleteGraph(graph string) error {
	if !nameRe.MatchString(graph) {
		return fmt.Errorf("server: bad graph name %q", graph)
	}
	if err := os.RemoveAll(filepath.Join(s.dir, graph)); err != nil {
		return fmt.Errorf("server: snapshot delete: %w", err)
	}
	return nil
}
