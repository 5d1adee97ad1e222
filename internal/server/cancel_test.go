package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// These tests exercise the interruptible build plane: DELETE-cancellation
// of queued and running builds, graph-deletion fan-out, graceful
// shutdown, live progress, the stats endpoint, and — under -race — a
// start/cancel/delete storm asserting no goroutine leaks and that no
// cancelled build ever serves a query.

// doJSON drives the handler directly (no network, no keep-alive
// goroutines — the storm test counts goroutines).
func doJSON(t *testing.T, h http.Handler, method, path, body string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func getBuild(t *testing.T, h http.Handler, path string) buildInfo {
	t.Helper()
	code, body := doJSON(t, h, "GET", path, "")
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, code, body)
	}
	var info buildInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", path, body, err)
	}
	return info
}

// waitFor polls the build resource until cond holds (or fails the test).
func waitFor(t *testing.T, h http.Handler, path string, timeout time.Duration,
	cond func(buildInfo) bool) buildInfo {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		info := getBuild(t, h, path)
		if cond(info) {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached for %s; last: %+v", path, info)
		}
		time.Sleep(time.Millisecond)
	}
}

// slowGraph is big enough that a dual build runs long enough to catch
// mid-flight on any machine, but cancels in milliseconds.
const slowGraph = `{"name":"slow","gen":{"family":"sparse","n":1500,"avgDeg":5,"seed":7}}`

func TestBuildCancelE2E(t *testing.T) {
	s := New(&Config{MaxConcurrentBuilds: 2})
	h := s.Handler()
	if code, body := doJSON(t, h, "POST", "/v1/graphs", slowGraph); code != http.StatusCreated {
		t.Fatalf("create graph: %d %s", code, body)
	}
	code, body := doJSON(t, h, "POST", "/v1/graphs/slow/builds", `{"mode":"dual","sources":[0]}`)
	if code != http.StatusAccepted {
		t.Fatalf("create build: %d %s", code, body)
	}
	var created buildInfo
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	path := "/v1/graphs/slow/builds/" + created.ID

	// Catch it running, with live progress and live elapsed time.
	running := waitFor(t, h, path, 30*time.Second, func(i buildInfo) bool {
		return i.Status == StatusBuilding && i.Progress != nil && i.Progress.Dijkstras > 0
	})
	if running.Progress.UnitsTotal == 0 || running.Progress.Fraction >= 1 {
		t.Fatalf("nonsensical live progress: %+v", running.Progress)
	}
	if running.ElapsedMS <= 0 {
		t.Fatalf("running build reports no elapsed time: %+v", running)
	}

	// DELETE cancels and waits for the build goroutine to wind down; the
	// cooperative poll cadence makes this a few ms (measured in
	// EXPERIMENTS.md; the bound here is generous for loaded CI).
	start := time.Now()
	code, body = doJSON(t, h, "DELETE", path, "")
	latency := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("DELETE: %d %s", code, body)
	}
	var cancelled buildInfo
	if err := json.Unmarshal(body, &cancelled); err != nil {
		t.Fatal(err)
	}
	if cancelled.Status != StatusCancelled {
		t.Fatalf("status after DELETE = %q, want %q", cancelled.Status, StatusCancelled)
	}
	if cancelled.ElapsedMS <= 0 {
		t.Fatalf("cancelled build lost its elapsed time: %+v", cancelled)
	}
	if cancelled.Progress == nil || cancelled.Progress.UnitsDone >= cancelled.Progress.UnitsTotal {
		t.Fatalf("cancelled build progress says it finished: %+v", cancelled.Progress)
	}
	if latency > 5*time.Second {
		t.Fatalf("cancellation took %v", latency)
	}
	t.Logf("cancel latency %v at %d/%d units", latency,
		cancelled.Progress.UnitsDone, cancelled.Progress.UnitsTotal)

	// The slot is free again: a build on a small graph runs immediately.
	if n := len(s.buildSem); n != 0 {
		t.Fatalf("%d semaphore slots still held after cancel", n)
	}
	// A cancelled build never serves queries.
	for _, q := range []string{path + "/dist?source=0&target=1", path + "/dists?source=0"} {
		if code, body := doJSON(t, h, "GET", q, ""); code != http.StatusConflict ||
			!strings.Contains(string(body), StatusCancelled) {
			t.Fatalf("query on cancelled build: %d %s", code, body)
		}
	}
	if code, body := doJSON(t, h, "POST", path+"/query",
		`{"queries":[{"source":0,"target":1}]}`); code != http.StatusConflict {
		t.Fatalf("batch query on cancelled build: %d %s", code, body)
	}
	// GET keeps reporting the terminal state.
	if again := getBuild(t, h, path); again.Status != StatusCancelled {
		t.Fatalf("status flapped to %q", again.Status)
	}
	// Second DELETE disposes of the terminal entry entirely.
	if code, body := doJSON(t, h, "DELETE", path, ""); code != http.StatusNoContent {
		t.Fatalf("second DELETE: %d %s", code, body)
	}
	if code, _ := doJSON(t, h, "GET", path, ""); code != http.StatusNotFound {
		t.Fatalf("removed build still resolves: %d", code)
	}
}

// TestBuildParallelismBounded posts a dual build asking for 64 workers and
// checks, while it runs its fan-out, that the server started at most
// GOMAXPROCS of them: each worker holds its own repair scratch, so a
// client's parallelism must not set the daemon's memory.
func TestBuildParallelismBounded(t *testing.T) {
	s := New(&Config{MaxConcurrentBuilds: 1})
	h := s.Handler()
	if code, body := doJSON(t, h, "POST", "/v1/graphs", slowGraph); code != http.StatusCreated {
		t.Fatalf("create graph: %d %s", code, body)
	}
	baseline := runtime.NumGoroutine()
	code, body := doJSON(t, h, "POST", "/v1/graphs/slow/builds", `{"mode":"dual","sources":[0],"parallelism":64}`)
	if code != http.StatusAccepted {
		t.Fatalf("create build: %d %s", code, body)
	}
	var created buildInfo
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	path := "/v1/graphs/slow/builds/" + created.ID
	waitFor(t, h, path, 30*time.Second, func(i buildInfo) bool {
		return i.Status != StatusQueued && (i.Status != StatusBuilding || i.Progress != nil && i.Progress.Dijkstras > 0)
	})
	peak := 0
	for i := 0; i < 20; i++ {
		peak = max(peak, runtime.NumGoroutine())
		time.Sleep(time.Millisecond)
	}
	// The build goroutine and the pool's workers beyond the inline one,
	// plus slack for runtime helpers.
	if limit := baseline + runtime.GOMAXPROCS(0) + 4; peak > limit {
		t.Errorf("goroutines rose from %d to %d during the build, want at most %d (GOMAXPROCS %d)",
			baseline, peak, limit, runtime.GOMAXPROCS(0))
	}
	t.Logf("goroutines %d before the build, at most %d during it (GOMAXPROCS %d)", baseline, peak, runtime.GOMAXPROCS(0))
	if code, body := doJSON(t, h, "DELETE", path, ""); code != http.StatusOK && code != http.StatusNoContent {
		t.Fatalf("DELETE: %d %s", code, body)
	}
}

func TestQueuedBuildCancelledNeverStarts(t *testing.T) {
	s := New(&Config{MaxConcurrentBuilds: 1})
	if err := s.RegisterGraph("q", &GenSpec{Family: "path", N: 6}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	s.buildSem <- struct{}{} // occupy the only slot

	code, body := doJSON(t, h, "POST", "/v1/graphs/q/builds", `{"mode":"dual","sources":[0]}`)
	if code != http.StatusAccepted {
		t.Fatalf("create: %d %s", code, body)
	}
	var info buildInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	path := "/v1/graphs/q/builds/" + info.ID

	code, body = doJSON(t, h, "DELETE", path, "")
	if code != http.StatusOK {
		t.Fatalf("DELETE queued: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusCancelled {
		t.Fatalf("queued build after DELETE: %q", info.Status)
	}
	if info.ElapsedMS != 0 {
		t.Fatalf("never-started build reports build time %.3fms", info.ElapsedMS)
	}

	<-s.buildSem // free the slot: the cancelled build must NOT start
	time.Sleep(50 * time.Millisecond)
	info = getBuild(t, h, path)
	if info.Status != StatusCancelled {
		t.Fatalf("cancelled-while-queued build came back as %q", info.Status)
	}
	if info.Progress != nil && info.Progress.Dijkstras != 0 {
		t.Fatalf("cancelled-while-queued build did work: %+v", info.Progress)
	}
	if n := len(s.buildSem); n != 0 {
		t.Fatalf("%d slots held by a build that never started", n)
	}
}

func TestDeleteGraphCancelsBuilds(t *testing.T) {
	s := New(&Config{MaxConcurrentBuilds: 2})
	h := s.Handler()
	if code, body := doJSON(t, h, "POST", "/v1/graphs", slowGraph); code != http.StatusCreated {
		t.Fatalf("create graph: %d %s", code, body)
	}
	// One running build, one queued behind... two slots, so start three.
	for i := 0; i < 3; i++ {
		if code, body := doJSON(t, h, "POST", "/v1/graphs/slow/builds",
			`{"mode":"dual","sources":[0]}`); code != http.StatusAccepted {
			t.Fatalf("create build %d: %d %s", i, code, body)
		}
	}
	waitFor(t, h, "/v1/graphs/slow/builds/b1", 30*time.Second, func(i buildInfo) bool {
		return i.Status == StatusBuilding
	})
	if code, body := doJSON(t, h, "DELETE", "/v1/graphs/slow", ""); code != http.StatusNoContent {
		t.Fatalf("DELETE graph: %d %s", code, body)
	}
	// All build goroutines must wind down promptly (they are cancelled,
	// not abandoned): Shutdown waits for exactly those goroutines.
	ctx, cancelFn := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancelFn()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("builds of the deleted graph did not wind down: %v", err)
	}
	if n := len(s.buildSem); n != 0 {
		t.Fatalf("%d slots still held", n)
	}
}

func TestShutdownCancelsBuilds(t *testing.T) {
	s := New(&Config{MaxConcurrentBuilds: 1})
	h := s.Handler()
	if code, body := doJSON(t, h, "POST", "/v1/graphs", slowGraph); code != http.StatusCreated {
		t.Fatalf("create graph: %d %s", code, body)
	}
	if code, body := doJSON(t, h, "POST", "/v1/graphs/slow/builds",
		`{"mode":"dual","sources":[0]}`); code != http.StatusAccepted {
		t.Fatalf("create build: %d %s", code, body)
	}
	waitFor(t, h, "/v1/graphs/slow/builds/b1", 30*time.Second, func(i buildInfo) bool {
		return i.Status == StatusBuilding
	})
	ctx, cancelFn := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancelFn()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	t.Logf("shutdown drained in-flight build in %v", time.Since(start))
	if info := getBuild(t, h, "/v1/graphs/slow/builds/b1"); info.Status != StatusCancelled {
		t.Fatalf("build after shutdown: %q", info.Status)
	}
	// New builds are refused outright once shutdown has begun — nothing
	// can slip a goroutine past Shutdown's wait.
	code, body := doJSON(t, h, "POST", "/v1/graphs/slow/builds", `{"mode":"dual","sources":[0]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown create: %d %s, want 503", code, body)
	}
}

// TestCancelStorm is the -race storm: builds started, cancelled, deleted
// and queried concurrently; afterwards every goroutine is accounted for
// and no cancelled build answers queries.
func TestCancelStorm(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(&Config{MaxConcurrentBuilds: 2, Store: NewMemStore()})
	h := s.Handler()
	for gi := 0; gi < 2; gi++ {
		spec := fmt.Sprintf(`{"name":"g%d","gen":{"family":"sparse","n":600,"avgDeg":4,"seed":%d}}`, gi, gi+1)
		if code, body := doJSON(t, h, "POST", "/v1/graphs", spec); code != http.StatusCreated {
			t.Fatalf("graph g%d: %d %s", gi, code, body)
		}
	}
	var (
		mu    sync.Mutex
		paths []string
	)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			graph := fmt.Sprintf("g%d", w%2)
			for i := 0; i < 4; i++ {
				code, body := doJSON(t, h, "POST", "/v1/graphs/"+graph+"/builds",
					`{"mode":"dual","sources":[0]}`)
				if code != http.StatusAccepted {
					continue // graph may have been deleted by worker 5
				}
				var info buildInfo
				if err := json.Unmarshal(body, &info); err != nil {
					t.Error(err)
					return
				}
				path := "/v1/graphs/" + graph + "/builds/" + info.ID
				mu.Lock()
				paths = append(paths, path)
				mu.Unlock()
				switch i % 3 {
				case 0:
					doJSON(t, h, "DELETE", path, "") // cancel immediately
				case 1:
					time.Sleep(time.Duration(w+1) * 3 * time.Millisecond)
					doJSON(t, h, "GET", path, "") // progress read
					doJSON(t, h, "DELETE", path, "")
				default:
					doJSON(t, h, "GET", "/v1/stats", "")
				}
			}
			if w == 5 {
				doJSON(t, h, "DELETE", "/v1/graphs/g1", "") // rips builds out mid-flight
			}
		}(w)
	}
	wg.Wait()
	ctx, cancelFn := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelFn()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after storm: %v", err)
	}

	// No cancelled build ever serves queries (g1's builds are gone with
	// the graph — 404 is fine; what must never happen is 200 from a
	// cancelled build).
	for _, path := range paths {
		code, body := doJSON(t, h, "GET", path, "")
		if code == http.StatusNotFound {
			continue
		}
		var info buildInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		qcode, qbody := doJSON(t, h, "GET", path+"/dist?source=0&target=1", "")
		switch info.Status {
		case StatusReady:
			if qcode != http.StatusOK {
				t.Fatalf("ready build refused query: %d %s", qcode, qbody)
			}
		case StatusCancelled, StatusQueued, StatusBuilding, StatusFailed:
			if qcode == http.StatusOK {
				t.Fatalf("%s build served a query: %s", info.Status, qbody)
			}
		default:
			t.Fatalf("unknown status %q", info.Status)
		}
	}

	// Every build goroutine (and snapshot writer) must have exited; give
	// the runtime a moment to collect finished goroutines.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := New(&Config{MaxConcurrentBuilds: 1})
	if err := s.RegisterGraph("st", &GenSpec{Family: "sparse", N: 80, AvgDeg: 4, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	var stats statsResponse
	code, body := doJSON(t, h, "GET", "/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Graphs != 1 || stats.BuildSlots.Capacity != 1 || stats.BuildSlots.InUse != 0 || stats.Cache != nil {
		t.Fatalf("idle stats: %+v", stats)
	}

	s.buildSem <- struct{}{} // hold the slot so the build stays queued
	code, body = doJSON(t, h, "POST", "/v1/graphs/st/builds", `{"mode":"dual","sources":[0]}`)
	if code != http.StatusAccepted {
		t.Fatalf("create build: %d %s", code, body)
	}
	var info buildInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	code, body = doJSON(t, h, "GET", "/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	stats = statsResponse{}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.BuildSlots.InUse != 1 || stats.BuildSlots.Queued != 1 || stats.Builds[StatusQueued] != 1 {
		t.Fatalf("queued stats: %+v", stats)
	}
	<-s.buildSem
	waitFor(t, h, "/v1/graphs/st/builds/"+info.ID, 30*time.Second, func(i buildInfo) bool {
		return i.Status == StatusReady
	})
	// Touch the cache so the aggregate counters move: the dual build
	// answers from its replacement-distance table, a single build, which
	// has none, through the memo.
	code, body = doJSON(t, h, "POST", "/v1/graphs/st/builds", `{"mode":"single","sources":[0]}`)
	if code != http.StatusAccepted {
		t.Fatalf("create build: %d %s", code, body)
	}
	var single buildInfo
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	waitFor(t, h, "/v1/graphs/st/builds/"+single.ID, 30*time.Second, func(i buildInfo) bool {
		return i.Status == StatusReady
	})
	for _, q := range []string{info.ID + "/dist?source=0&target=3&faults=1", single.ID + "/dists?source=0&faults=1"} {
		if code, body := doJSON(t, h, "GET", "/v1/graphs/st/builds/"+q, ""); code != http.StatusOK {
			t.Fatalf("query %s: %d %s", q, code, body)
		}
	}
	stats = statsResponse{}
	_, body = doJSON(t, h, "GET", "/v1/stats", "")
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Builds[StatusReady] != 2 || stats.BuildSlots.InUse != 0 {
		t.Fatalf("ready stats: %+v", stats)
	}
	if stats.Cache == nil || stats.Cache.Misses == 0 || stats.Cache.TableBytes == 0 {
		t.Fatalf("cache aggregate missing: %+v", stats.Cache)
	}
}

func TestBuildLogEvents(t *testing.T) {
	var (
		mu     sync.Mutex
		events []BuildEvent
	)
	s := New(&Config{MaxConcurrentBuilds: 2, BuildLog: func(e BuildEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}})
	h := s.Handler()
	if err := s.RegisterGraph("lg", &GenSpec{Family: "sparse", N: 80, AvgDeg: 4, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	code, body := doJSON(t, h, "POST", "/v1/graphs/lg/builds", `{"mode":"dual","sources":[0]}`)
	if code != http.StatusAccepted {
		t.Fatalf("create: %d %s", code, body)
	}
	var info buildInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	ready := waitFor(t, h, "/v1/graphs/lg/builds/"+info.ID, 30*time.Second, func(i buildInfo) bool {
		return i.Status == StatusReady
	})

	if code, body := doJSON(t, h, "POST", "/v1/graphs", slowGraph); code != http.StatusCreated {
		t.Fatalf("slow graph: %d %s", code, body)
	}
	code, body = doJSON(t, h, "POST", "/v1/graphs/slow/builds", `{"mode":"dual","sources":[0]}`)
	if code != http.StatusAccepted {
		t.Fatalf("slow build: %d %s", code, body)
	}
	var slow buildInfo
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	slowPath := "/v1/graphs/slow/builds/" + slow.ID
	waitFor(t, h, slowPath, 30*time.Second, func(i buildInfo) bool { return i.Status == StatusBuilding })
	if code, _ := doJSON(t, h, "DELETE", slowPath, ""); code != http.StatusOK {
		t.Fatalf("cancel: %d", code)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(events), events)
	}
	byStatus := map[string]BuildEvent{}
	for _, e := range events {
		byStatus[e.Status] = e
	}
	r, ok := byStatus[StatusReady]
	if !ok || r.Graph != "lg" || r.Mode != "dual" || r.Edges != ready.Edges ||
		r.Dijkstras != int64(ready.Stats.Dijkstras) || r.ElapsedMS <= 0 {
		t.Fatalf("ready event wrong: %+v (build %+v)", r, ready)
	}
	c, ok := byStatus[StatusCancelled]
	if !ok || c.Graph != "slow" || c.Build != slow.ID || c.Dijkstras == 0 || c.ElapsedMS <= 0 {
		t.Fatalf("cancelled event wrong: %+v", c)
	}
}

func TestDeleteReadyBuildRemovesSnapshot(t *testing.T) {
	store := NewMemStore()
	s := New(&Config{Store: store})
	h := s.Handler()
	if err := s.RegisterGraph("d", &GenSpec{Family: "sparse", N: 60, AvgDeg: 4, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	code, body := doJSON(t, h, "POST", "/v1/graphs/d/builds", `{"mode":"dual","sources":[0]}`)
	if code != http.StatusAccepted {
		t.Fatalf("create: %d %s", code, body)
	}
	var info buildInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	path := "/v1/graphs/d/builds/" + info.ID
	waitFor(t, h, path, 30*time.Second, func(i buildInfo) bool {
		return i.Status == StatusReady && i.Snapshot == SnapSaved
	})
	if keys, _ := store.List(); len(keys) != 1 {
		t.Fatalf("stored snapshots: %v", keys)
	}
	if code, body := doJSON(t, h, "DELETE", path, ""); code != http.StatusNoContent {
		t.Fatalf("DELETE ready build: %d %s", code, body)
	}
	if keys, _ := store.List(); len(keys) != 0 {
		t.Fatalf("snapshot survived build deletion: %v", keys)
	}
	if code, _ := doJSON(t, h, "GET", path, ""); code != http.StatusNotFound {
		t.Fatalf("deleted build still resolves: %d", code)
	}
}
