package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sched"
)

// TestBuildPanicFailsBuild runs runBuild with builders that panic — on the
// build goroutine itself and on a sched.Run pool worker — on a server with
// one build slot. Each build must land in "failed" with error
// "panic: <value>", close done, and log its stack through BuildLog and
// nowhere in the API. A following real build on the same server must
// reach "ready", which it could not if the panicking build had kept the
// slot.
func TestBuildPanicFailsBuild(t *testing.T) {
	var mu sync.Mutex
	var events []BuildEvent
	s := New(&Config{MaxConcurrentBuilds: 1, BuildLog: func(e BuildEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}})
	c := newTestClientFor(t, s)
	c.createGraph("g", GenSpec{Family: "cycle", N: 12})
	builders := map[string]func(*graph.Graph, *core.Options) (*core.Structure, error){
		"goroutine": func(*graph.Graph, *core.Options) (*core.Structure, error) {
			panic("injected on the build goroutine")
		},
		"worker": func(g *graph.Graph, opts *core.Options) (*core.Structure, error) {
			_, err := sched.Run(opts.Context(), 2, g.N(), func(_ int, next func() (int, int, bool)) (int, error) {
				for lo, hi, ok := next(); ok; lo, hi, ok = next() {
					if lo <= 5 && 5 < hi {
						panic("injected on a pool worker")
					}
				}
				return 0, nil
			})
			return nil, err
		},
	}
	for name, build := range builders {
		be := injectBuild(t, s, "g")
		s.runBuild(context.Background(), "g", s.graphs["g"].g, be, build, 2)
		select {
		case <-be.done:
		default:
			t.Fatalf("%s: done still open after runBuild returned", name)
		}
		code, body := c.do("GET", "/v1/graphs/g/builds/"+be.id, nil)
		var info buildInfo
		if err := json.Unmarshal(body, &info); err != nil || code != http.StatusOK {
			t.Fatalf("%s: GET build %s: code %d, %v", name, be.id, code, err)
		}
		if info.Status != StatusFailed || !strings.HasPrefix(info.Error, "panic: injected") {
			t.Fatalf("%s: build %s is %s with error %q", name, be.id, info.Status, info.Error)
		}
		if strings.Contains(string(body), "panic_test.go") {
			t.Fatalf("%s: the API response carries a stack: %s", name, body)
		}
		mu.Lock()
		ev := events[len(events)-1]
		mu.Unlock()
		if ev.Build != be.id || ev.Status != StatusFailed || !strings.Contains(ev.Stack, "panic_test.go") {
			t.Fatalf("%s: logged %+v, want the failed build with its stack", name, ev)
		}
	}
	id := c.startBuild("g", createBuildRequest{Mode: "dual", Sources: []int{0}})
	if info := c.waitReady("g", id); info.Status != StatusReady {
		t.Fatalf("build after the panics is %s (%q)", info.Status, info.Error)
	}
}

// newTestClientFor is newTestClient over a server the test keeps.
func newTestClientFor(t *testing.T, s *Server) *testClient {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &testClient{t: t, srv: ts}
}

// injectBuild registers a queued build entry on graph name, the way
// handleCreateBuild does before it starts runBuild.
func injectBuild(t *testing.T, s *Server, name string) *buildEntry {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.graphs[name]
	s.buildSeq++
	_, cancel := context.WithCancel(s.baseCtx)
	be := &buildEntry{
		id:       fmt.Sprintf("b%d", s.buildSeq),
		mode:     "dual",
		sources:  []int{0},
		status:   StatusQueued,
		created:  time.Now(),
		cancel:   cancel,
		done:     make(chan struct{}),
		progress: &core.Progress{},
	}
	g.builds[be.id] = be
	g.order = append(g.order, be.id)
	s.builds.Add(1)
	return be
}
