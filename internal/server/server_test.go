package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/oracle"
)

// testClient wraps an httptest server with JSON helpers.
type testClient struct {
	t   *testing.T
	srv *httptest.Server
}

func newTestClient(t *testing.T, cfg *Config) *testClient {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return &testClient{t: t, srv: ts}
}

func (c *testClient) do(method, path string, body any) (int, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, out
}

func (c *testClient) decode(method, path string, body any, wantCode int, into any) {
	c.t.Helper()
	code, out := c.do(method, path, body)
	if code != wantCode {
		c.t.Fatalf("%s %s: code %d (want %d): %s", method, path, code, wantCode, out)
	}
	if into != nil {
		if err := json.Unmarshal(out, into); err != nil {
			c.t.Fatalf("%s %s: bad JSON %q: %v", method, path, out, err)
		}
	}
}

// waitReady polls the build resource until it leaves "queued"/"building".
func (c *testClient) waitReady(graph, build string) buildInfo {
	c.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var info buildInfo
		c.decode("GET", "/v1/graphs/"+graph+"/builds/"+build, nil, http.StatusOK, &info)
		if info.Status != StatusQueued && info.Status != StatusBuilding {
			return info
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("build %s/%s still building after 30s", graph, build)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *testClient) createGraph(name string, spec GenSpec) graphInfo {
	c.t.Helper()
	var info graphInfo
	c.decode("POST", "/v1/graphs", createGraphRequest{Name: name, Gen: &spec}, http.StatusCreated, &info)
	return info
}

func (c *testClient) startBuild(graph string, req createBuildRequest) string {
	c.t.Helper()
	var info buildInfo
	c.decode("POST", "/v1/graphs/"+graph+"/builds", req, http.StatusAccepted, &info)
	return info.ID
}

// distResponse mirrors the wire shape of a single dist answer.
type distResponse struct {
	Dist      int32 `json:"dist"`
	Reachable bool  `json:"reachable"`
}

func faultsParam(faults []int) string {
	parts := make([]string, len(faults))
	for i, f := range faults {
		parts[i] = fmt.Sprint(f)
	}
	return strings.Join(parts, ",")
}

// TestServerLifecycle walks the whole API: register, build, inspect,
// query, delete.
func TestServerLifecycle(t *testing.T) {
	c := newTestClient(t, nil)
	gi := c.createGraph("g1", GenSpec{Family: "gnp", N: 24, P: 0.2, Seed: 11})
	if gi.N != 24 || gi.M <= 0 {
		t.Fatalf("bad graph info: %+v", gi)
	}
	id := c.startBuild("g1", createBuildRequest{Mode: "dual", Sources: []int{0}})
	info := c.waitReady("g1", id)
	if info.Status != StatusReady {
		t.Fatalf("build failed: %+v", info)
	}
	if info.Faults != 2 || info.Edges <= 0 || info.Edges > info.GraphM || info.Stats == nil {
		t.Fatalf("bad build info: %+v", info)
	}

	var dr distResponse
	c.decode("GET", "/v1/graphs/g1/builds/"+id+"/dist?source=0&target=5&faults=1,2", nil, http.StatusOK, &dr)
	if !dr.Reachable {
		t.Fatalf("expected reachable answer: %+v", dr)
	}

	// Listing includes the graph and its build.
	var list struct {
		Graphs []graphInfo `json:"graphs"`
	}
	c.decode("GET", "/v1/graphs", nil, http.StatusOK, &list)
	if len(list.Graphs) != 1 || len(list.Graphs[0].Builds) != 1 {
		t.Fatalf("bad listing: %+v", list)
	}

	if code, _ := c.do("DELETE", "/v1/graphs/g1", nil); code != http.StatusNoContent {
		t.Fatalf("delete code %d", code)
	}
	if code, _ := c.do("GET", "/v1/graphs/g1", nil); code != http.StatusNotFound {
		t.Fatalf("deleted graph still resolves: %d", code)
	}
}

// TestServerMatchesGroundTruth replays every single-fault event (and a
// spread of dual-fault events) through the HTTP API and compares each
// answer with BFS over G \ F.
func TestServerMatchesGroundTruth(t *testing.T) {
	seed := int64(8)
	g := gen.GNP(16, 0.25, seed) // must match the server-side spec below
	c := newTestClient(t, nil)
	c.createGraph("gt", GenSpec{Family: "gnp", N: 16, P: 0.25, Seed: seed})
	id := c.startBuild("gt", createBuildRequest{Mode: "dual", Sources: []int{0}})
	if info := c.waitReady("gt", id); info.Status != StatusReady {
		t.Fatalf("build failed: %+v", info)
	}
	truth := bfs.NewRunner(g)
	check := func(faults []int) {
		t.Helper()
		truth.Run(0, faults, nil)
		var resp struct {
			Dists []int32 `json:"dists"`
		}
		c.decode("GET", "/v1/graphs/gt/builds/"+id+"/dists?source=0&faults="+faultsParam(faults),
			nil, http.StatusOK, &resp)
		if len(resp.Dists) != g.N() {
			t.Fatalf("faults %v: %d dists for %d vertices", faults, len(resp.Dists), g.N())
		}
		for v := 0; v < g.N(); v++ {
			if resp.Dists[v] != truth.Dist(v) {
				t.Fatalf("faults %v target %d: server %d, truth %d", faults, v, resp.Dists[v], truth.Dist(v))
			}
		}
	}
	check(nil)
	for a := 0; a < g.M(); a++ {
		check([]int{a})
		for b := a + 1; b < g.M(); b += 9 {
			check([]int{a, b})
		}
	}
}

// TestServerRouteValid checks routes returned under failures: right
// length, valid edges, fault avoidance.
func TestServerRouteValid(t *testing.T) {
	g := gen.Grid(4, 4)
	c := newTestClient(t, nil)
	c.createGraph("grid", GenSpec{Family: "grid", Rows: 4, Cols: 4})
	id := c.startBuild("grid", createBuildRequest{Mode: "dual", Sources: []int{0}})
	if info := c.waitReady("grid", id); info.Status != StatusReady {
		t.Fatalf("build failed: %+v", info)
	}
	truth := bfs.NewRunner(g)
	for a := 0; a < g.M(); a += 3 {
		truth.Run(0, []int{a}, nil)
		for v := 1; v < g.N(); v += 5 {
			var resp struct {
				Reachable bool  `json:"reachable"`
				Dist      int   `json:"dist"`
				Path      []int `json:"path"`
			}
			c.decode("GET", fmt.Sprintf("/v1/graphs/grid/builds/%s/route?source=0&target=%d&faults=%d", id, v, a),
				nil, http.StatusOK, &resp)
			want := truth.Dist(v)
			if (want == bfs.Unreachable) == resp.Reachable {
				t.Fatalf("fault %d target %d: reachable=%v want dist %d", a, v, resp.Reachable, want)
			}
			if !resp.Reachable {
				continue
			}
			if int32(resp.Dist) != want || len(resp.Path) != resp.Dist+1 {
				t.Fatalf("fault %d target %d: dist %d path %v (want %d)", a, v, resp.Dist, resp.Path, want)
			}
			for i := 0; i+1 < len(resp.Path); i++ {
				id2, ok := g.EdgeID(resp.Path[i], resp.Path[i+1])
				if !ok {
					t.Fatalf("path uses non-edge %d-%d", resp.Path[i], resp.Path[i+1])
				}
				if id2 == a {
					t.Fatalf("path uses failed edge %d", a)
				}
			}
		}
	}
}

// TestServerEdgeListUpload registers a graph from an uploaded edge list.
func TestServerEdgeListUpload(t *testing.T) {
	c := newTestClient(t, nil)
	var info graphInfo
	c.decode("POST", "/v1/graphs",
		createGraphRequest{Name: "up", EdgeList: "n 4\n0 1\n1 2\n2 3\n0 3\n"},
		http.StatusCreated, &info)
	if info.N != 4 || info.M != 4 {
		t.Fatalf("bad uploaded graph: %+v", info)
	}
	id := c.startBuild("up", createBuildRequest{Mode: "single", Sources: []int{0}})
	if info := c.waitReady("up", id); info.Status != StatusReady {
		t.Fatalf("build failed: %+v", info)
	}
	var dr distResponse
	c.decode("GET", "/v1/graphs/up/builds/"+id+"/dist?source=0&target=2&faults=0", nil, http.StatusOK, &dr)
	// 4-cycle with edge 0-1 failed: 0→2 via 3 still takes 2 hops.
	if !dr.Reachable || dr.Dist != 2 {
		t.Fatalf("want dist 2, got %+v", dr)
	}
}

// TestServerMultiSource builds an FT-MBFS structure and queries both
// sources.
func TestServerMultiSource(t *testing.T) {
	g := gen.GNP(14, 0.3, 5)
	c := newTestClient(t, nil)
	c.createGraph("ms", GenSpec{Family: "gnp", N: 14, P: 0.3, Seed: 5})
	id := c.startBuild("ms", createBuildRequest{Mode: "multi", Sources: []int{0, 7}})
	if info := c.waitReady("ms", id); info.Status != StatusReady {
		t.Fatalf("build failed: %+v", info)
	}
	truth := bfs.NewRunner(g)
	for _, s := range []int{0, 7} {
		truth.Run(s, []int{2}, nil)
		var dr distResponse
		c.decode("GET", fmt.Sprintf("/v1/graphs/ms/builds/%s/dist?source=%d&target=5&faults=2", id, s),
			nil, http.StatusOK, &dr)
		if dr.Dist != truth.Dist(5) {
			t.Fatalf("source %d: server %d, truth %d", s, dr.Dist, truth.Dist(5))
		}
	}
}

// TestServerErrors exercises the failure paths.
func TestServerErrors(t *testing.T) {
	c := newTestClient(t, nil)
	c.createGraph("e", GenSpec{Family: "path", N: 5})
	id := c.startBuild("e", createBuildRequest{Mode: "dual", Sources: []int{0}})
	c.waitReady("e", id)

	cases := []struct {
		method, path string
		body         any
		wantCode     int
	}{
		{"POST", "/v1/graphs", createGraphRequest{Name: "bad name!", Gen: &GenSpec{Family: "path", N: 3}}, http.StatusBadRequest},
		{"POST", "/v1/graphs", createGraphRequest{Name: "e", Gen: &GenSpec{Family: "path", N: 3}}, http.StatusConflict},
		{"POST", "/v1/graphs", createGraphRequest{Name: "both", Gen: &GenSpec{Family: "path", N: 3}, EdgeList: "0 1"}, http.StatusBadRequest},
		{"POST", "/v1/graphs", createGraphRequest{Name: "neither"}, http.StatusBadRequest},
		{"POST", "/v1/graphs", createGraphRequest{Name: "badfam", Gen: &GenSpec{Family: "nope", N: 3}}, http.StatusBadRequest},
		{"POST", "/v1/graphs", createGraphRequest{Name: "badlist", EdgeList: "0 x"}, http.StatusBadRequest},
		{"POST", "/v1/graphs/missing/builds", createBuildRequest{Mode: "dual", Sources: []int{0}}, http.StatusNotFound},
		{"POST", "/v1/graphs/e/builds", createBuildRequest{Mode: "nope", Sources: []int{0}}, http.StatusBadRequest},
		{"POST", "/v1/graphs/e/builds", createBuildRequest{Mode: "dual", Sources: []int{0, 1}}, http.StatusBadRequest},
		{"POST", "/v1/graphs/e/builds", createBuildRequest{Mode: "dual", Sources: []int{99}}, http.StatusBadRequest},
		{"POST", "/v1/graphs/e/builds", createBuildRequest{Mode: "multi"}, http.StatusBadRequest},
		{"GET", "/v1/graphs/missing", nil, http.StatusNotFound},
		{"DELETE", "/v1/graphs/missing", nil, http.StatusNotFound},
		{"GET", "/v1/graphs/e/builds/zzz", nil, http.StatusNotFound},
		{"GET", "/v1/graphs/e/builds/" + id + "/dist?source=0&target=1&faults=0,1,2", nil, http.StatusBadRequest}, // budget
		{"GET", "/v1/graphs/e/builds/" + id + "/dist?source=3&target=1", nil, http.StatusBadRequest},              // non-source
		{"GET", "/v1/graphs/e/builds/" + id + "/dist?source=0&target=99", nil, http.StatusBadRequest},
		{"GET", "/v1/graphs/e/builds/" + id + "/dist?source=0", nil, http.StatusBadRequest}, // no target
		{"GET", "/v1/graphs/e/builds/" + id + "/dist?source=0&target=1&faults=x", nil, http.StatusBadRequest},
		{"GET", "/v1/graphs/e/builds/" + id + "/dist?source=0&target=1&faults=999", nil, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, out := c.do(tc.method, tc.path, tc.body)
		if code != tc.wantCode {
			t.Errorf("%s %s: code %d (want %d): %s", tc.method, tc.path, code, tc.wantCode, out)
		}
	}
}

// TestCacheBudgetWiring checks that Config.CacheBytes reaches each
// build's oracle set exactly as configured, as its CacheStats report the
// bounds: the default budget, an explicit one, and < 0 turning the memo
// off.
func TestCacheBudgetWiring(t *testing.T) {
	g := gen.GNP(12, 0.3, 1)
	st, err := core.BuildSingle(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		cfg       Config
		wantBytes int64
	}{
		{"default", Config{}, oracle.DefaultCacheBytes},
		{"byte budget", Config{CacheBytes: 1 << 20}, 1 << 20},
		{"disabled", Config{CacheBytes: -1}, 0},
	}
	for _, tc := range cases {
		set, err := New(&tc.cfg).newOracleSet(st)
		if err != nil {
			t.Fatal(err)
		}
		if cs := set.CacheStats(); cs.BytesCapacity != tc.wantBytes {
			t.Errorf("%s: budget %d bytes, want %d", tc.name, cs.BytesCapacity, tc.wantBytes)
		}
	}
}

// TestServerBodyTooLarge checks oversized uploads get 413, not 400.
func TestServerBodyTooLarge(t *testing.T) {
	c := newTestClient(t, &Config{MaxBodyBytes: 256})
	big := strings.Repeat("0 1\n", 200)
	code, out := c.do("POST", "/v1/graphs", createGraphRequest{Name: "big", EdgeList: big})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: code %d (want 413): %s", code, out)
	}
}

// TestServerHealthz smoke-checks the liveness endpoint.
func TestServerHealthz(t *testing.T) {
	c := newTestClient(t, nil)
	code, out := c.do("GET", "/healthz", nil)
	if code != http.StatusOK || !strings.Contains(string(out), "ok") {
		t.Fatalf("healthz: %d %s", code, out)
	}
}

// TestServerConcurrentClients hammers one ready build with ≥ 8 concurrent
// clients mixing dist, dists and route queries; under -race this
// exercises the shared registry, oracle pool and LRU. Answers are checked
// against precomputed ground truth.
func TestServerConcurrentClients(t *testing.T) {
	seed := int64(21)
	g := gen.GNP(24, 0.2, seed)
	c := newTestClient(t, &Config{CacheBytes: 4 << 10}) // ~16 entries at n=24: force eviction under load
	c.createGraph("cc", GenSpec{Family: "gnp", N: 24, P: 0.2, Seed: seed})
	id := c.startBuild("cc", createBuildRequest{Mode: "dual", Sources: []int{0}})
	if info := c.waitReady("cc", id); info.Status != StatusReady {
		t.Fatalf("build failed: %+v", info)
	}
	events := make([][]int, 0, 40)
	truth := make([][]int32, 0, 40)
	for a := 0; a < g.M() && len(events) < 40; a += 2 {
		f := []int{a, (a + 11) % g.M()}
		if f[0] == f[1] {
			f = f[:1]
		}
		events = append(events, f)
		truth = append(truth, bfs.Distances(g, 0, f))
	}

	const clients = 10
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for i := range events {
					idx := (i + cl*7) % len(events)
					target := (cl*5 + i) % g.N()
					url := fmt.Sprintf("%s/v1/graphs/cc/builds/%s/dist?source=0&target=%d&faults=%s",
						c.srv.URL, id, target, faultsParam(events[idx]))
					resp, err := c.srv.Client().Get(url)
					if err != nil {
						t.Errorf("client %d: %v", cl, err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("client %d: code %d: %s", cl, resp.StatusCode, body)
						return
					}
					var dr distResponse
					if err := json.Unmarshal(body, &dr); err != nil {
						t.Errorf("client %d: %v", cl, err)
						return
					}
					if dr.Dist != truth[idx][target] {
						t.Errorf("client %d faults %v target %d: got %d want %d",
							cl, events[idx], target, dr.Dist, truth[idx][target])
						return
					}
				}
			}
		}(cl)
	}
	wg.Wait()

	// While queries ran, concurrent builds on the same graph must also be
	// safe; verify the build is still inspectable and the cache saw traffic.
	info := c.waitReady("cc", id)
	if info.Cache == nil || info.Cache.Hits == 0 {
		t.Fatalf("cache saw no traffic: %+v", info)
	}
}

// TestServerBuildNotReady checks querying a build mid-flight returns 409.
func TestServerBuildNotReady(t *testing.T) {
	c := newTestClient(t, &Config{MaxConcurrentBuilds: 1})
	c.createGraph("slow", GenSpec{Family: "gnp", N: 120, P: 0.3, Seed: 3})
	// Queue two builds; query the second immediately — it is either still
	// building (409) or, if this machine is fast, already ready (200).
	c.startBuild("slow", createBuildRequest{Mode: "dual", Sources: []int{0}})
	id2 := c.startBuild("slow", createBuildRequest{Mode: "dual", Sources: []int{1}})
	code, out := c.do("GET", "/v1/graphs/slow/builds/"+id2+"/dist?source=1&target=2", nil)
	if code != http.StatusConflict && code != http.StatusOK {
		t.Fatalf("mid-build query: code %d: %s", code, out)
	}
	if info := c.waitReady("slow", id2); info.Status != StatusReady {
		t.Fatalf("queued build failed: %+v", info)
	}
}

// TestServerBatchQuery answers a 1000-item batch in ONE request, mixing
// dist, whole-table and route items across several failure events, and
// checks every answer against BFS ground truth on G \ F (the acceptance
// workload; run under -race in CI).
func TestServerBatchQuery(t *testing.T) {
	seed := int64(17)
	g := gen.GNP(30, 0.2, seed)
	c := newTestClient(t, nil)
	c.createGraph("batch", GenSpec{Family: "gnp", N: 30, P: 0.2, Seed: seed})
	id := c.startBuild("batch", createBuildRequest{Mode: "dual", Sources: []int{0}})
	if info := c.waitReady("batch", id); info.Status != StatusReady {
		t.Fatalf("build failed: %+v", info)
	}
	events := make([][]int, 12)
	truth := make([][]int32, len(events))
	for i := range events {
		a := (i * 5) % g.M()
		b := (a + 9) % g.M()
		events[i] = []int{a, b}
		if a == b {
			events[i] = []int{a}
		}
		truth[i] = bfs.Distances(g, 0, events[i])
	}
	const items = 1000
	req := batchRequest{Queries: make([]batchQuery, items)}
	for i := 0; i < items; i++ {
		q := batchQuery{Source: 0, Faults: events[i%len(events)]}
		switch i % 10 {
		case 8: // whole-table item
		case 9: // route item
			tgt := i % g.N()
			q.Target = &tgt
			q.Route = true
		default:
			tgt := i % g.N()
			q.Target = &tgt
		}
		req.Queries[i] = q
	}
	var resp struct {
		Results []batchResult `json:"results"`
	}
	c.decode("POST", "/v1/graphs/batch/builds/"+id+"/query", req, http.StatusOK, &resp)
	if len(resp.Results) != items {
		t.Fatalf("%d results for %d queries", len(resp.Results), items)
	}
	for i, res := range resp.Results {
		q := req.Queries[i]
		want := truth[i%len(events)]
		if res.Error != "" {
			t.Fatalf("item %d: unexpected error %q", i, res.Error)
		}
		switch {
		case q.Route:
			wd := want[*q.Target]
			if (wd == bfs.Unreachable) == *res.Reachable {
				t.Fatalf("item %d: reachable=%v want dist %d", i, *res.Reachable, wd)
			}
			if wd == bfs.Unreachable {
				continue
			}
			if *res.Dist != wd || len(res.Path) != int(wd)+1 {
				t.Fatalf("item %d: dist %d path %v, want %d", i, *res.Dist, res.Path, wd)
			}
			for j := 0; j+1 < len(res.Path); j++ {
				eid, ok := g.EdgeID(res.Path[j], res.Path[j+1])
				if !ok {
					t.Fatalf("item %d: path uses non-edge %d-%d", i, res.Path[j], res.Path[j+1])
				}
				for _, f := range q.Faults {
					if eid == f {
						t.Fatalf("item %d: path uses failed edge %d", i, eid)
					}
				}
			}
		case q.Target != nil:
			if *res.Dist != want[*q.Target] || *res.Reachable != (want[*q.Target] != bfs.Unreachable) {
				t.Fatalf("item %d: got %d want %d", i, *res.Dist, want[*q.Target])
			}
		default:
			if len(res.Dists) != g.N() {
				t.Fatalf("item %d: %d dists", i, len(res.Dists))
			}
			for v, d := range res.Dists {
				if d != want[v] {
					t.Fatalf("item %d target %d: got %d want %d", i, v, d, want[v])
				}
			}
		}
	}
}

// TestServerBatchStream checks the NDJSON streaming mode returns exactly
// the non-streaming results, one JSON object per line, in request order.
func TestServerBatchStream(t *testing.T) {
	c := newTestClient(t, nil)
	c.createGraph("st", GenSpec{Family: "grid", Rows: 5, Cols: 5})
	id := c.startBuild("st", createBuildRequest{Mode: "dual", Sources: []int{0}})
	if info := c.waitReady("st", id); info.Status != StatusReady {
		t.Fatalf("build failed: %+v", info)
	}
	const items = 200
	req := batchRequest{Queries: make([]batchQuery, items)}
	for i := 0; i < items; i++ {
		tgt := i % 25
		req.Queries[i] = batchQuery{Source: 0, Target: &tgt, Faults: []int{i % 40}}
	}
	var plain struct {
		Results []batchResult `json:"results"`
	}
	c.decode("POST", "/v1/graphs/st/builds/"+id+"/query", req, http.StatusOK, &plain)

	req.Stream = true
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.srv.URL+"/v1/graphs/st/builds/"+id+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var raw []json.RawMessage
	for dec.More() {
		var m json.RawMessage
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		raw = append(raw, m)
	}
	// The last line is the completion trailer; everything before it is a
	// result in request order.
	if len(raw) != items+1 {
		t.Fatalf("streamed %d lines, want %d results + trailer", len(raw), items)
	}
	var trailer batchStreamTrailer
	if err := json.Unmarshal(raw[len(raw)-1], &trailer); err != nil {
		t.Fatal(err)
	}
	if !trailer.Done || trailer.Results != items {
		t.Fatalf("bad stream trailer: %+v", trailer)
	}
	for i := 0; i < items; i++ {
		var a batchResult
		if err := json.Unmarshal(raw[i], &a); err != nil {
			t.Fatal(err)
		}
		b := plain.Results[i]
		if (a.Dist == nil) != (b.Dist == nil) || (a.Dist != nil && *a.Dist != *b.Dist) || a.Error != b.Error {
			t.Fatalf("item %d: stream %+v vs plain %+v", i, a, b)
		}
	}
}

// TestServerBatchErrors exercises the batch request failure paths and
// inline per-item errors.
func TestServerBatchErrors(t *testing.T) {
	c := newTestClient(t, &Config{MaxBatchQueries: 4})
	c.createGraph("be", GenSpec{Family: "path", N: 6})
	id := c.startBuild("be", createBuildRequest{Mode: "dual", Sources: []int{0}})
	if info := c.waitReady("be", id); info.Status != StatusReady {
		t.Fatalf("build failed: %+v", info)
	}
	path := "/v1/graphs/be/builds/" + id + "/query"

	// Request-level failures.
	if code, out := c.do("POST", path, batchRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d %s", code, out)
	}
	over := batchRequest{Queries: make([]batchQuery, 5)}
	if code, out := c.do("POST", path, over); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %d %s", code, out)
	}
	if code, _ := c.do("POST", "/v1/graphs/be/builds/zzz/query", batchRequest{Queries: make([]batchQuery, 1)}); code != http.StatusNotFound {
		t.Fatalf("missing build accepted: %d", code)
	}

	// Item-level failures arrive inline, not as HTTP errors.
	one, bad := 1, 99
	req := batchRequest{Queries: []batchQuery{
		{Source: 3, Target: &one},                         // non-source
		{Source: 0, Target: &bad},                         // target out of range
		{Source: 0, Route: true},                          // route without target
		{Source: 0, Target: &one, Faults: []int{0, 1, 2}}, // budget
		{Source: 0, Target: &one},                         // fine
	}}
	// MaxBatchQueries is 4; trim to fit.
	req.Queries = req.Queries[:4]
	var resp struct {
		Results []batchResult `json:"results"`
	}
	c.decode("POST", path, req, http.StatusOK, &resp)
	for i := 0; i < 4; i++ {
		if resp.Results[i].Error == "" {
			t.Fatalf("item %d: expected inline error, got %+v", i, resp.Results[i])
		}
	}
}

// TestServerDuplicateFaults replays the canonicalization bugfix through
// the HTTP handler: faults=3,3 is ONE failure event — it must fit an
// f = 1 budget and share a single cache entry with faults=3.
func TestServerDuplicateFaults(t *testing.T) {
	seed := int64(3)
	g := gen.GNP(16, 0.3, seed)
	c := newTestClient(t, nil)
	c.createGraph("dup", GenSpec{Family: "gnp", N: 16, P: 0.3, Seed: seed})
	id := c.startBuild("dup", createBuildRequest{Mode: "single", Sources: []int{0}})
	info := c.waitReady("dup", id)
	if info.Status != StatusReady || info.Faults != 1 {
		t.Fatalf("want ready f=1 build: %+v", info)
	}
	var dup, canon distResponse
	c.decode("GET", "/v1/graphs/dup/builds/"+id+"/dist?source=0&target=5&faults=3,3",
		nil, http.StatusOK, &dup)
	c.decode("GET", "/v1/graphs/dup/builds/"+id+"/dist?source=0&target=5&faults=3",
		nil, http.StatusOK, &canon)
	if dup != canon {
		t.Fatalf("duplicate form answered %+v, canonical %+v", dup, canon)
	}
	truth := bfs.NewRunner(g)
	truth.Run(0, []int{3}, nil)
	if dup.Dist != truth.Dist(5) {
		t.Fatalf("got %d, truth %d", dup.Dist, truth.Dist(5))
	}
	info = c.waitReady("dup", id)
	if info.Cache == nil || info.Cache.Len != 1 || info.Cache.Misses != 1 || info.Cache.Hits != 1 {
		t.Fatalf("faults {3,3} and {3} did not share one cache entry: %+v", info.Cache)
	}
	// Two DISTINCT faults still exceed the f = 1 budget.
	if code, _ := c.do("GET", "/v1/graphs/dup/builds/"+id+"/dist?source=0&target=5&faults=3,4", nil); code != http.StatusBadRequest {
		t.Fatalf("distinct pair accepted against f=1: %d", code)
	}
}

// TestServerQueuedBuild saturates the build semaphore and checks the
// queued lifecycle deterministically: status "queued" with live queue
// time and no build time, 409 on queries, then — once a slot frees — a
// ready build whose ElapsedMS excludes the queue wait.
func TestServerQueuedBuild(t *testing.T) {
	s := New(&Config{MaxConcurrentBuilds: 1})
	if err := s.RegisterGraph("q", &GenSpec{Family: "path", N: 6}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	s.buildSem <- struct{}{} // occupy the only build slot

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/graphs/q/builds",
		strings.NewReader(`{"mode":"dual","sources":[0]}`)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	var info buildInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusQueued {
		t.Fatalf("fresh build status %q, want %q", info.Status, StatusQueued)
	}
	path := "/v1/graphs/q/builds/" + info.ID

	time.Sleep(150 * time.Millisecond) // accumulate observable queue time
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusQueued {
		t.Fatalf("queued build reports %q", info.Status)
	}
	if info.QueuedMS <= 0 || info.ElapsedMS != 0 {
		t.Fatalf("queued timing wrong: queued %.3fms elapsed %.3fms", info.QueuedMS, info.ElapsedMS)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path+"/dist?source=0&target=1", nil))
	if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), StatusQueued) {
		t.Fatalf("query against queued build: %d %s", rec.Code, rec.Body)
	}

	<-s.buildSem // free the slot; the queued build may now run
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		if info.Status != StatusQueued && info.Status != StatusBuilding {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("build stuck: %+v", info)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if info.Status != StatusReady {
		t.Fatalf("build failed: %+v", info)
	}
	// The queue wait (≥ 150ms by construction) must not leak into the
	// build time: the trivial 6-vertex build takes well under 100ms even
	// on a stalled runner, while the pre-fix behavior (timer started at
	// creation) would report ≥ 150ms.
	if info.QueuedMS < 120 {
		t.Fatalf("queue wait under-reported: %.3fms", info.QueuedMS)
	}
	if info.ElapsedMS >= 100 {
		t.Fatalf("build time %.3fms includes queue wait %.3fms", info.ElapsedMS, info.QueuedMS)
	}
}

// TestServerBatchResultBound checks a non-streaming batch heavy in
// whole-table items is refused once the materialized response would
// exceed the value bound — and that streaming mode still answers it.
func TestServerBatchResultBound(t *testing.T) {
	old := maxBatchResultValues
	maxBatchResultValues = 64
	t.Cleanup(func() { maxBatchResultValues = old })

	c := newTestClient(t, nil)
	c.createGraph("big", GenSpec{Family: "grid", Rows: 5, Cols: 5}) // n=25: 3 tables > 64 values
	id := c.startBuild("big", createBuildRequest{Mode: "dual", Sources: []int{0}})
	if info := c.waitReady("big", id); info.Status != StatusReady {
		t.Fatalf("build failed: %+v", info)
	}
	req := batchRequest{Queries: make([]batchQuery, 4)}
	for i := range req.Queries {
		req.Queries[i] = batchQuery{Source: 0, Faults: []int{i}} // whole-table items
	}
	code, out := c.do("POST", "/v1/graphs/big/builds/"+id+"/query", req)
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(string(out), "stream") {
		t.Fatalf("oversized response not refused: %d %s", code, out)
	}
	req.Stream = true
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.srv.URL+"/v1/graphs/big/builds/"+id+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed batch refused: %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var lines []json.RawMessage
	for dec.More() {
		var m json.RawMessage
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 5 { // 4 results + trailer
		t.Fatalf("streamed %d lines, want 5", len(lines))
	}
	for i := 0; i < 4; i++ {
		var r batchResult
		if err := json.Unmarshal(lines[i], &r); err != nil {
			t.Fatal(err)
		}
		if r.Error != "" || len(r.Dists) != 25 {
			t.Fatalf("streamed item %d: %+v", i, r)
		}
	}
	var trailer batchStreamTrailer
	if err := json.Unmarshal(lines[4], &trailer); err != nil {
		t.Fatal(err)
	}
	if !trailer.Done || trailer.Results != 4 {
		t.Fatalf("bad stream trailer: %+v", trailer)
	}
}
