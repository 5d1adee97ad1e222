package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/server/batchcodec"
)

// wireFixture is the in-process server FuzzQueryWire and
// FuzzBatchRequestJSON query: one small sparse graph with a dual build,
// whose dist answers come from its replacement-distance table, and a
// single build, whose answers come from the memo. Both are built from
// source 0. Its batch and body limits are small enough for fuzzed JSON
// bodies to cross.
type wireFixture struct {
	srv    *Server
	h      http.Handler
	g      *graph.Graph
	builds [2]wireBuild
}

type wireBuild struct {
	id     string
	budget int
	edges  *graph.EdgeSet
	set    *oracle.OracleSet
}

func newWireFixture(tb testing.TB) *wireFixture {
	tb.Helper()
	srv := New(&Config{MaxConcurrentBuilds: 1, MaxBatchQueries: 8, MaxBodyBytes: 1024})
	if err := srv.RegisterGraph("w", &GenSpec{Family: "sparse", N: 24, AvgDeg: 4, Seed: 11}); err != nil {
		tb.Fatal(err)
	}
	fx := &wireFixture{srv: srv, h: srv.Handler()}
	for i, mode := range []string{"dual", "single"} {
		id, st, set := readyBuild(tb, srv, fx.h, "w", `{"mode":"`+mode+`","sources":[0]}`)
		if (st.Tables != nil) != (mode == "dual") {
			tb.Fatalf("%s build has tables %v", mode, st.Tables != nil)
		}
		fx.g = st.G
		fx.builds[i] = wireBuild{id: id, budget: st.Faults, edges: st.Edges, set: set}
	}
	return fx
}

// readyBuild starts a build through the handler, waits for it to end and
// returns its ID, structure and oracle set.
func readyBuild(tb testing.TB, srv *Server, h http.Handler, graph, body string) (string, *core.Structure, *oracle.OracleSet) {
	tb.Helper()
	rec := serveWire(h, "POST", "/v1/graphs/"+graph+"/builds", "", []byte(body))
	var info buildInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || rec.Code != http.StatusAccepted {
		tb.Fatalf("start build %s: %d: %s", body, rec.Code, rec.Body)
	}
	srv.mu.RLock()
	be := srv.graphs[graph].builds[info.ID]
	srv.mu.RUnlock()
	<-be.done
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	if be.status != StatusReady {
		tb.Fatalf("build %s: %s", body, be.status)
	}
	return info.ID, be.st, be.set
}

func serveWire(h http.Handler, method, target, contentType string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// wireAnswer is one answer as any protocol spells it.
type wireAnswer struct {
	err       bool
	dist      int32
	reachable bool
	dists     []int32
	path      []int
}

// FuzzQueryWire sends one arbitrary query per input through a protocol the
// input picks — GET dist/dists/route, a JSON batch item or a binary frame —
// to the dual or the single build. Source, target and up to three faults
// are arbitrary, out-of-range values included (binary items carry at most
// two unsigned faults). No response may be a 5xx. A query the oracle must
// reject gets a 400 or an in-band error; any other is answered, and its
// answer must equal BFS on G∖F. A route must be a path from the source to
// the target in H∖F, of that length, that avoids F.
func FuzzQueryWire(f *testing.F) {
	fx := newWireFixture(f)
	// proto, op, source, target, fault count, faults.
	f.Add(uint8(0), uint8(0), int32(0), int32(5), uint8(2), int32(1), int32(4), int32(0))
	f.Add(uint8(0), uint8(1), int32(0), int32(0), uint8(1), int32(3), int32(0), int32(0))
	f.Add(uint8(0), uint8(2), int32(0), int32(9), uint8(1), int32(2), int32(0), int32(0))
	f.Add(uint8(1), uint8(16), int32(0), int32(7), uint8(1), int32(6), int32(0), int32(0))
	f.Add(uint8(1), uint8(2), int32(0), int32(11), uint8(3), int32(1), int32(1), int32(2))
	f.Add(uint8(1), uint8(1), int32(0), int32(0), uint8(2), int32(5), int32(5), int32(0))
	f.Add(uint8(2), uint8(0), int32(0), int32(13), uint8(2), int32(0), int32(8), int32(0))
	f.Add(uint8(2), uint8(18), int32(0), int32(3), uint8(1), int32(7), int32(0), int32(0))
	f.Add(uint8(2), uint8(1), int32(0), int32(0), uint8(0), int32(0), int32(0), int32(0))
	f.Add(uint8(0), uint8(0), int32(-3), int32(99), uint8(3), int32(-1), int32(1<<30), int32(2))
	f.Add(uint8(2), uint8(16), int32(5), int32(-2), uint8(2), int32(-1), int32(2), int32(0))
	f.Fuzz(func(t *testing.T, proto, op uint8, src, tgt int32, nf uint8, f0, f1, f2 int32) {
		b := fx.builds[op>>4&1]
		kind := queryOp(op % 3)
		raw := []int32{f0, f1, f2}[:nf%4]
		if proto%3 == 2 {
			raw = raw[:min(len(raw), 2)]
		}
		faults := make([]int, len(raw))
		for i, id := range raw {
			faults[i] = int(id)
			if proto%3 == 2 {
				faults[i] = int(uint32(id)) // binary faults are unsigned
			}
		}
		source, target := int(src), int(tgt)

		var got wireAnswer
		switch proto % 3 {
		case 0:
			got = fx.get(t, b, kind, source, target, faults)
		case 1:
			got = fx.jsonItem(t, b, kind, source, target, faults)
		default:
			got = fx.binary(t, b, kind, src, tgt, raw)
		}

		n, m := fx.g.N(), fx.g.M()
		valid := source == 0 && (kind == opDists || target >= 0 && target < n)
		distinct := map[int]bool{}
		for _, id := range faults {
			valid = valid && id >= 0 && id < m
			distinct[id] = true
		}
		valid = valid && len(distinct) <= b.budget
		if got.err != !valid {
			t.Fatalf("query %v %d→%d faults %v on build %s: error %v, want %v", kind, source, target, faults, b.id, got.err, !valid)
		}
		if !valid {
			return
		}
		want := bfs.Distances(fx.g, 0, faults)
		switch kind {
		case opDists:
			if len(got.dists) != n {
				t.Fatalf("dists faults %v: %d entries, want %d", faults, len(got.dists), n)
			}
			for v, d := range want {
				if got.dists[v] != d {
					t.Fatalf("dists faults %v: [%d] = %d, want %d", faults, v, got.dists[v], d)
				}
			}
			return
		case opDist:
			if got.dist != want[target] {
				t.Fatalf("dist 0→%d faults %v on %s: %d, want %d", target, faults, b.id, got.dist, want[target])
			}
		}
		if got.reachable != (want[target] != bfs.Unreachable) {
			t.Fatalf("%v 0→%d faults %v on %s: reachable %v, want dist %d", kind, target, faults, b.id, got.reachable, want[target])
		}
		if kind != opRoute || !got.reachable {
			return
		}
		p := got.path
		if len(p)-1 != int(want[target]) || p[0] != 0 || p[len(p)-1] != target {
			t.Fatalf("route 0→%d faults %v: %v, want length %d", target, faults, p, want[target])
		}
		for i := 1; i < len(p); i++ {
			id, ok := fx.g.EdgeID(p[i-1], p[i])
			if !ok || !b.edges.Has(id) || distinct[id] {
				t.Fatalf("route 0→%d faults %v: hop %d-%d is not an edge of H∖F", target, faults, p[i-1], p[i])
			}
		}
	})
}

// noServerError fails the input on any 5xx.
func noServerError(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code >= 500 {
		t.Fatalf("server error %d: %s", rec.Code, rec.Body)
	}
}

func (fx *wireFixture) get(t *testing.T, b wireBuild, kind queryOp, source, target int, faults []int) wireAnswer {
	t.Helper()
	url := fmt.Sprintf("/v1/graphs/w/builds/%s/%s?source=%d", b.id, [...]string{"dist", "dists", "route"}[kind], source)
	if kind != opDists {
		url += "&target=" + strconv.Itoa(target)
	}
	if len(faults) > 0 {
		ids := make([]string, len(faults))
		for i, id := range faults {
			ids[i] = strconv.Itoa(id)
		}
		url += "&faults=" + strings.Join(ids, ",")
	}
	rec := serveWire(fx.h, "GET", url, "", nil)
	noServerError(t, rec)
	if rec.Code == http.StatusBadRequest {
		return wireAnswer{err: true}
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, rec.Code, rec.Body)
	}
	var res batchResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return jsonAnswer(t, kind, res)
}

func (fx *wireFixture) jsonItem(t *testing.T, b wireBuild, kind queryOp, source, target int, faults []int) wireAnswer {
	t.Helper()
	q := batchQuery{Source: source, Faults: faults, Route: kind == opRoute}
	if kind != opDists {
		q.Target = &target
	}
	body, err := json.Marshal(batchRequest{Queries: []batchQuery{q}})
	if err != nil {
		t.Fatal(err)
	}
	rec := serveWire(fx.h, "POST", "/v1/graphs/w/builds/"+b.id+"/query", "application/json", body)
	noServerError(t, rec)
	var resp struct {
		Results []batchResult `json:"results"`
	}
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || len(resp.Results) != 1 {
		t.Fatalf("JSON batch %s: %d: %s", body, rec.Code, rec.Body)
	}
	if resp.Results[0].Error != "" {
		return wireAnswer{err: true}
	}
	return jsonAnswer(t, kind, resp.Results[0])
}

func jsonAnswer(t *testing.T, kind queryOp, res batchResult) wireAnswer {
	t.Helper()
	a := wireAnswer{dists: res.Dists, path: res.Path}
	if kind == opDists {
		return a
	}
	if res.Reachable == nil || kind == opDist && res.Dist == nil {
		t.Fatalf("%v answer misses fields: %+v", kind, res)
	}
	a.reachable = *res.Reachable
	if res.Dist != nil {
		a.dist = *res.Dist
	}
	return a
}

func (fx *wireFixture) binary(t *testing.T, b wireBuild, kind queryOp, source, target int32, faults []int32) wireAnswer {
	t.Helper()
	it := batchcodec.Item{Source: source, Target: target, Flags: uint32(len(faults))}
	if len(faults) > 0 {
		it.Fault0 = uint32(faults[0])
	}
	if len(faults) > 1 {
		it.Fault1 = uint32(faults[1])
	}
	switch kind {
	case opRoute:
		it.Flags |= batchcodec.FlagRoute
	case opDists:
		it.Flags |= batchcodec.FlagAllDists
	}
	var rb batchcodec.RequestBuilder
	rb.Add(it)
	rec := serveWire(fx.h, "POST", "/v1/graphs/w/builds/"+b.id+"/query", batchcodec.ContentType, rb.Frame())
	noServerError(t, rec)
	if rec.Code != http.StatusOK {
		t.Fatalf("binary batch %+v: %d: %s", it, rec.Code, rec.Body)
	}
	resp, err := batchcodec.DecodeResponse(rec.Body.Bytes())
	if err != nil || resp.Len() != 1 {
		t.Fatalf("binary response for %+v: %v (%d records)", it, err, resp.Len())
	}
	iter := resp.Iter()
	iter.Next()
	r := iter.Record()
	if r.Err() != batchcodec.ErrNone {
		return wireAnswer{err: true}
	}
	a := wireAnswer{dist: r.Dist, reachable: r.Reachable()}
	for j := 0; j < iter.ValueLen(); j++ {
		if kind == opDists {
			a.dists = append(a.dists, int32(iter.Value(j)))
		} else {
			a.path = append(a.path, int(iter.Value(j)))
		}
	}
	return a
}
