package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/bfs"
	"repro/internal/oracle"
)

// batchResult is one item's answer as the JSON protocol spelled it before
// the append codec: encoding/json over this struct is the reference the
// codec's bytes are held to. Exactly one of (Dist+Reachable), Dists,
// (Reachable+Dist+Path) or Error is populated.
type batchResult struct {
	Dist      *int32  `json:"dist,omitempty"`
	Reachable *bool   `json:"reachable,omitempty"`
	Dists     []int32 `json:"dists,omitempty"`
	Path      []int   `json:"path,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// batchStreamTrailer is the reference form of a stream's final line.
type batchStreamTrailer struct {
	Done    bool `json:"done"`
	Results int  `json:"results"`
}

// referenceResult renders a reply as the JSON protocol did through
// batchResult.
func referenceResult(op queryOp, r reply) batchResult {
	switch {
	case r.err != nil:
		return batchResult{Error: r.err.Error()}
	case op == opDists:
		return batchResult{Dists: r.view.AppendTo(nil)}
	}
	d, reachable := r.dist, r.dist != bfs.Unreachable
	res := batchResult{Reachable: &reachable, Path: r.path}
	if reachable || op == opDist {
		res.Dist = &d
	}
	return res
}

// encodeReference writes v as the handlers wrote every JSON answer before
// the append codec: encoding/json's Encoder, HTML-safe, newline-terminated.
func encodeReference(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendReplyMatchesEncodingJSON holds the append codec to
// encoding/json's encoding of batchResult for every reply shape, as a GET
// body or an NDJSON line and inside a batch. TestJSONWireMatchesReference
// checks the handlers' framing and the stream trailer.
func TestAppendReplyMatchesEncodingJSON(t *testing.T) {
	srv := New(&Config{MaxConcurrentBuilds: 1})
	if err := srv.RegisterGraph("p", &GenSpec{Family: "path", N: 6}); err != nil {
		t.Fatal(err)
	}
	_, _, set := readyBuild(t, srv, srv.Handler(), "p", `{"mode":"dual","sources":[0]}`)
	o := set.Acquire()
	defer set.Release(o)

	type shape struct {
		name string
		op   queryOp
		r    reply
	}
	shapes := []shape{
		{"dist", opDist, reply{dist: 3}},
		{"dist zero", opDist, reply{dist: 0}},
		{"dist unreachable", opDist, reply{dist: bfs.Unreachable}},
		{"route", opRoute, reply{dist: 5, path: []int{0, 9, 10, 99, 100, 123456}}},
		{"route to the source", opRoute, reply{dist: 0, path: []int{0}}},
		{"route unreachable", opRoute, reply{dist: bfs.Unreachable}},
		{"table", opDists, reply{view: &oracle.DistView{Full: []int32{0, 1, 9, 10, 42, 99, 100, 101, 999, bfs.Unreachable, -10, 1 << 30, -1 << 31}}}},
		{"empty table", opDists, reply{view: &oracle.DistView{Full: []int32{}}}},
		{"nil table", opDists, reply{view: &oracle.DistView{}}},
		{"route without target", opNoTarget, reply{err: errRouteNoTarget}},
		{"html", opDist, reply{err: errors.New(`<script>alert("x") & 'y'</script>`)}},
		{"backslash and quote", opRoute, reply{err: errors.New(`C:\path\"quoted"\`)}},
		{"control bytes", opDists, reply{err: errors.New("\x00\x01\b\t\n\f\r\x1b\x1f\x7f end")}},
		{"non-ASCII", opDist, reply{err: errors.New("faute é ✓ \u2028 \u2029 日本")}},
		{"invalid UTF-8", opDist, reply{err: errors.New("bad \xff\xfe\xc3 bytes <&>")}},
	}
	// Every oracle.QueryError, as the oracle spells it, with every op.
	codes := map[oracle.ErrCode]bool{}
	for _, q := range []query{
		{op: opDist, source: 3, target: 1},
		{op: opDist, source: 0, target: 99},
		{op: opDist, source: 0, target: 1, faults: []int{99}},
		{op: opDist, source: 0, target: 1, faults: []int{0, 1, 2}},
	} {
		for _, op := range []queryOp{opDist, opRoute, opDists} {
			q.op = op
			r := answer(o, &q, new([]int))
			var qe *oracle.QueryError
			if !errors.As(r.err, &qe) {
				if op == opDists && q.target == 99 {
					continue // a table query has no target to reject
				}
				t.Fatalf("query %+v: %v, want a QueryError", q, r.err)
			}
			codes[qe.Code] = true
			shapes = append(shapes, shape{fmt.Sprintf("%v code %d", op, qe.Code), op, r})
		}
	}
	for _, code := range []oracle.ErrCode{oracle.ErrBadSource, oracle.ErrBadTarget, oracle.ErrBadFault, oracle.ErrFaultBudget} {
		if !codes[code] {
			t.Fatalf("no query produced error code %d", code)
		}
	}

	var batch []byte
	var results []batchResult
	for i, s := range shapes {
		got := append(appendReply(nil, s.op, s.r, nil), '\n')
		ref := referenceResult(s.op, s.r)
		// An NDJSON line and a GET answer are one encoded result each.
		if want := encodeReference(t, ref); !bytes.Equal(got, want) {
			t.Errorf("%s: appendReply\n got %q\nwant %q", s.name, got, want)
		}
		// A GET error went out through writeErr's apiError.
		if s.r.err != nil {
			if want := encodeReference(t, apiError{Error: s.r.err.Error()}); !bytes.Equal(got, want) {
				t.Errorf("%s: GET error\n got %q\nwant %q", s.name, got, want)
			}
		}
		if i > 0 {
			batch = append(batch, ',')
		}
		batch = appendReply(batch, s.op, s.r, nil)
		results = append(results, ref)
	}
	got := append(append([]byte(`{"results":[`), batch...), "]}\n"...)
	if want := encodeReference(t, map[string]any{"results": results}); !bytes.Equal(got, want) {
		t.Errorf("batch\n got %q\nwant %q", got, want)
	}
}

// TestTableTextSplice pins the spliced whole-table writer byte for byte to
// the materialized table, encoded number by number and by encoding/json:
// on a fixed base, overrides at vertex 0 and at n−1, adjacent overrides,
// −1, values ≥ 100, every vertex and none; then every whole table of a
// small dual build's one- and two-fault events, and its fault-free table,
// as the build serves them from its tables and as a copy without tables,
// as a restored build is, serves them from its memo's deltas.
func TestTableTextSplice(t *testing.T) {
	check := func(name string, v oracle.DistView, text *tableText) {
		t.Helper()
		got := append(appendReply(nil, opDists, reply{view: &v}, text), '\n')
		table := v.AppendTo(nil)
		if want := encodeReference(t, batchResult{Dists: table}); !bytes.Equal(got, want) {
			t.Fatalf("%s: spliced\n got %q\nwant %q", name, got, want)
		}
		if full := append(appendReply(nil, opDists, reply{view: &oracle.DistView{Full: table}}, nil), '\n'); !bytes.Equal(got, full) {
			t.Fatalf("%s: spliced\n got %q\nfull %q", name, got, full)
		}
	}
	base := []int32{0, 1, 2, 9, 10, 99, 100, 101, bfs.Unreachable, 5, 7, 12345}
	n := int32(len(base))
	text := newTableText(0, base)
	var every, everyVal []int32
	for v := range n {
		every, everyVal = append(every, v), append(everyVal, 1000-v)
	}
	for _, tc := range []struct {
		name       string
		keys, vals []int32
	}{
		{"no overrides", nil, nil},
		{"vertex 0", []int32{0}, []int32{7}},
		{"vertex n-1", []int32{n - 1}, []int32{bfs.Unreachable}},
		{"both ends", []int32{0, n - 1}, []int32{bfs.Unreachable, 3}},
		{"adjacent", []int32{3, 4, 5}, []int32{100, bfs.Unreachable, 1000}},
		{"values of three digits and more", []int32{1, 6, 9}, []int32{100, 99999, 123}},
		{"every vertex", every, everyVal},
	} {
		check(tc.name, oracle.DistView{Base: base, Keys: tc.keys, Vals: tc.vals}, &text)
	}

	srv := New(&Config{MaxConcurrentBuilds: 1})
	if err := srv.RegisterGraph("s", &GenSpec{Family: "sparse", N: 80, AvgDeg: 4, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	_, st, set := readyBuild(t, srv, srv.Handler(), "s", `{"mode":"dual","sources":[0]}`)
	noTables := *st
	noTables.Tables = nil
	memo, err := oracle.NewSet(&noTables, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []struct {
		name string
		set  *oracle.OracleSet
	}{{"tables", set}, {"memo", memo}} {
		o := sc.set.Handle()
		text := textOf(newTableTexts(sc.set), 0)
		deltas := 0
		for a := -1; a < st.G.M(); a++ {
			for b := a + 1; b < st.G.M() && b <= a+8; b++ {
				faults := []int{a, b}
				if a < 0 {
					faults = faults[1:]
				}
				v, err := o.DistsLent(0, faults)
				if err != nil {
					t.Fatal(err)
				}
				if len(v.Keys) > 0 {
					deltas++
				}
				check(fmt.Sprintf("%s faults %v", sc.name, faults), *v, text)
			}
		}
		v, err := o.DistsLent(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v.Full != nil || len(v.Keys) != 0 {
			t.Fatalf("%s: the fault-free table is %+v, want the base alone", sc.name, v)
		}
		check(sc.name+" fault-free", *v, text)
		if deltas == 0 {
			t.Fatalf("%s: no delta view with an override", sc.name)
		}
		t.Logf("%s: %d delta views with overrides; %+v", sc.name, deltas, sc.set.CacheStats())
	}
}

// TestJSONWireMatchesReference sends one query of every shape the oracle
// and the JSON protocol produce through the handler, as GET requests, as a
// JSON batch and as an NDJSON stream, and compares each body byte for byte
// with encoding/json's encoding of the reference results.
func TestJSONWireMatchesReference(t *testing.T) {
	srv := New(&Config{MaxConcurrentBuilds: 1})
	if err := srv.RegisterGraph("p", &GenSpec{Family: "path", N: 6}); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	id, _, set := readyBuild(t, srv, h, "p", `{"mode":"dual","sources":[0]}`)
	base := "/v1/graphs/p/builds/" + id
	o := set.Acquire()
	defer set.Release(o)

	// On the path 0-1-2-3-4-5, edge i joins i and i+1.
	qs := []query{
		{op: opDist, target: 3},                         // reachable
		{op: opDist, target: 0},                         // the source itself
		{op: opDist, target: 4, faults: []int{2}},       // cut off
		{op: opRoute, target: 5, faults: []int{}},       // a route
		{op: opRoute, target: 4, faults: []int{1}},      // no route
		{op: opDists, faults: []int{3, 3}},              // a table with unreachable entries
		{op: opDists},                                   // the fault-free table
		{op: opNoTarget},                                // a route without a target
		{op: opDist, source: 3, target: 1},              // not a source
		{op: opRoute, target: 99},                       // target out of range
		{op: opDists, faults: []int{-1}},                // fault out of range
		{op: opDist, target: 1, faults: []int{0, 1, 2}}, // over the budget
	}
	var items []string
	var results []batchResult
	for _, q := range qs {
		ref := referenceResult(q.op, answer(o, &q, new([]int)))
		results = append(results, ref)

		var item strings.Builder
		fmt.Fprintf(&item, `{"source":%d`, q.source)
		if q.op == opDist || q.op == opRoute {
			fmt.Fprintf(&item, `,"target":%d`, q.target)
		}
		if q.faults != nil {
			fmt.Fprintf(&item, `,"faults":%s`, strings.ReplaceAll(fmt.Sprint(q.faults), " ", ","))
		}
		if q.op == opRoute || q.op == opNoTarget {
			item.WriteString(`,"route":true`)
		}
		items = append(items, item.String()+"}")

		if q.op == opNoTarget {
			continue // GET cannot spell it
		}
		url := fmt.Sprintf("%s/%s?source=%d", base, [...]string{"dist", "dists", "route"}[q.op], q.source)
		if q.op != opDists {
			url += fmt.Sprintf("&target=%d", q.target)
		}
		if len(q.faults) > 0 {
			url += "&faults=" + faultsParam(q.faults)
		}
		rec := serveWire(h, "GET", url, "", nil)
		wantCode := http.StatusOK
		if ref.Error != "" {
			wantCode = http.StatusBadRequest
		}
		if want := encodeReference(t, ref); rec.Code != wantCode || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("GET %s: %d %q, want %d %q", url, rec.Code, rec.Body, wantCode, want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type %q", url, ct)
		}
	}

	body := `{"queries":[` + strings.Join(items, ",") + `]}`
	rec := serveWire(h, "POST", base+"/query", "application/json", []byte(body))
	if want := encodeReference(t, map[string]any{"results": results}); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("batch: %d\n got %q\nwant %q", rec.Code, rec.Body, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("batch Content-Type %q", ct)
	}

	// A stream longer than one flush window, so lines cross a flush.
	var streamItems []string
	var want []byte
	for len(streamItems) < streamFlushEvery+len(items)+1 {
		k := len(streamItems) % len(items)
		streamItems = append(streamItems, items[k])
		want = append(want, encodeReference(t, results[k])...)
	}
	want = append(want, encodeReference(t, batchStreamTrailer{Done: true, Results: len(streamItems)})...)
	body = `{"stream":true,"queries":[` + strings.Join(streamItems, ",") + `]}`
	rec = serveWire(h, "POST", base+"/query", "application/json", []byte(body))
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("stream: %d\n got %q\nwant %q", rec.Code, rec.Body, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type %q", ct)
	}
}

// fallback answers body on build b as the batch handler does with the
// fast decoder left out: encoding/json reads the body through
// http.MaxBytesReader, exactly as decodeBody reads every other request.
func (fx *wireFixture) fallback(b wireBuild, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/graphs/w/builds/"+b.id+"/query", bytes.NewReader(body))
	var br batchRequest
	if err := decodeBody(rec, req, fx.srv.cfg.MaxBodyBytes, &br); err != nil {
		writeErr(rec, bodyErrStatus(err), "bad request body: %v", err)
		return rec
	}
	sc := new(jsonScratch)
	if len(br.Queries) <= fx.srv.cfg.MaxBatchQueries {
		for i := range br.Queries {
			sc.queries = append(sc.queries, br.Queries[i].query())
		}
	}
	fx.srv.serveJSONBatch(rec, req, b.set, newTableTexts(b.set), sc, len(br.Queries), br.Stream)
	return rec
}

// commonBodies have the common shape; the fast decoder must take them.
var commonBodies = []string{
	`{"queries":[{"source":0,"target":5,"faults":[1,4]}]}`,
	`{"queries":[{"source":0,"faults":[3]},{"source":0,"target":9,"faults":[2],"route":true},{"source":0,"target":7}],"stream":true}`,
	" \t\r\n{ \"stream\" : false , \"queries\" : [ { \"target\" : 3 , \"source\" : 0 , \"faults\" : [ ] } ] } \n",
	`{"queries":[{"source":0,"route":true},{"source":0,"target":2,"route":false},{}]}`,
	`{"queries":[{"source":-0,"target":-1,"faults":[-5,999999999999999999]}]}`,
	`{"queries":[{"source":7,"target":1},{"source":0,"target":99},{"source":0,"target":1,"faults":[0,1,2]}]}`,
	`{"queries":[{},{},{},{},{},{},{},{},{"source":0}]}`,
	`{"stream":true,"queries":[]}`,
	`{}`,
}

// otherBodies are outside the common shape; encoding/json judges them.
var otherBodies = []string{
	`{"queries":[{"Source":0,"target":1}]}`,
	`{"queries":[{"sour\u0063e":0,"target":1}]}`,
	`{"queries":[{"source":0,"target":null,"faults":null}]}`,
	`{"queries":null}`,
	`{"queries":[{"source":0,"target":1,"faults":[1],"faults":[2]}]}`,
	`{"queries":[{"source":0,"source":3,"target":1}]}`,
	`{"queries":[{"source":0,"target":1e2}]}`,
	`{"queries":[{"source":0,"target":1.0}]}`,
	`{"queries":[{"source":0,"target":99999999999999999999}]}`,
	`{"queries":[{"source":0,"target":01}]}`,
	`{"queries":[{"source":0,"target":1}]}x`,
	`{"queries":[{"source":0,"target":1}]}{"queries":[]}`,
	"\xef\xbb\xbf" + `{"queries":[{"source":0,"target":1}]}`,
	``,
	`{"queries":[{"source":0,"target":1,"weight":2}]}`,
	`{"queries":[{"source":0,"target":1}`,
	`{"queries":[{"source":0,"target":1},]}`,
	`{"queries":[{"source":"0","target":1}]}`,
	`{"queries":[{"source":0,"target":1,"route":1}]}`,
	`[{"source":0,"target":1}]`,
	"{\"queries\":[{\"source\":0,\f\"target\":1}]}",
	"{\"queries\":[{\"source\":0,\"target\":1}]\v}",
	"{\"queries\":[{\"source\":0,\"target\":1}]}\u00a0",
}

// longBodies pass the fuzz fixture's 1024-byte body limit: one ends its
// JSON value past it, one within it.
var longBodies = []string{
	`{"queries":[{"source":0,"target":1}]` + strings.Repeat(" ", 1100) + `}`,
	`{"queries":[{"source":0,"target":1}]}` + strings.Repeat(" ", 1100),
}

// TestDecodeFastShapes pins which bodies the fast decoder takes.
func TestDecodeFastShapes(t *testing.T) {
	var sc jsonScratch
	for _, body := range commonBodies {
		if _, _, ok := sc.decodeFast([]byte(body), 8); !ok {
			t.Errorf("declined common-shape body %q", body)
		}
	}
	for _, body := range otherBodies {
		if _, _, ok := sc.decodeFast([]byte(body), 8); ok {
			t.Errorf("took body %q, which encoding/json must judge", body)
		}
	}
}

// FuzzBatchRequestJSON posts arbitrary bodies to a JSON batch endpoint.
// Whenever the fast decoder takes a body, it must yield exactly the items,
// count and stream flag encoding/json decodes from it; and the handler's
// status and body must equal those of the path with the fast decoder left
// out, whichever decoder ran.
func FuzzBatchRequestJSON(f *testing.F) {
	fx := newWireFixture(f)
	for _, body := range slices.Concat(commonBodies, otherBodies, longBodies) {
		f.Add([]byte(body))
	}
	keep := fx.srv.cfg.MaxBatchQueries
	b := fx.builds[0]
	f.Fuzz(func(t *testing.T, body []byte) {
		var sc jsonScratch
		if n, stream, ok := sc.decodeFast(body, keep); ok {
			var req batchRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				t.Fatalf("fast decoder took %q; encoding/json: %v", body, err)
			}
			if n != len(req.Queries) || stream != req.Stream || len(sc.queries) != min(n, keep) {
				t.Fatalf("%q: fast %d items (kept %d), stream %v; encoding/json %d items, stream %v",
					body, n, len(sc.queries), stream, len(req.Queries), req.Stream)
			}
			for i, got := range sc.queries {
				want := req.Queries[i].query()
				if got.op != want.op || got.source != want.source || got.target != want.target || !slices.Equal(got.faults, want.faults) {
					t.Fatalf("%q item %d: fast %+v, encoding/json %+v", body, i, got, want)
				}
			}
		}
		got := serveWire(fx.h, "POST", "/v1/graphs/w/builds/"+b.id+"/query", "application/json", body)
		noServerError(t, got)
		want := fx.fallback(b, body)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%q: handler %d %q, fallback %d %q", body, got.Code, got.Body, want.Code, want.Body)
		}
	})
}

// TestServerBatchBodyTooLarge: a JSON batch body past MaxBodyBytes is
// refused with 413 before any item is answered, as the graph endpoint's
// is. A body whose JSON value ends within the limit is answered whatever
// follows it, as encoding/json's streaming read always allowed.
func TestServerBatchBodyTooLarge(t *testing.T) {
	c := newTestClient(t, &Config{MaxBodyBytes: 256})
	c.createGraph("lim", GenSpec{Family: "path", N: 6})
	id := c.startBuild("lim", createBuildRequest{Mode: "dual", Sources: []int{0}})
	if info := c.waitReady("lim", id); info.Status != StatusReady {
		t.Fatalf("build failed: %+v", info)
	}
	items := strings.Repeat(`{"source":0,"target":3},`, 20)
	for _, stream := range []string{"false", "true"} {
		body := `{"stream":` + stream + `,"queries":[` + items + `{"source":0,"target":3}]}`
		resp, err := http.Post(c.srv.URL+"/v1/graphs/lim/builds/"+id+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		_, _ = out.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(out.String(), "request body too large") {
			t.Fatalf("%d-byte body, stream %s: %d %s", len(body), stream, resp.StatusCode, out.Bytes())
		}
	}
	body := `{"queries":[{"source":0,"target":3}]}` + strings.Repeat(" ", 300)
	resp, err := http.Post(c.srv.URL+"/v1/graphs/lim/builds/"+id+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.String() != `{"results":[{"dist":3,"reachable":true}]}`+"\n" {
		t.Fatalf("value within the limit, padding past it: %d %s", resp.StatusCode, out.Bytes())
	}
}

// TestJSONBatchAllocationsPerItem: a common-shape batch of table-served
// dist, route and whole-table items allocates per request, never per
// item.
func TestJSONBatchAllocationsPerItem(t *testing.T) {
	srv := New(&Config{MaxConcurrentBuilds: 1})
	if err := srv.RegisterGraph("a", &GenSpec{Family: "sparse", N: 24, AvgDeg: 4, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	id, _, _ := readyBuild(t, srv, h, "a", `{"mode":"dual","sources":[0]}`)
	allocs := func(items int) float64 {
		var sb strings.Builder
		sb.WriteString(`{"queries":[`)
		for i := 0; i < items; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			switch i % 3 {
			case 0:
				fmt.Fprintf(&sb, `{"source":0,"target":%d,"faults":[%d,%d]}`, i%24, i%7, 7+i%5)
			case 1:
				fmt.Fprintf(&sb, `{"source":0,"target":%d,"faults":[%d,%d],"route":true}`, i%24, i%7, 7+i%5)
			default:
				fmt.Fprintf(&sb, `{"source":0,"faults":[%d,%d]}`, i%7, 7+i%5)
			}
		}
		sb.WriteString(`]}`)
		body := []byte(sb.String())
		post := func() {
			if rec := serveWire(h, "POST", "/v1/graphs/a/builds/"+id+"/query", "application/json", body); rec.Code != http.StatusOK {
				t.Fatalf("%d: %s", rec.Code, rec.Body)
			}
		}
		post() // grow the pools
		return testing.AllocsPerRun(20, post)
	}
	small, large := allocs(10), allocs(2000)
	// The recorder's body buffer grows by doubling: a handful more
	// allocations for a 200× larger response, none per item.
	if large-small > 20 {
		t.Fatalf("10 items: %.0f allocations, 2000 items: %.0f", small, large)
	}
	t.Logf("10 items: %.0f allocations per request, 2000 items: %.0f", small, large)
}
