package server

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"repro/internal/server/batchcodec"
)

// postBinary sends one binary batch frame to a build's query endpoint.
func (c *testClient) postBinary(graph, build string, frame []byte) (int, []byte) {
	c.t.Helper()
	req, err := http.NewRequest("POST", c.srv.URL+"/v1/graphs/"+graph+"/builds/"+build+"/query",
		bytes.NewReader(frame))
	if err != nil {
		c.t.Fatal(err)
	}
	req.Header.Set("Content-Type", batchcodec.ContentType)
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		c.t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		if ct := resp.Header.Get("Content-Type"); ct != batchcodec.ContentType {
			c.t.Fatalf("binary response Content-Type = %q", ct)
		}
	}
	return resp.StatusCode, buf.Bytes()
}

// binReady registers a graph (optionally BFS-ordered) and builds a dual
// structure on source 0, returning the build ID.
func binReady(t *testing.T, c *testClient, name string, ordered bool) string {
	t.Helper()
	spec := GenSpec{Family: "gnp", N: 60, P: 0.1, Seed: 42}
	var gi graphInfo
	c.decode("POST", "/v1/graphs", createGraphRequest{Name: name, Gen: &spec, Ordered: &ordered},
		http.StatusCreated, &gi)
	if gi.Ordered != ordered {
		t.Fatalf("graph %q ordered = %v, want %v", name, gi.Ordered, ordered)
	}
	id := c.startBuild(name, createBuildRequest{Mode: "dual", Sources: []int{0}})
	if info := c.waitReady(name, id); info.Status != StatusReady {
		t.Fatalf("build failed: %+v", info)
	}
	return id
}

// binItems is a fixed mixed batch: point queries, whole tables, routes,
// duplicate faults, and one of every item-level error.
func binItems(t *testing.T) []batchcodec.Item {
	t.Helper()
	return []batchcodec.Item{
		{Source: 0, Target: 17},
		{Source: 0, Target: 41, Fault0: 3, Flags: 1},
		{Source: 0, Target: 33, Fault0: 5, Fault1: 9, Flags: 2},
		{Source: 0, Target: 33, Fault0: 5, Fault1: 5, Flags: 2}, // duplicate faults collapse
		{Source: 0, Flags: batchcodec.FlagAllDists},
		{Source: 0, Fault0: 12, Flags: 1 | batchcodec.FlagAllDists},
		{Source: 0, Target: 25, Fault0: 1, Flags: 1 | batchcodec.FlagRoute},
		{Source: 0, Target: 2, Flags: batchcodec.FlagRoute},
		{Source: 7, Target: 3},                                                        // not a structure source
		{Source: -4, Target: 3},                                                       // source out of range
		{Source: 0, Target: 600},                                                      // target out of range
		{Source: 0, Target: 3, Fault0: 1 << 30, Flags: 1},                             // fault out of range
		{Source: 7, Target: 3, Fault0: 1 << 30, Flags: 1},                             // bad source AND bad fault: the source is checked first
		{Source: 0, Target: 3, Flags: batchcodec.FlagRoute | batchcodec.FlagAllDists}, // malformed
	}
}

// jsonTwin renders the expressible prefix of binItems as JSON batch
// queries (the malformed item has no JSON spelling and is skipped).
func jsonTwin(items []batchcodec.Item) []batchQuery {
	var out []batchQuery
	for _, it := range items {
		if !it.Valid() {
			continue
		}
		q := batchQuery{Source: int(it.Source), Route: it.Route()}
		if !it.AllDists() {
			tgt := int(it.Target)
			q.Target = &tgt
		}
		for i, f := range []uint32{it.Fault0, it.Fault1} {
			if i < it.NumFaults() {
				q.Faults = append(q.Faults, int(f))
			}
		}
		out = append(out, q)
	}
	return out
}

// jsonErrs names the failed check in the JSON message of each binary
// error code.
var jsonErrs = map[batchcodec.ErrCode]string{
	batchcodec.ErrBadSource: "is not a structure source",
	batchcodec.ErrBadTarget: "target",
	batchcodec.ErrBadFault:  "fault edge",
}

// TestBinaryBatchMatchesJSON runs the same mixed batch through the JSON
// and binary protocols — on a plain and on a BFS-ordered graph — and
// requires record-for-record agreement: same errors, same distances, same
// tables, same paths, all in the wire numbering.
func TestBinaryBatchMatchesJSON(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		name := map[bool]string{false: "plain", true: "ordered"}[ordered]
		t.Run(name, func(t *testing.T) {
			c := newTestClient(t, nil)
			build := binReady(t, c, name, ordered)
			items := binItems(t)

			var rb batchcodec.RequestBuilder
			for _, it := range items {
				rb.Add(it)
			}
			code, body := c.postBinary(name, build, rb.Frame())
			if code != http.StatusOK {
				t.Fatalf("binary batch: %d: %s", code, body)
			}
			resp, err := batchcodec.DecodeResponse(body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Len() != len(items) {
				t.Fatalf("binary batch answered %d of %d items", resp.Len(), len(items))
			}

			var jsonResp struct {
				Results []batchResult `json:"results"`
			}
			c.decode("POST", "/v1/graphs/"+name+"/builds/"+build+"/query",
				batchRequest{Queries: jsonTwin(items)}, http.StatusOK, &jsonResp)

			it := resp.Iter()
			j := 0 // index into the JSON twin (skips the malformed item)
			for i, item := range items {
				if !it.Next() {
					t.Fatalf("binary iterator ended at item %d", i)
				}
				rec := it.Record()
				if !item.Valid() {
					if rec.Err() != batchcodec.ErrBadItem {
						t.Fatalf("item %d: err = %v, want ErrBadItem", i, rec.Err())
					}
					continue
				}
				res := jsonResp.Results[j]
				j++
				if (rec.Err() != batchcodec.ErrNone) != (res.Error != "") {
					t.Fatalf("item %d: binary err %v vs JSON error %q", i, rec.Err(), res.Error)
				}
				if rec.Err() != batchcodec.ErrNone {
					if !strings.Contains(res.Error, jsonErrs[rec.Err()]) {
						t.Fatalf("item %d: binary err %v vs JSON error %q", i, rec.Err(), res.Error)
					}
					continue
				}
				switch {
				case item.AllDists():
					if it.ValueLen() != len(res.Dists) {
						t.Fatalf("item %d: table %d vs %d entries", i, it.ValueLen(), len(res.Dists))
					}
					for k, want := range res.Dists {
						if int32(it.Value(k)) != want {
							t.Fatalf("item %d: table[%d] = %d, want %d", i, k, int32(it.Value(k)), want)
						}
					}
				case item.Route():
					if rec.Reachable() != *res.Reachable {
						t.Fatalf("item %d: reachable %v vs %v", i, rec.Reachable(), *res.Reachable)
					}
					if !rec.Reachable() {
						break
					}
					if rec.Dist != *res.Dist || it.ValueLen() != len(res.Path) {
						t.Fatalf("item %d: route %d/%d vs %d/%d", i, rec.Dist, it.ValueLen(), *res.Dist, len(res.Path))
					}
					for k, want := range res.Path {
						if int(it.Value(k)) != want {
							t.Fatalf("item %d: path[%d] = %d, want %d", i, k, it.Value(k), want)
						}
					}
				default:
					if rec.Dist != *res.Dist || rec.Reachable() != *res.Reachable {
						t.Fatalf("item %d: dist %d/%v vs %d/%v", i, rec.Dist, rec.Reachable(), *res.Dist, *res.Reachable)
					}
				}
			}

			// Pin the typed codes of the error tail (items 8..13). Both
			// protocols report the oracle's first failed check, so the item
			// with a bad source and a bad fault is ErrBadSource here and the
			// source message over JSON.
			wantErrs := []batchcodec.ErrCode{
				batchcodec.ErrBadSource, batchcodec.ErrBadSource, batchcodec.ErrBadTarget,
				batchcodec.ErrBadFault, batchcodec.ErrBadSource, batchcodec.ErrBadItem,
			}
			for k, want := range wantErrs {
				if got := resp.Record(len(items) - len(wantErrs) + k).Err(); got != want {
					t.Fatalf("error item %d: code %v, want %v", k, got, want)
				}
			}
		})
	}
}

// TestBinaryBatchOrderedTransparent is the relabeling-invisibility pin:
// the same graph registered plain and BFS-ordered must answer the same
// binary batch with byte-identical response frames.
func TestBinaryBatchOrderedTransparent(t *testing.T) {
	c := newTestClient(t, nil)
	plainBuild := binReady(t, c, "plain", false)
	ordBuild := binReady(t, c, "ordered", true)

	var rb batchcodec.RequestBuilder
	for _, it := range binItems(t) {
		rb.Add(it)
	}
	frame := rb.Frame()
	code1, resp1 := c.postBinary("plain", plainBuild, frame)
	code2, resp2 := c.postBinary("ordered", ordBuild, frame)
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("binary batches: %d / %d", code1, code2)
	}
	if !bytes.Equal(resp1, resp2) {
		t.Fatalf("ordered graph answered differently (%d vs %d bytes)", len(resp1), len(resp2))
	}
}

// TestBinaryBatchFrameErrors pins the HTTP mapping of frame-level
// failures: malformed frames are 400 with a byte offset, oversized
// batches are 413, and the JSON protocol on the same route is unharmed.
func TestBinaryBatchFrameErrors(t *testing.T) {
	c := newTestClient(t, &Config{MaxBatchQueries: 3})
	build := binReady(t, c, "g", false)

	var rb batchcodec.RequestBuilder
	rb.Add(batchcodec.Item{Source: 0, Target: 1})
	frame := rb.Frame()

	code, body := c.postBinary("g", build, []byte("not a frame"))
	if code != http.StatusBadRequest {
		t.Fatalf("garbage frame: %d: %s", code, body)
	}
	code, body = c.postBinary("g", build, frame[:len(frame)-2])
	if code != http.StatusBadRequest || !bytes.Contains(body, []byte("offset")) {
		t.Fatalf("truncated frame: %d: %s", code, body)
	}

	rb.Reset()
	for i := 0; i < 4; i++ {
		rb.Add(batchcodec.Item{Source: 0, Target: int32(i)})
	}
	code, body = c.postBinary("g", build, rb.Frame())
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %d: %s", code, body)
	}

	// Content negotiation: the JSON protocol still serves the same route.
	var jsonResp struct {
		Results []batchResult `json:"results"`
	}
	tgt := 1
	c.decode("POST", "/v1/graphs/g/builds/"+build+"/query",
		batchRequest{Queries: []batchQuery{{Source: 0, Target: &tgt}}}, http.StatusOK, &jsonResp)
	if len(jsonResp.Results) != 1 || jsonResp.Results[0].Error != "" {
		t.Fatalf("JSON twin on shared route: %+v", jsonResp.Results)
	}
}

// TestBinaryBatchResponseBound lowers the response-size bound and checks
// whole-table items trip it with 413 rather than materializing the lot.
func TestBinaryBatchResponseBound(t *testing.T) {
	old := maxBatchResultValues
	maxBatchResultValues = 100
	defer func() { maxBatchResultValues = old }()
	c := newTestClient(t, nil)
	build := binReady(t, c, "g", false)
	var rb batchcodec.RequestBuilder
	for i := 0; i < 3; i++ {
		rb.Add(batchcodec.Item{Source: 0, Flags: batchcodec.FlagAllDists}) // 62 values each on n=60
	}
	code, body := c.postBinary("g", build, rb.Frame())
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("bounded response: %d: %s", code, body)
	}
}

// TestOrderedBuildSourceNumbering pins the wire contract of renumbered
// graphs across the build plane: sources are sent, stored, and reported
// in the registered numbering, and multi-source structures answer for
// exactly the wire sources the client named.
func TestOrderedBuildSourceNumbering(t *testing.T) {
	c := newTestClient(t, nil)
	spec := GenSpec{Family: "gnp", N: 40, P: 0.15, Seed: 9}
	ordered := true
	c.decode("POST", "/v1/graphs", createGraphRequest{Name: "g", Gen: &spec, Ordered: &ordered},
		http.StatusCreated, nil)
	id := c.startBuild("g", createBuildRequest{Mode: "multi", Sources: []int{3, 7}})
	info := c.waitReady("g", id)
	if info.Status != StatusReady {
		t.Fatalf("build failed: %+v", info)
	}
	if len(info.Sources) != 2 || info.Sources[0] != 3 || info.Sources[1] != 7 {
		t.Fatalf("build sources = %v, want wire [3 7]", info.Sources)
	}
	// Wire sources answer; a non-source wire ID is refused — even if its
	// internal relabeling happens to collide with a source.
	var res distResponse
	c.decode("GET", "/v1/graphs/g/builds/"+id+"/dist?source=3&target=7", nil, http.StatusOK, &res)
	if !res.Reachable || res.Dist < 1 {
		t.Fatalf("dist(3,7) = %+v", res)
	}
	if code, body := c.do("GET", "/v1/graphs/g/builds/"+id+"/dist?source=2&target=7", nil); code != http.StatusBadRequest {
		t.Fatalf("non-source query: %d: %s", code, body)
	}
}

// TestOrderedSnapshotRestart builds over a BFS-ordered graph with a
// store, warm-starts a fresh instance from the same store, and requires
// the restored build to keep the ordered flag, wire-numbered sources,
// and byte-identical binary batch answers — the renumbering must survive
// the snapshot round trip (version-2 VPRM section).
func TestOrderedSnapshotRestart(t *testing.T) {
	store := NewMemStore()
	srv1 := New(&Config{Store: store, OrderVertices: true})
	c1 := newStoreClient(t, srv1)
	build := binReady(t, c1, "g", true)
	if info := c1.waitSnapshot("g", build); info.Snapshot != SnapSaved {
		t.Fatalf("snapshot not saved: %+v", info)
	}
	var rb batchcodec.RequestBuilder
	for _, it := range binItems(t) {
		rb.Add(it)
	}
	frame := rb.Frame()
	code, want := c1.postBinary("g", build, frame)
	if code != http.StatusOK {
		t.Fatalf("pre-restart batch: %d: %s", code, want)
	}

	srv2 := New(&Config{Store: store})
	if restored, err := srv2.WarmStart(); err != nil || restored != 1 {
		t.Fatalf("warm start restored %d builds, err %v", restored, err)
	}
	c2 := newStoreClient(t, srv2)
	var gi graphInfo
	c2.decode("GET", "/v1/graphs/g", nil, http.StatusOK, &gi)
	if !gi.Ordered {
		t.Fatal("restored graph lost its ordered flag")
	}
	var bi buildInfo
	c2.decode("GET", "/v1/graphs/g/builds/"+build, nil, http.StatusOK, &bi)
	if !bi.Restored || len(bi.Sources) != 1 || bi.Sources[0] != 0 {
		t.Fatalf("restored build: %+v", bi)
	}
	code, got := c2.postBinary("g", build, frame)
	if code != http.StatusOK {
		t.Fatalf("post-restart batch: %d: %s", code, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("restart changed binary answers (%d vs %d bytes)", len(want), len(got))
	}
}
