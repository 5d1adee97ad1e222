package server

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/server/batchcodec"
	"repro/internal/snap"
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

// binReady registers a graph and builds a dual structure on source 0,
// returning the build ID.
func binReady(t *testing.T, c *testClient, name string) string {
	t.Helper()
	c.createGraph(name, GenSpec{Family: "gnp", N: 60, P: 0.1, Seed: 42})
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
// and binary protocols and requires record-for-record agreement: same
// errors, same distances, same tables, same paths.
func TestBinaryBatchMatchesJSON(t *testing.T) {
	name := "plain"
	t.Run(name, func(t *testing.T) {
		c := newTestClient(t, nil)
		build := binReady(t, c, name)
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

// TestBinaryBatchFrameErrors pins the HTTP mapping of frame-level
// failures: malformed frames are 400 with a byte offset, oversized
// batches are 413, and the JSON protocol on the same route is unharmed.
func TestBinaryBatchFrameErrors(t *testing.T) {
	c := newTestClient(t, &Config{MaxBatchQueries: 3})
	build := binReady(t, c, "g")

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
	build := binReady(t, c, "g")
	var rb batchcodec.RequestBuilder
	for i := 0; i < 3; i++ {
		rb.Add(batchcodec.Item{Source: 0, Flags: batchcodec.FlagAllDists}) // 62 values each on n=60
	}
	code, body := c.postBinary("g", build, rb.Frame())
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("bounded response: %d: %s", code, body)
	}
}

// TestOrderedBuildSourceNumbering pins the build plane's one vertex
// numbering: the "ordered" registration field is gone (rejected as
// unknown), sources are sent, stored and reported as registered, and
// multi-source structures answer for exactly the sources the client named.
func TestOrderedBuildSourceNumbering(t *testing.T) {
	c := newTestClient(t, nil)
	spec := GenSpec{Family: "gnp", N: 40, P: 0.15, Seed: 9}
	code, body := c.do("POST", "/v1/graphs", map[string]any{"name": "g", "gen": spec, "ordered": true})
	if code != http.StatusBadRequest || !bytes.Contains(body, []byte("ordered")) {
		t.Fatalf("\"ordered\" field: %d: %s", code, body)
	}
	c.createGraph("g", spec)
	id := c.startBuild("g", createBuildRequest{Mode: "multi", Sources: []int{3, 7}})
	info := c.waitReady("g", id)
	if info.Status != StatusReady {
		t.Fatalf("build failed: %+v", info)
	}
	if len(info.Sources) != 2 || info.Sources[0] != 3 || info.Sources[1] != 7 {
		t.Fatalf("build sources = %v, want [3 7]", info.Sources)
	}
	var res distResponse
	c.decode("GET", "/v1/graphs/g/builds/"+id+"/dist?source=3&target=7", nil, http.StatusOK, &res)
	if !res.Reachable || res.Dist < 1 {
		t.Fatalf("dist(3,7) = %+v", res)
	}
	if code, body := c.do("GET", "/v1/graphs/g/builds/"+id+"/dist?source=2&target=7", nil); code != http.StatusBadRequest {
		t.Fatalf("non-source query: %d: %s", code, body)
	}
}

// TestOrderedSnapshotRestart warm-starts from a store holding the legacy
// version-2 fixture (a dual build of SparseGNP(80, 6, 2015) over a
// BFS-renumbered copy) on top of a plain registration of the same graph.
// The restored build must report the registered source, answer a binary
// batch byte for byte like a plain build of the graph made here, and
// serve its snapshot as the version-1 encoding of the stored file under
// this registry's names. A PUT of the same file installs too.
func TestOrderedSnapshotRestart(t *testing.T) {
	legacy, err := os.ReadFile("../../testdata/golden-v2-ordered-dual-sparse-gnp-80.ftbfs")
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	if err := store.Put("g", "b1", func(w io.Writer) error { _, err := w.Write(legacy); return err }); err != nil {
		t.Fatal(err)
	}
	srv := New(&Config{Store: store})
	if err := srv.RegisterGraph("g", &GenSpec{Family: "sparse", N: 80, AvgDeg: 6, Seed: 2015}); err != nil {
		t.Fatal(err)
	}
	if restored, err := srv.WarmStart(); err != nil || restored != 1 {
		t.Fatalf("warm start restored %d builds, err %v", restored, err)
	}
	c := newStoreClient(t, srv)
	var bi buildInfo
	c.decode("GET", "/v1/graphs/g/builds/b1", nil, http.StatusOK, &bi)
	if !bi.Restored || len(bi.Sources) != 1 || bi.Sources[0] != 0 {
		t.Fatalf("restored build: %+v", bi)
	}
	plain := c.startBuild("g", createBuildRequest{Mode: "dual", Sources: []int{0}})
	if info := c.waitReady("g", plain); info.Status != StatusReady {
		t.Fatalf("plain build failed: %+v", info)
	}

	var rb batchcodec.RequestBuilder
	for _, it := range binItems(t) {
		rb.Add(it)
	}
	frame := rb.Frame()
	code, want := c.postBinary("g", plain, frame)
	if code != http.StatusOK {
		t.Fatalf("plain batch: %d: %s", code, want)
	}
	code, got := c.postBinary("g", "b1", frame)
	if code != http.StatusOK {
		t.Fatalf("restored batch: %d: %s", code, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("restored legacy build answered differently (%d vs %d bytes)", len(got), len(want))
	}

	sn, err := snap.Decode(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	sn.Meta.Graph, sn.Meta.Build = "g", "b1"
	var enc bytes.Buffer
	if err := snap.Encode(&enc, sn); err != nil {
		t.Fatal(err)
	}
	if code, body := c.do("GET", "/v1/graphs/g/builds/b1/snapshot", nil); code != http.StatusOK || !bytes.Equal(body, enc.Bytes()) {
		t.Fatalf("GET snapshot: %d, %d bytes; want the %d-byte version-1 encoding of the stored file", code, len(body), enc.Len())
	}
	req, err := http.NewRequest("PUT", c.srv.URL+"/v1/graphs/g/builds/b9/snapshot", bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT legacy snapshot onto the plain registration: %d", resp.StatusCode)
	}
}
