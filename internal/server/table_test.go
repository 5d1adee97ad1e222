package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/server/batchcodec"
)

// TestTableAndSnapshotAnswerAlike serves one multi build twice: as built,
// where Dist reads the build's replacement-distance tables, and restored
// from its own snapshot through PUT …/snapshot, which carries no table,
// so Dist repairs H∖F through the memo. A fixed stream of |F| ≤ 2 items —
// faults on π(s,v), on its detours and anywhere — goes to both over GET
// /dist, a JSON batch and a binary batch. The response bodies must be
// byte-identical, and every distance must equal BFS on G∖F.
func TestTableAndSnapshotAnswerAlike(t *testing.T) {
	const seed = 5
	g := gen.GNP(40, 0.12, seed)
	srcs := []int{0, 20}
	c := newTestClient(t, nil)
	c.createGraph("w", GenSpec{Family: "gnp", N: 40, P: 0.12, Seed: seed})
	built := c.startBuild("w", createBuildRequest{Mode: "multi", Sources: srcs})
	if info := c.waitReady("w", built); info.Status != StatusReady {
		t.Fatalf("build failed: %+v", info)
	}
	code, snapBytes := c.do("GET", "/v1/graphs/w/builds/"+built+"/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("GET snapshot: %d", code)
	}
	const restored = "r1"
	resp, err := c.srv.Client().Do(mustRequest(t, "PUT", c.srv.URL+"/v1/graphs/w/builds/"+restored+"/snapshot", snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT snapshot: %d", resp.StatusCode)
	}

	// The stream: per source and target, no fault, a π edge alone and
	// with a second π edge, a detour edge of it, and any edge, then two
	// arbitrary edges. The server's builds use the default seed, as these
	// do, so their π and detours are the same.
	type item struct {
		src, v int
		faults []int
		want   int32
	}
	rng := rand.New(rand.NewSource(1))
	var items []item
	for _, s := range srcs {
		st, err := core.BuildDual(g, s, &core.Options{CollectPaths: true})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			sets := [][]int{nil, {rng.Intn(g.M()), rng.Intn(g.M())}}
			if tr := st.Targets[v]; tr != nil {
				pi := tr.PiEdgeIDs
				i := rng.Intn(len(pi))
				sets = append(sets, []int{pi[i]}, []int{pi[i], pi[rng.Intn(len(pi))]}, []int{pi[i], rng.Intn(g.M())})
				if d := tr.Detours[i]; d.Valid {
					sets = append(sets, []int{d.EdgeIDs[rng.Intn(len(d.EdgeIDs))], pi[i]})
				}
			}
			for _, f := range sets {
				items = append(items, item{s, v, f, bfs.Distances(g, s, f)[v]})
			}
		}
	}

	bodies := map[string][3][]byte{}
	for _, build := range []string{built, restored} {
		var get bytes.Buffer
		queries := make([]batchQuery, len(items))
		var rb batchcodec.RequestBuilder
		for k, it := range items {
			code, body := c.do("GET", fmt.Sprintf("/v1/graphs/w/builds/%s/dist?source=%d&target=%d&faults=%s",
				build, it.src, it.v, faultsParam(it.faults)), nil)
			if code != http.StatusOK {
				t.Fatalf("%s: GET dist %+v: %d %s", build, it, code, body)
			}
			var dr distResponse
			if err := json.Unmarshal(body, &dr); err != nil {
				t.Fatal(err)
			}
			if dr.Dist != it.want {
				t.Fatalf("%s: GET dist source %d target %d faults %v: %d, BFS on G∖F %d", build, it.src, it.v, it.faults, dr.Dist, it.want)
			}
			get.Write(body)
			v := it.v
			queries[k] = batchQuery{Source: it.src, Target: &v, Faults: it.faults}
			if err := rb.AddQuery(it.src, it.v, it.faults, false); err != nil {
				t.Fatal(err)
			}
		}
		code, jsonBody := c.do("POST", "/v1/graphs/w/builds/"+build+"/query", batchRequest{Queries: queries})
		if code != http.StatusOK {
			t.Fatalf("%s: JSON batch: %d %s", build, code, jsonBody)
		}
		var jr struct {
			Results []batchResult `json:"results"`
		}
		if err := json.Unmarshal(jsonBody, &jr); err != nil {
			t.Fatal(err)
		}
		code, binBody := c.postBinary("w", build, rb.Frame())
		if code != http.StatusOK {
			t.Fatalf("%s: binary batch: %d %s", build, code, binBody)
		}
		bin, err := batchcodec.DecodeResponse(binBody)
		if err != nil {
			t.Fatal(err)
		}
		if len(jr.Results) != len(items) || bin.Len() != len(items) {
			t.Fatalf("%s: %d JSON and %d binary results for %d items", build, len(jr.Results), bin.Len(), len(items))
		}
		for k, it := range items {
			if res := jr.Results[k]; res.Dist == nil || *res.Dist != it.want {
				t.Fatalf("%s: JSON item %d %+v: %+v", build, k, it, res)
			}
			if rec := bin.Record(k); rec.Dist != it.want || rec.Err() != batchcodec.ErrNone {
				t.Fatalf("%s: binary item %d %+v: %+v", build, k, it, rec)
			}
		}
		bodies[build] = [3][]byte{get.Bytes(), jsonBody, binBody}
	}
	for k, proto := range []string{"GET /dist", "JSON batch", "binary batch"} {
		if !bytes.Equal(bodies[built][k], bodies[restored][k]) {
			t.Fatalf("%s: the built and the restored build answer differently", proto)
		}
	}

	// The two answered from different places: the build from its tables
	// alone, the restored copy, which has none, through the memo.
	var a, b buildInfo
	c.decode("GET", "/v1/graphs/w/builds/"+built, nil, http.StatusOK, &a)
	c.decode("GET", "/v1/graphs/w/builds/"+restored, nil, http.StatusOK, &b)
	if a.Cache.TableBytes == 0 || a.Cache.Hits+a.Cache.Misses != 0 {
		t.Fatalf("built: %+v, want table bytes and no memo traffic", a.Cache)
	}
	if b.Cache.TableBytes != 0 || b.Cache.Misses == 0 {
		t.Fatalf("restored: %+v, want no table and memo misses", b.Cache)
	}
	t.Logf("%d items; built %+v; restored %+v", len(items), *a.Cache, *b.Cache)
}
