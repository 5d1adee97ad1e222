package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/server/batchcodec"
)

// restoreCopy installs the snapshot of a ready build under the new build
// ID as: PUT …/snapshot of what GET …/snapshot returned. The copy carries
// no replacement-distance table, so it answers every query through the
// memo.
func (c *testClient) restoreCopy(graph, build, as string) {
	c.t.Helper()
	code, snapBytes := c.do("GET", "/v1/graphs/"+graph+"/builds/"+build+"/snapshot", nil)
	if code != http.StatusOK {
		c.t.Fatalf("GET snapshot: %d", code)
	}
	resp, err := c.srv.Client().Do(mustRequest(c.t, "PUT", c.srv.URL+"/v1/graphs/"+graph+"/builds/"+as+"/snapshot", snapBytes))
	if err != nil {
		c.t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		c.t.Fatalf("PUT snapshot: %d", resp.StatusCode)
	}
}

// TestTableAndSnapshotAnswerAlike serves one multi build twice: as built,
// where every query is read from the build's replacement-distance tables,
// and restored from its own snapshot through PUT …/snapshot, which carries
// no table, so every query repairs H∖F through the memo. A fixed stream of
// |F| ≤ 2 events — faults on π(s,v), on its detours and anywhere — goes to
// both as dist, route and whole-table items, over GET, a JSON batch, an
// NDJSON stream and a binary batch. The response bodies must be
// byte-identical, and every distance, route length and table entry must
// equal BFS on G∖F.
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
	const restored = "r1"
	c.restoreCopy("w", built, restored)

	// The stream: per source and target, no fault, a π edge alone and
	// with a second π edge, a detour edge of it, and any edge, then two
	// arbitrary edges. The server's builds use the default seed, as these
	// do, so their π and detours are the same.
	type item struct {
		src, v int
		faults []int
		want   []int32 // BFS on G∖F from src
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
				items = append(items, item{s, v, f, bfs.Distances(g, s, f)})
			}
		}
	}
	ops := [...]queryOp{opDist, opRoute, opDists}

	// Per build: GET bodies per op, then the JSON batch, the NDJSON stream
	// and the binary batch.
	protos := []string{"GET /dist", "GET /route", "GET /dists", "JSON batch", "NDJSON", "binary batch"}
	bodies := map[string][][]byte{}
	for _, build := range []string{built, restored} {
		var get [len(ops)]bytes.Buffer
		var queries []batchQuery
		var rb batchcodec.RequestBuilder
		for _, it := range items {
			for k, op := range ops {
				url := fmt.Sprintf("/v1/graphs/w/builds/%s/%s?source=%d&faults=%s",
					build, [...]string{"dist", "dists", "route"}[op], it.src, faultsParam(it.faults))
				q := batchQuery{Source: it.src, Faults: it.faults, Route: op == opRoute}
				bi := batchcodec.Item{Source: int32(it.src), Target: int32(it.v), Flags: uint32(len(it.faults))}
				if op == opDists {
					bi.Flags |= batchcodec.FlagAllDists
				} else {
					url += fmt.Sprintf("&target=%d", it.v)
					v := it.v
					q.Target = &v
				}
				if op == opRoute {
					bi.Flags |= batchcodec.FlagRoute
				}
				if len(it.faults) > 0 {
					bi.Fault0 = uint32(it.faults[0])
				}
				if len(it.faults) > 1 {
					bi.Fault1 = uint32(it.faults[1])
				}
				code, body := c.do("GET", url, nil)
				if code != http.StatusOK {
					t.Fatalf("%s: GET %s: %d %s", build, url, code, body)
				}
				get[k].Write(body)
				queries = append(queries, q)
				rb.Add(bi)
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
		code, streamBody := c.do("POST", "/v1/graphs/w/builds/"+build+"/query", batchRequest{Queries: queries, Stream: true})
		if code != http.StatusOK {
			t.Fatalf("%s: NDJSON: %d %s", build, code, streamBody)
		}
		code, binBody := c.postBinary("w", build, rb.Frame())
		if code != http.StatusOK {
			t.Fatalf("%s: binary batch: %d %s", build, code, binBody)
		}
		bin, err := batchcodec.DecodeResponse(binBody)
		if err != nil {
			t.Fatal(err)
		}
		if len(jr.Results) != len(queries) || bin.Len() != len(queries) {
			t.Fatalf("%s: %d JSON and %d binary results for %d items", build, len(jr.Results), bin.Len(), len(queries))
		}
		for k := range queries {
			it, op := items[k/len(ops)], ops[k%len(ops)]
			want, res, rec := it.want[it.v], jr.Results[k], bin.Record(k)
			if rec.Err() != batchcodec.ErrNone || res.Error != "" {
				t.Fatalf("%s: item %d %+v: JSON %+v, binary %+v", build, k, it, res, rec)
			}
			switch op {
			case opDist:
				if res.Dist == nil || *res.Dist != want || rec.Dist != want {
					t.Fatalf("%s: dist item %d %+v: JSON %+v, binary %+v, BFS on G∖F %d", build, k, it, res, rec, want)
				}
			case opRoute:
				if want == bfs.Unreachable {
					if res.Path != nil || rec.Reachable() {
						t.Fatalf("%s: route item %d %+v: JSON %+v, binary %+v, want unreachable", build, k, it, res, rec)
					}
					continue
				}
				p := res.Path
				if len(p) != int(want)+1 || p[0] != it.src || p[want] != it.v || rec.Dist != want {
					t.Fatalf("%s: route item %d %+v: JSON %+v, binary %+v, BFS on G∖F %d", build, k, it, res, rec, want)
				}
				for h := 1; h < len(p); h++ {
					if id, ok := g.EdgeID(p[h-1], p[h]); !ok || slices.Contains(it.faults, id) || it.want[p[h]] != int32(h) {
						t.Fatalf("%s: route item %d %+v: hop %d-%d is not a shortest-path edge of G∖F", build, k, it, p[h-1], p[h])
					}
				}
			default:
				if !slices.Equal(res.Dists, it.want) {
					t.Fatalf("%s: table item %d %+v: %v, BFS on G∖F %v", build, k, it, res.Dists, it.want)
				}
			}
		}
		bodies[build] = [][]byte{get[0].Bytes(), get[1].Bytes(), get[2].Bytes(), jsonBody, streamBody, binBody}
	}
	for k, proto := range protos {
		if !bytes.Equal(bodies[built][k], bodies[restored][k]) {
			t.Fatalf("%s: the built and the restored build answer differently", proto)
		}
	}

	// The two answered from different places: the build from its tables
	// alone, the restored copy, which has none, through the memo.
	var a, b buildInfo
	c.decode("GET", "/v1/graphs/w/builds/"+built, nil, http.StatusOK, &a)
	c.decode("GET", "/v1/graphs/w/builds/"+restored, nil, http.StatusOK, &b)
	if a.Cache.TableBytes == 0 || a.Cache.Hits+a.Cache.Misses != 0 || a.Cache.Len != 0 {
		t.Fatalf("built: %+v, want table bytes and no memo traffic", a.Cache)
	}
	if b.Cache.TableBytes != 0 || b.Cache.Misses == 0 || b.Cache.DeltaEntries == 0 {
		t.Fatalf("restored: %+v, want no table and memo misses, deltas among them", b.Cache)
	}
	t.Logf("%d items; built %+v; restored %+v", len(items)*len(ops), *a.Cache, *b.Cache)
}
