package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server/batchcodec"
)

// benchServer stands up a server with one ready dual build over sparse
// n=400 and returns the handler plus the build's query path prefix.
func benchServer(b *testing.B) (http.Handler, string) {
	return benchBuild(b, nil, &GenSpec{Family: "sparse", N: 400, AvgDeg: 8, Seed: 1},
		`{"mode":"dual","sources":[0],"parallelism":4}`)
}

// benchBuild registers spec as graph "bench" on a server with cfg, runs
// one build from the JSON body build, and returns the handler plus the
// ready build's query path prefix.
func benchBuild(b *testing.B, cfg *Config, spec *GenSpec, build string) (http.Handler, string) {
	b.Helper()
	s := New(cfg)
	if err := s.RegisterGraph("bench", spec); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	req := httptest.NewRequest("POST", "/v1/graphs/bench/builds", strings.NewReader(build))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		b.Fatalf("build start: %d %s", rec.Code, rec.Body)
	}
	var info buildInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		b.Fatal(err)
	}
	prefix := "/v1/graphs/bench/builds/" + info.ID
	deadline := time.Now().Add(time.Minute)
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", prefix, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			b.Fatal(err)
		}
		if info.Status == StatusReady {
			return h, prefix
		}
		if info.Status == StatusFailed || time.Now().After(deadline) {
			b.Fatalf("bench build: %+v", info)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// BenchmarkServerDist measures end-to-end handler throughput on the hot
// query path (cached failure events, rotating targets): the server-side
// queries/sec number reported in CHANGES.md.
func BenchmarkServerDist(b *testing.B) {
	h, prefix := benchServer(b)
	faults := []string{"3", "9", "21", "30"}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		url := fmt.Sprintf("%s/dist?source=0&target=%d&faults=%s", prefix, i%400, faults[i%len(faults)])
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("code %d: %s", rec.Code, rec.Body)
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "queries/s")
}

// BenchmarkServerDistParallel is BenchmarkServerDist across GOMAXPROCS
// client goroutines — the concurrent serving shape ftbfsd targets.
func BenchmarkServerDistParallel(b *testing.B) {
	h, prefix := benchServer(b)
	faults := []string{"3", "9", "21", "30"}
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(ctr.Add(1))
			url := fmt.Sprintf("%s/dist?source=0&target=%d&faults=%s", prefix, i%400, faults[i%len(faults)])
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			if rec.Code != http.StatusOK {
				b.Errorf("code %d: %s", rec.Code, rec.Body) // Fatal must not be called off the main goroutine
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "queries/s")
}

// BenchmarkServerRoute measures the GET route path over 50 rotating
// single-fault events: after the first pass every route is a memo hit plus
// a walk back from the target over the event's distance table.
func BenchmarkServerRoute(b *testing.B) {
	h, prefix := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		url := fmt.Sprintf("%s/route?source=0&target=%d&faults=%d", prefix, i%400, i%50)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("code %d: %s", rec.Code, rec.Body)
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "queries/s")
}

// batchBody builds a reusable JSON body of `items` dist queries rotating
// over targets and cached failure events.
func batchBody(items int) string {
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	faults := []string{"[3]", "[9]", "[21]", "[30]"}
	for i := 0; i < items; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"source":0,"target":%d,"faults":%s}`, i%400, faults[i%len(faults)])
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// BenchmarkServerBatch1000 measures the batch path: 1000 dist queries per
// HTTP request through one pooled oracle — the per-query cost this
// endpoint exists to amortize (compare with BenchmarkServerDist).
func BenchmarkServerBatch1000(b *testing.B) {
	h, prefix := benchServer(b)
	body := batchBody(1000)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", prefix+"/query", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("code %d: %s", rec.Code, rec.Body)
		}
	}
	b.ReportMetric(float64(b.N)*1000/time.Since(start).Seconds(), "queries/s")
}

// BenchmarkServerBatch1000Parallel runs concurrent 1000-item batches —
// the multi-core serving shape (shared memo + one handle per request).
func BenchmarkServerBatch1000Parallel(b *testing.B) {
	h, prefix := benchServer(b)
	body := batchBody(1000)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest("POST", prefix+"/query", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Errorf("code %d: %s", rec.Code, rec.Body) // Fatal must not be called off the main goroutine
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)*1000/time.Since(start).Seconds(), "queries/s")
}

// BenchmarkServerBatchStream measures the NDJSON streaming variant.
func BenchmarkServerBatchStream(b *testing.B) {
	h, prefix := benchServer(b)
	body := strings.Replace(batchBody(1000), `{"queries":`, `{"stream":true,"queries":`, 1)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", prefix+"/query", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("code %d: %s", rec.Code, rec.Body)
		}
	}
	b.ReportMetric(float64(b.N)*1000/time.Since(start).Seconds(), "queries/s")
}

// mixedJSONBodies draws the JSON batch bodies of the benchmark's
// route-json workload: `requests` bodies of `items` items each. Failure
// events come from a universe of 4096 (one fault in 20%, two distinct in
// the rest) and are drawn Zipf(1.2), as are the sources; 10% of items
// carry no fault. Targets are uniform over the n vertices; 70% of items ask
// for a distance, 20% for a route and 10% for the whole table.
func mixedJSONBodies(n, m int, sources []int, requests, items int) [][]byte {
	rng := rand.New(rand.NewPCG(1, 2))
	events := make([][]int, 4096)
	for i := range events {
		two := rng.Float64() >= 0.2
		f0 := rng.IntN(m)
		events[i] = []int{f0}
		for two {
			if f1 := rng.IntN(m); f1 != f0 {
				events[i] = append(events[i], f1)
				break
			}
		}
	}
	zsrc := rand.NewZipf(rng, 1.2, 1, uint64(len(sources)-1))
	zevents := rand.NewZipf(rng, 1.2, 1, uint64(len(events)-1))
	bodies := make([][]byte, requests)
	for r := range bodies {
		b := []byte(`{"queries":[`)
		for i := 0; i < items; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			target, src := rng.IntN(n), sources[zsrc.Uint64()]
			var faults []int
			if rng.Float64() >= 0.1 {
				faults = events[zevents.Uint64()]
			}
			u := rng.Float64()
			b = fmt.Appendf(b, `{"source":%d`, src)
			if u < 0.2 || u >= 0.3 { // whole-table items have no target
				b = fmt.Appendf(b, `,"target":%d`, target)
			}
			if len(faults) > 0 {
				b = append(b, `,"faults":[`...)
				for k, f := range faults {
					if k > 0 {
						b = append(b, ',')
					}
					b = strconv.AppendInt(b, int64(f), 10)
				}
				b = append(b, ']')
			}
			if u < 0.2 {
				b = append(b, `,"route":true`...)
			}
			b = append(b, '}')
		}
		bodies[r] = append(b, "]}"...)
	}
	return bodies
}

// BenchmarkServerBatchMixedJSON sends the route-json workload's requests
// through the handler: the serving build (sparse n=1000 avgDeg=6 seed=1,
// multi from sources 0 and 500, 8 MiB memo) answering 64-item JSON
// batches of mixedJSONBodies, rotated over 256 bodies after one warm-up
// pass. It times the JSON codec together with the oracle work it wraps.
func BenchmarkServerBatchMixedJSON(b *testing.B) {
	spec := &GenSpec{Family: "sparse", N: 1000, AvgDeg: 6, Seed: 1}
	g, err := spec.generate()
	if err != nil {
		b.Fatal(err)
	}
	h, prefix := benchBuild(b, &Config{CacheBytes: 8 << 20}, spec, `{"mode":"multi","sources":[0,500]}`)
	const items = 64
	bodies := mixedJSONBodies(g.N(), g.M(), []int{0, 500}, 256, items)
	post := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", prefix+"/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("code %d: %s", rec.Code, rec.Body)
		}
	}
	for _, body := range bodies {
		post(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		post(bodies[i%len(bodies)])
	}
	b.ReportMetric(float64(b.N)*items/time.Since(start).Seconds(), "items/s")
}

// binBatchFrame builds a reusable binary frame of `items` dist queries
// mirroring batchBody exactly (same targets, same rotating fault sets).
func binBatchFrame(b *testing.B, items int) []byte {
	b.Helper()
	var rb batchcodec.RequestBuilder
	faults := []uint32{3, 9, 21, 30}
	for i := 0; i < items; i++ {
		rb.Add(batchcodec.Item{Source: 0, Target: int32(i % 400), Fault0: faults[i%len(faults)], Flags: 1})
	}
	return append([]byte(nil), rb.Frame()...)
}

// BenchmarkServerBatch1000Binary is BenchmarkServerBatch1000 over the
// binary batch protocol: the same 1000 dist queries per request, minus
// JSON. The delta between the two is pure codec cost — the ">1M q/s on
// one core" target of the binary protocol.
func BenchmarkServerBatch1000Binary(b *testing.B) {
	h, prefix := benchServer(b)
	frame := binBatchFrame(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", prefix+"/query", bytes.NewReader(frame))
		req.Header.Set("Content-Type", batchcodec.ContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("code %d: %s", rec.Code, rec.Body)
		}
	}
	b.ReportMetric(float64(b.N)*1000/time.Since(start).Seconds(), "queries/s")
}

// BenchmarkServerBatch1000BinaryParallel is the concurrent variant —
// pooled body buffers and response writers are shared across goroutines.
func BenchmarkServerBatch1000BinaryParallel(b *testing.B) {
	h, prefix := benchServer(b)
	frame := binBatchFrame(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest("POST", prefix+"/query", bytes.NewReader(frame))
			req.Header.Set("Content-Type", batchcodec.ContentType)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Errorf("code %d: %s", rec.Code, rec.Body) // Fatal must not be called off the main goroutine
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)*1000/time.Since(start).Seconds(), "queries/s")
}
