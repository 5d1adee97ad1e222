package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server/batchcodec"
)

// benchServer stands up a server with one ready dual build over gnp
// n=400 and returns the handler plus the build's query path prefix.
func benchServer(b *testing.B) (http.Handler, string) {
	b.Helper()
	s := New(nil)
	if err := s.RegisterGraph("bench", &GenSpec{Family: "sparse", N: 400, AvgDeg: 8, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	body := `{"mode":"dual","sources":[0],"parallelism":4}`
	req := httptest.NewRequest("POST", "/v1/graphs/bench/builds", strings.NewReader(body))
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
// the multi-core serving shape (sharded cache + one handle per request).
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
