package ftbfs_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	ftbfs "repro"
)

// TestFacadeOracleSet exercises the concurrent-serving exports: a shared
// OracleSet queried through pooled handles from several goroutines. The
// set serves a copy of the structure without its replacement-distance
// table, so its Dist answers go through the memo whose counters are
// checked; the spot check compares them with the table's.
func TestFacadeOracleSet(t *testing.T) {
	g := ftbfs.GNP(30, 0.2, 4)
	st, err := ftbfs.BuildDualFTBFS(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	memo := *st
	memo.Tables = nil
	set, err := ftbfs.NewOracleSet(&memo, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f := set.Structure().Faults; f != 2 {
		t.Fatalf("faults = %d", f)
	}
	single, err := ftbfs.NewOracle(st)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := set.Acquire()
			defer set.Release(o)
			for a := c; a < g.M(); a += 8 {
				if _, err := o.Dist(0, a%g.N(), []int{a}); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	// Spot-check one answer against the single-handle oracle.
	want, err := single.Dist(0, 7, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	o := set.Handle()
	got, err := o.Dist(0, 7, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("set answer %d, oracle answer %d", got, want)
	}
	var stats ftbfs.OracleCacheStats = set.CacheStats()
	if stats.Misses == 0 {
		t.Fatalf("no cache traffic recorded: %+v", stats)
	}
}

// TestFacadeServer stands the ftbfsd handler up through the facade and
// runs one build + query round trip.
func TestFacadeServer(t *testing.T) {
	srv := ftbfs.NewServer(&ftbfs.ServerConfig{CacheBytes: 64 << 10})
	if err := srv.RegisterGraph("f", &ftbfs.ServerGenSpec{Family: "cycle", N: 12}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/graphs/f/builds", "application/json",
		strings.NewReader(`{"mode":"dual","sources":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	var build struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&build); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for (build.Status == "queued" || build.Status == "building") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get(ts.URL + "/v1/graphs/f/builds/" + build.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&build); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	if build.Status != "ready" {
		t.Fatalf("build status %q", build.Status)
	}
	r, err := http.Get(ts.URL + "/v1/graphs/f/builds/" + build.ID + "/dist?source=0&target=6&faults=0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var dr struct {
		Dist      int32 `json:"dist"`
		Reachable bool  `json:"reachable"`
	}
	if err := json.NewDecoder(r.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	// 12-cycle, edge 0 (0-1) failed: 0→6 goes the long way, 6 hops.
	if !dr.Reachable || dr.Dist != 6 {
		t.Fatalf("want dist 6, got %+v", dr)
	}
}
