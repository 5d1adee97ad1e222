package main

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

// TestWorkloadsShort drives every workload, traced, in the short profile
// against an in-process server on a real loopback listener, and checks the
// output contract: every metric BENCHMARK.json names is printed with its
// unit, no item fails, and the summary line is last.
func TestWorkloadsShort(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the harness runs %d workloads", names, len(workloads))
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // the windows are mostly idle at the short profile's rate
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			o := options{w: w, p: shortProfile, seed: 7, window: 500 * time.Millisecond, trace: true}
			var diag bytes.Buffer
			out, err := run(ctx, o, &diag)
			if err != nil {
				t.Fatalf("%v\n%s", err, diag.String())
			}
			var stdout bytes.Buffer
			if err := report(&stdout, spec, o, out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			units := map[string]string{}
			values := map[string]string{}
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) == 3 && !strings.HasPrefix(l, "#") {
					values[f[0]], units[f[0]] = f[1], f[2]
				}
			}
			for _, ms := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
				if units[ms.Name] != ms.Unit {
					t.Errorf("%s printed with unit %q, want %q", ms.Name, units[ms.Name], ms.Unit)
				}
			}
			if values["fail_frac"] != "0" {
				t.Errorf("fail_frac = %s, want 0\n%s", values["fail_frac"], diag.String())
			}
			var summary struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatalf("last line is not the summary: %v", err)
			}
			if !summary.Correct || summary.Failed != 0 || summary.Attempted == 0 {
				t.Errorf("summary: correct=%v failed=%d attempted=%d", summary.Correct, summary.Failed, summary.Attempted)
			}
			if len(summary.Metrics) != len(spec.PerLayer) {
				t.Errorf("summary has %d metrics, BENCHMARK.json has %d per-layer metrics", len(summary.Metrics), len(spec.PerLayer))
			}
		})
	}
}

// TestStreamDeterministic pins the request streams to the seed: the same
// seed gives byte-identical requests, another seed different ones. It
// hashes the requests that carry the first 10k items: 10k requests of the
// single-item workloads, fewer of the batch ones.
func TestStreamDeterministic(t *testing.T) {
	m := gen.SparseGNP(fullProfile.n, fullProfile.avgDeg, 1).M()
	for _, w := range workloads {
		k := (10000 + w.batch - 1) / w.batch
		a := streamHash(w, fullProfile, m, 1, k)
		if b := streamHash(w, fullProfile, m, 1, k); a != b {
			t.Errorf("%s: seed 1 gave two different streams", w.name)
		}
		if c := streamHash(w, fullProfile, m, 2, k); a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
	}
}
