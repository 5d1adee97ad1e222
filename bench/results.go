package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the harness reads: the workloads,
// and the metrics with their units, directions and regression bounds.
type benchSpec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// resultsFile is what -json appends to and -compare reads: any number of
// runs, each with the machine it ran on.
type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

type runRecord struct {
	Machine  machine            `json:"machine"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Correct  bool               `json:"correct"`
	Failed   int                `json:"failed"`
	Metrics  map[string]float64 `json:"metrics"`
}

type machine struct {
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

func thisMachine() machine {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return machine{NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: commit}
}

func appendResult(path string, o options, out *outcome) error {
	var f resultsFile
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	rec := runRecord{Machine: thisMachine(), Workload: o.w.name, Seed: o.seed, Seconds: o.window.Seconds(),
		Trace: o.trace, Correct: len(out.wrong) == 0, Failed: out.failed, Metrics: map[string]float64{}}
	for _, m := range out.metrics {
		if !math.IsNaN(m.value) && !math.IsInf(m.value, 0) {
			rec.Metrics[m.name] = m.value
		}
	}
	f.Runs = append(f.Runs, rec)
	data, err = json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric of one workload across a file's runs:
// end-to-end metrics from untraced runs, per-layer ones from traced runs.
func (f *resultsFile) values(workload, name string, traced bool) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == traced {
			out = append(out, v)
		}
	}
	return out
}

// compareFiles prints, per workload and metric, each side's median and
// quartiles, the share of paired runs b wins, and a verdict: improved when
// b wins at least 9 of 10 pairs and the medians differ by more than a's
// interquartile range; unresolved when a's spread is wider than the
// metric's bound and b does not beat every run of a; regressed when b's
// median is worse than a's by more than the bound; unchanged otherwise.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1 q3]\tb median [q1 q3]\tb wins\tbound\tverdict")
	for _, wl := range workloads {
		for _, group := range []struct {
			specs  []metricSpec
			traced bool
		}{{spec.EndToEnd, false}, {spec.PerLayer, true}} {
			for _, ms := range group.specs {
				va, vb := a.values(wl.name, ms.Name, group.traced), b.values(wl.name, ms.Name, group.traced)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				qa, qb := quartiles(va), quartiles(vb)
				bound := "-"
				if ms.Bound != nil {
					bound = fmt.Sprint(*ms.Bound)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g %.4g]\t%.4g [%.4g %.4g]\t%.2f\t%s\t%s\n",
					wl.name, ms.Name, ms.Unit, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
					winShare(va, vb, ms.Better), bound, verdict(va, vb, ms))
			}
		}
	}
	return tw.Flush()
}

// quartiles returns the quartiles of v as Python's
// statistics.quantiles(v, n=4) (the exclusive method) computes them.
func quartiles(v []float64) [3]float64 {
	d := slices.Sorted(slices.Values(v))
	n := len(d)
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// better reports whether x is better than y for a metric of the given
// direction.
func better(x, y float64, dir string) bool {
	if dir == "higher" {
		return x > y
	}
	return x < y
}

// winShare is the share of paired runs (a's i-th with b's i-th) in which b
// is better; ties count for neither side.
func winShare(a, b []float64, dir string) float64 {
	n := min(len(a), len(b))
	wins := 0
	for i := 0; i < n; i++ {
		if better(b[i], a[i], dir) {
			wins++
		}
	}
	return float64(wins) / float64(n)
}

func verdict(a, b []float64, ms metricSpec) string {
	qa, qb := quartiles(a), quartiles(b)
	gap := qb[1] - qa[1]
	if ms.Better != "higher" {
		gap = -gap // gap > 0: b is better
	}
	iqr := qa[2] - qa[0]
	if winShare(a, b, ms.Better) >= 0.9 && gap > iqr {
		return "improved"
	}
	if ms.Bound == nil {
		if winShare(b, a, ms.Better) >= 0.9 && -gap > iqr {
			return "regressed"
		}
		return "unchanged"
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y, ms.Better)
		}
	}
	limit := *ms.Bound * math.Abs(qa[1])
	if iqr > limit && !allBetter {
		return "unresolved"
	}
	if -gap > limit {
		return "regressed"
	}
	return "unchanged"
}
