// Command ftbfs-load is the end-to-end benchmark of ftbfsd: it launches the
// daemon on loopback, sets up a serving build, drives one workload over TCP
// from at most two connections, checks sampled answers against BFS on G∖F,
// and prints every metric as a "name value unit" line followed by one JSON
// summary line. With -trace 1 it also replays the request stream in process
// through each layer's public calls and prints the per-layer metrics.
//
// Run it through bench/run.sh, which builds ftbfsd and this harness first:
//
//	bash bench/run.sh --workload zipf-point --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload miss-batch --seed 1 --seconds 20 --trace 1 -trace-out spans.jsonl
//	bash bench/run.sh --workload route-json --seed 1 --seconds 20 --trace 0 -json runs.json
//	bash bench/run.sh -compare parent.json change.json
//
// See bench/README.md for the workloads and the metric catalogue.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ftbfs-load:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ftbfs-load", flag.ContinueOnError)
	var (
		wlName   = fs.String("workload", "", "workload: zipf-point, miss-batch, route-json or build-under-load")
		seed     = fs.Int64("seed", 1, "seed of every request stream (the graphs are fixed)")
		seconds  = fs.Float64("seconds", 20, "length of the measured window in seconds")
		traceOn  = fs.Int("trace", 0, "1 = traced run: replay the stream through the layers and report per-layer metrics")
		traceOut = fs.String("trace-out", "", "traced run: write every span to this file as JSON lines")
		jsonOut  = fs.String("json", "", "append this run (machine, workload, seed, metrics) to this results file")
		compare  = fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
		daemon   = fs.String("daemon", "", "ftbfsd binary to benchmark (bench/run.sh builds and passes it)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two results files")
		}
		return compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	w, err := workloadByName(*wlName)
	if err != nil {
		return err
	}
	if *daemon == "" {
		return errors.New("-daemon is required (run through bench/run.sh)")
	}
	if *traceOn != 0 && *traceOn != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *traceOn)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	o := options{w: w, p: fullProfile, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *traceOn == 1, traceOut: *traceOut, daemon: *daemon}
	// Bound a run to under three minutes, and tear the daemon
	// down on an interrupt.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	out, err := run(ctx, o, stderr)
	if err != nil {
		return err
	}
	if err := report(stdout, spec, o, out); err != nil {
		return err
	}
	if *jsonOut != "" {
		return appendResult(*jsonOut, o, out)
	}
	return nil
}

// report prints every metric as a "name value unit" line, then the summary
// line: the end-to-end metrics of BENCHMARK.json for an untraced run, its
// per-layer metrics for a traced one.
func report(stdout io.Writer, spec *benchSpec, o options, out *outcome) error {
	fmt.Fprintf(stdout, "# workload=%s seed=%d window=%v trace=%v n=%d\n", o.w.name, o.seed, o.window, o.trace, o.p.n)
	if o.trace {
		fmt.Fprintln(stdout, "# end-to-end numbers of a traced run are for reference; the untraced run reports them")
	}
	byName := map[string]metric{}
	for _, m := range out.metrics {
		fmt.Fprintf(stdout, "%s %v %s\n", m.name, m.value, m.unit)
		byName[m.name] = m
	}
	if out.selfLine != "" {
		fmt.Fprintln(stdout, out.selfLine)
	}
	want := spec.EndToEnd
	if o.trace {
		want = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(out.wrong) == 0, out.attempted, out.failed, map[string]value{}}
	for _, ms := range want {
		m, ok := byName[ms.Name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s was not measured on %s", ms.Name, o.w.name)
		}
		if m.unit != ms.Unit {
			return fmt.Errorf("metric %s is in %s, BENCHMARK.json says %s", ms.Name, m.unit, ms.Unit)
		}
		summary.Metrics[ms.Name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
