package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// options describe one benchmark run.
type options struct {
	w        workload
	p        profile
	seed     int64
	window   time.Duration
	trace    bool
	traceOut string
	daemon   string // ftbfsd binary; "" serves in process (smoke test)
}

type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is everything a run measured.
type outcome struct {
	metrics   []metric
	attempted int
	failed    int // failed items plus wrong answers
	wrong     []string
	selfLine  string
}

func (o *outcome) add(name string, v float64, unit string) {
	o.metrics = append(o.metrics, metric{name, v, unit})
}

// run sets up the server, drives the workload, checks the sampled answers
// and, in a traced run, replays the stream through the layers.
func run(ctx context.Context, o options, diag io.Writer) (*outcome, error) {
	g := gen.SparseGNP(o.p.n, o.p.avgDeg, o.p.graphSeed)
	setups := o.p.setups
	if o.trace {
		setups = 1 // a traced run reports no end-to-end metric
	}
	var setupS, registerMS []float64
	var s *setup
	defer func(t time.Time) { fmt.Fprintf(diag, "# run took %.2fs\n", time.Since(t).Seconds()) }(time.Now())
	for i := 0; i < setups; i++ {
		si, err := setUp(ctx, o.daemon, o.p)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, si.seconds)
		registerMS = append(registerMS, si.registerMS)
		if i == setups-1 {
			s = si
		} else if err := si.t.stop(); err != nil {
			return nil, fmt.Errorf("stop set-up %d: %w", i, err)
		}
	}
	out, err := drive(ctx, o, g, s, diag)
	if serr := s.t.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stop server: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	out.add("setup_s", median(setupS), "s")
	out.add("server.register_ms", median(registerMS), "ms")
	for _, msg := range out.wrong {
		fmt.Fprintln(diag, "wrong answer:", msg)
	}
	return out, nil
}

// drive sends the workload to the set-up server and measures it.
func drive(ctx context.Context, o options, g *graph.Graph, s *setup, diag io.Writer) (*outcome, error) {
	l := &loadRun{w: o.w, p: o.p, base: s.base, traced: o.trace, gen: newGenerator(o.w, o.p, g.M(), o.seed)}
	phase := time.Now()
	lap := func(name string) {
		fmt.Fprintf(diag, "# %s took %.2fs\n", name, time.Since(phase).Seconds())
		phase = time.Now()
	}
	win, err := l.run(ctx, s.t, o.window)
	if err != nil {
		return nil, err
	}
	lap("load")
	rss, err := s.t.rssMB()
	if err != nil {
		return nil, err
	}
	out := &outcome{}

	// The window's requests are those due (open loop) or sent (closed
	// loop) inside it; qps counts their good items over the time from the
	// window's start to the last answer.
	var lat, lag, latTraced, latPlain []float64
	okItems, lastRecv := 0, win.start
	firstErr := ""
	for _, r := range l.reqs {
		out.attempted += len(r.items)
		out.failed += r.failed
		if firstErr == "" {
			firstErr = r.err
		}
		at := r.send
		if o.w.open {
			at = r.due
		}
		if at < win.start || at >= win.end {
			continue
		}
		okItems += len(r.items) - r.failed
		lastRecv = max(lastRecv, r.recv)
		ms := float64(r.recv-at) / 1e6
		if r.failed > 0 {
			ms = math.Inf(1)
		}
		lat = append(lat, ms)
		// Generator lag: how late the request left compared with when it
		// was due and a connection was free to send it.
		lag = append(lag, float64(r.send-max(r.due, r.ready))/1e6)
		if r.traced {
			latTraced = append(latTraced, ms)
		} else {
			latPlain = append(latPlain, ms)
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no request in the measured window")
	}
	if firstErr != "" {
		fmt.Fprintf(diag, "%d of %d items failed; first: %s\n", out.failed, out.attempted, firstErr)
	}
	checked, wrong := checkAnswers(g, l.reqs)
	out.wrong = wrong
	out.failed += len(wrong)
	lap("wire check")

	out.add("qps", float64(okItems)/time.Duration(lastRecv-win.start).Seconds(), "items/s")
	out.add("p25_ms", quantile(lat, 0.25), "ms")
	out.add("p50_ms", quantile(lat, 0.50), "ms")
	out.add("p99_ms", quantile(lat, 0.99), "ms")
	out.add("rss_mb", rss, "MiB")
	out.add("fail_frac", float64(out.failed)/float64(out.attempted), "ratio")
	build := s.build
	if o.w.buildUnderLoad {
		build = win.loadBuild
		out.add("build_s", (build.QueuedMS+build.ElapsedMS)/1000, "s")
	}
	out.add("wire.checked", float64(checked), "count")
	out.add("loadgen.samples", float64(len(lat)), "count")
	out.add("loadgen.lag_p99_ms", quantile(lag, 0.99), "ms")
	out.add("loadgen.cpu_s", win.self1-win.self0, "s")
	out.add("proc.cpu_s", win.cpu1-win.cpu0, "s")
	hits, misses := win.stats1.Hits-win.stats0.Hits, win.stats1.Misses-win.stats0.Misses
	out.add("oracle.hit_frac", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	out.add("oracle.evictions", float64(win.stats1.Evictions-win.stats0.Evictions), "count")
	out.add("oracle.bytes_used_mb", float64(win.stats1.BytesUsed)/(1<<20), "MiB")
	out.add("oracle.delta_entries", float64(win.stats1.DeltaEntries), "count")
	out.add("oracle.full_entries", float64(win.stats1.FullEntries), "count")
	out.add("core.dijkstras", float64(build.Stats.Dijkstras), "count")
	out.add("core.edges_kept", float64(build.Edges), "count")
	out.add("core.build_queued_ms", build.QueuedMS, "ms")
	if !o.trace {
		return out, nil
	}

	out.add("trace.overhead_frac", quantile(latTraced, 0.5)/quantile(latPlain, 0.5)-1, "ratio")
	L, err := replay(l, s.t, g)
	if err != nil {
		return nil, err
	}
	lap("replay")
	if L.replayEdges != s.build.Edges {
		msg := fmt.Sprintf("replayed serving build keeps %d edges, ftbfsd's keeps %d", L.replayEdges, s.build.Edges)
		out.wrong = append(out.wrong, msg)
		out.failed++
	}
	out.selfLine = L.report(out, o.w, l.reqs)
	if o.traceOut != "" {
		if err := writeTrace(o.traceOut, L.spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// quantile returns the nearest-rank q-quantile of v (v is reordered).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	slices.Sort(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(i, 0)]
}

func median(v []float64) float64 {
	return quantile(slices.Clone(v), 0.5)
}
