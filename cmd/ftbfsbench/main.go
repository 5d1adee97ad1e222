// Command ftbfsbench runs the paper-reproduction experiment suite (E1–E13
// in DESIGN.md) and prints the resulting tables. This is the full-scale
// companion to the quick `go test -bench .` harness.
//
// Usage:
//
//	ftbfsbench                 # quick profile, all experiments
//	ftbfsbench -full           # full sweep (minutes)
//	ftbfsbench -only E1,E2     # subset
//	ftbfsbench -sizes 60,90    # override the n sweep
//	ftbfsbench -snapshot s.ftbfs  # warm-start-vs-rebuild timing on a snapshot
//
// -snapshot skips the experiment suite and instead measures the
// persistence layer on a real artifact: decode time, oracle-set
// rehydration time, query throughput over the decoded structure, and —
// when the snapshot records its builder mode — a full rebuild of the same
// structure for comparison, with an equality check proving the decoded
// and rebuilt artifacts are identical.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/oracle"
	"repro/internal/snap"
)

func main() {
	// SIGINT/SIGTERM cancel the run's context: the experiments' builders
	// poll it cooperatively, so one signal stops a sweep mid-measurement
	// (a second signal kills the process the usual way).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftbfsbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ftbfsbench", flag.ContinueOnError)
	var (
		full     = fs.Bool("full", false, "full-scale sweep")
		only     = fs.String("only", "", "comma-separated experiment IDs (default: all)")
		sizes    = fs.String("sizes", "", "comma-separated n sweep override")
		seeds    = fs.Int("seeds", 0, "replicate seeds per point")
		snapPath = fs.String("snapshot", "", "bench warm-start vs rebuild on a snapshot file")
		timeout  = fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")

		zipf        = fs.Bool("zipf", false, "run the Zipf-skewed serving workload: entries held, hit rate and q/s of the delta-compressed memo across -cache-bytes budgets, beside budget/(4n) full tables")
		zipfN       = fs.Int("zipf-n", 2000, "zipf workload: graph vertices")
		zipfDeg     = fs.Int("zipf-deg", 6, "zipf workload: average degree")
		zipfSources = fs.Int("zipf-sources", 4, "zipf workload: structure sources")
		zipfSkew    = fs.Float64("zipf-skew", 1.2, "zipf workload: popularity exponent (>1)")
		zipfEvents  = fs.Int("zipf-events", 4096, "zipf workload: distinct single-edge failure events")
		zipfQueries = fs.Int("zipf-queries", 200000, "zipf workload: point lookups per budget")
		zipfSeed    = fs.Int64("zipf-seed", 7, "zipf workload: RNG seed (graph, ranks and stream)")
		cacheBytes  = fs.String("cache-bytes", "262144,1048576,4194304", "zipf workload: comma-separated memo byte budgets")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *snapPath != "" {
		return warmStartBench(ctx, *snapPath, stdout)
	}
	if *zipf {
		if *zipfSkew <= 1 {
			return fmt.Errorf("-zipf-skew must be > 1 (got %g)", *zipfSkew)
		}
		cfg := zipfConfig{
			n: *zipfN, deg: *zipfDeg, sources: *zipfSources, skew: *zipfSkew,
			events: *zipfEvents, queries: *zipfQueries, seed: *zipfSeed,
		}
		if cfg.n < 8 || cfg.sources < 1 || cfg.events < 2 || cfg.queries < 1 {
			return fmt.Errorf("bad -zipf parameters")
		}
		for _, b := range strings.Split(*cacheBytes, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(b), 10, 64)
			if err != nil || v < 1 {
				return fmt.Errorf("bad -cache-bytes budget %q", b)
			}
			cfg.budgets = append(cfg.budgets, v)
		}
		return zipfBench(ctx, cfg, stdout)
	}
	cfg := exp.Config{Full: *full, Seeds: *seeds, Ctx: ctx}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 8 {
				return fmt.Errorf("bad size %q", s)
			}
			cfg.Sizes = append(cfg.Sizes, v)
		}
	}
	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	for _, e := range exp.Experiments {
		if len(wanted) > 0 && !wanted[e.ID] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("stopped before %s: %w", e.ID, err)
		}
		start := time.Now()
		tbl, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprint(stdout, tbl.String())
		fmt.Fprintf(stdout, "   (%.1fs)\n\n", time.Since(start).Seconds())
	}
	return nil
}

// warmStartBench measures what the snapshot layer buys: load + rehydrate
// time versus rebuilding the same structure from scratch. The rebuild —
// the expensive half — honors ctx (SIGINT / -timeout).
func warmStartBench(ctx context.Context, path string, stdout io.Writer) error {
	start := time.Now()
	sn, err := snap.ReadFile(path)
	if err != nil {
		return err
	}
	decode := time.Since(start)
	st := sn.Structure

	start = time.Now()
	set, err := oracle.NewSet(st, 0)
	if err != nil {
		return err
	}
	rehydrate := time.Since(start)

	// Exercise the rehydrated oracle: distinct single-fault events from
	// every structure source (uncached BFS each, the serving cold path).
	// A zero fault budget or a vertex-fault structure cannot take edge
	// faults, so those probe only the fault-free table.
	o := set.Handle()
	queries := 0
	start = time.Now()
	if st.Faults > 0 && !st.VertexFaults {
		for _, s := range st.Sources {
			for id := 0; id < st.G.M() && queries < 256; id += 3 {
				if _, err := o.Dists(s, []int{id}); err != nil {
					return err
				}
				queries++
			}
		}
	} else {
		for _, s := range st.Sources {
			if _, err := o.Dists(s, nil); err != nil {
				return err
			}
			queries++
		}
	}
	queryTime := time.Since(start)

	fmt.Fprintf(stdout, "snapshot %s: n=%d m=%d, %d structure edges, f=%d, sources %v\n",
		path, st.G.N(), st.G.M(), st.NumEdges(), st.Faults, st.Sources)
	fmt.Fprintf(stdout, "  decode            %12v\n", decode)
	fmt.Fprintf(stdout, "  oracle rehydrate  %12v\n", rehydrate)
	warm := decode + rehydrate
	fmt.Fprintf(stdout, "  warm start total  %12v\n", warm)
	if queries > 0 {
		fmt.Fprintf(stdout, "  %d uncached dist-table queries: %v (%.0f/s)\n",
			queries, queryTime, float64(queries)/queryTime.Seconds())
	}

	build, berr := core.BuilderForMode(sn.Meta.Mode, st.Sources)
	if berr != nil {
		fmt.Fprintf(stdout, "  rebuild: skipped (%v)\n", berr)
		return nil
	}
	start = time.Now()
	var prog core.Progress
	st2, err := build(st.G, &core.Options{Seed: sn.Meta.Seed, Ctx: ctx, Progress: &prog})
	if err != nil {
		return err
	}
	rebuild := time.Since(start)
	same := st2.NumEdges() == st.NumEdges()
	if same {
		for _, id := range st.Edges.IDs() {
			if !st2.Edges.Has(id) {
				same = false
				break
			}
		}
	}
	fmt.Fprintf(stdout, "  rebuild (%s)      %12v   %.1f× slower than warm start\n",
		sn.Meta.Mode, rebuild, float64(rebuild)/float64(warm))
	// Per-phase breakdown of the rebuild (goroutine-time: phases sum to
	// more than wall time for parallel builds).
	if ps := prog.Snapshot(); ps.BaseNS+ps.EventsNS+ps.UnionNS > 0 {
		fmt.Fprintf(stdout, "    base trees      %12v\n", time.Duration(ps.BaseNS))
		fmt.Fprintf(stdout, "    fault events    %12v\n", time.Duration(ps.EventsNS))
		fmt.Fprintf(stdout, "    union/fold      %12v\n", time.Duration(ps.UnionNS))
	}
	if !same {
		return fmt.Errorf("rebuilt structure differs from snapshot (seed %d, mode %s)", sn.Meta.Seed, sn.Meta.Mode)
	}
	fmt.Fprintf(stdout, "  rebuilt structure is identical to the decoded one\n")
	return nil
}
