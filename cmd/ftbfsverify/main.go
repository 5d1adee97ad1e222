// Command ftbfsverify checks a structure file against a graph file:
// is H an f-failure FT-MBFS structure of G for the given sources?
//
// Usage:
//
//	ftbfsverify -graph g.txt -structure h.txt -sources 0,5 -f 2 [-sampled N]
//	ftbfsverify -snapshot s.ftbfs [-sampled N]
//
// With -snapshot, the graph, structure, sources and fault model all come
// from a binary snapshot file (internal/snap format, as persisted by
// ftbfsd or packed by ftbfssnap) — no rebuild, no text parsing; -sources
// and -f override the snapshot's recorded values when given explicitly.
//
// An exhaustive pass over a big instance can run for minutes; SIGINT (or
// -timeout) cancels it cooperatively and the run exits 1 reporting how
// far it got instead of leaving the terminal hostage.
//
// Exit status 0 when the structure verifies, 2 when violations were found.
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

	"repro/internal/edgelist"
	"repro/internal/graph"
	"repro/internal/snap"
	"repro/internal/verify"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftbfsverify:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("ftbfsverify", flag.ContinueOnError)
	var (
		graphPath  = fs.String("graph", "", "graph edge-list file")
		structPath = fs.String("structure", "", "structure edge-list file (subset of graph)")
		snapPath   = fs.String("snapshot", "", "verify a binary snapshot file instead of edge lists")
		sourcesArg = fs.String("sources", "0", "comma-separated source vertices")
		f          = fs.Int("f", 2, "fault budget (0..2 exhaustive; >2 requires -sampled)")
		sampled    = fs.Int("sampled", 0, "use N random fault sets instead of exhaustive")
		seed       = fs.Int64("seed", 1, "sampling seed")
		timeout    = fs.Duration("timeout", 0, "abort the pass after this long (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	explicit := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })
	var (
		g            *graph.Graph
		h            *graph.EdgeSet
		sources      []int
		vertexFaults bool
	)
	switch {
	case *snapPath != "":
		if *graphPath != "" || *structPath != "" {
			return 1, fmt.Errorf("-snapshot excludes -graph/-structure")
		}
		sn, err := snap.ReadFile(*snapPath)
		if err != nil {
			return 1, err
		}
		st := sn.Structure
		g, h = st.G, st.Edges
		vertexFaults = st.VertexFaults
		if !explicit["sources"] {
			sources = st.Sources
		}
		if !explicit["f"] {
			*f = st.Faults
		}
	case *graphPath != "" && *structPath != "":
		var err error
		if g, h, err = readEdgeLists(*graphPath, *structPath); err != nil {
			return 1, err
		}
	default:
		return 1, fmt.Errorf("need -graph and -structure, or -snapshot")
	}
	if sources == nil {
		for _, s := range strings.Split(*sourcesArg, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 0 || v >= g.N() {
				return 1, fmt.Errorf("bad source %q", s)
			}
			sources = append(sources, v)
		}
	}
	vopts := &verify.Options{Ctx: ctx}
	var rep verify.Report
	switch {
	case vertexFaults:
		if *sampled > 0 {
			return 1, fmt.Errorf("-sampled is not supported for vertex-failure structures (verification is exhaustive)")
		}
		rep = verify.VertexFTBFS(g, h, sources, *f, vopts)
	case *sampled > 0:
		rep = verify.Sampled(g, h, sources, *f, *sampled, *seed, vopts)
	default:
		rep = verify.FTBFS(g, h, sources, *f, vopts)
	}
	// A recorded violation is definitive (the structure is invalid no
	// matter what the unchecked fault sets would say), so an interrupted
	// pass only counts as inconclusive when it found nothing.
	if rep.Interrupted && len(rep.Violations) == 0 {
		return 1, fmt.Errorf("interrupted after %d fault sets (%v); nothing proven about the rest",
			rep.FaultSetsChecked, ctx.Err())
	}
	if rep.OK {
		fmt.Fprintf(stdout, "OK: %d fault sets checked (%d pruned), structure %d/%d edges\n",
			rep.FaultSetsChecked, rep.FaultSetsPruned, h.Len(), g.M())
		return 0, nil
	}
	suffix := ""
	if rep.Interrupted {
		suffix = " (interrupted; remaining fault sets unchecked)"
	}
	fmt.Fprintf(stdout, "FAILED: %d fault sets checked%s, violations:\n", rep.FaultSetsChecked, suffix)
	for _, v := range rep.Violations {
		fmt.Fprintf(stdout, "  %s\n", v)
	}
	return 2, nil
}

// readEdgeLists reads the graph file and the structure file, whose edges
// must be edges of the graph.
func readEdgeLists(graphPath, structPath string) (*graph.Graph, *graph.EdgeSet, error) {
	gf, err := os.Open(graphPath)
	if err != nil {
		return nil, nil, err
	}
	defer gf.Close()
	g, err := edgelist.Read(gf)
	if err != nil {
		return nil, nil, err
	}
	hf, err := os.Open(structPath)
	if err != nil {
		return nil, nil, err
	}
	defer hf.Close()
	h, err := edgelist.ReadSubset(hf, g)
	return g, h, err
}
