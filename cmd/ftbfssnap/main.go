// Command ftbfssnap inspects and converts FT-BFS snapshot files (the
// internal/snap binary format that ftbfsd persists builds as).
//
// Usage:
//
//	ftbfssnap info s.ftbfs                 # layout, integrity, metadata, summary
//	ftbfssnap verify s.ftbfs               # full decode; exit 0 iff valid
//	ftbfssnap graph s.ftbfs                # G as an edge list on stdout
//	ftbfssnap structure s.ftbfs            # H as an edge list on stdout
//	ftbfssnap pack -graph g.txt -structure h.txt -sources 0,5 -f 2 -o s.ftbfs
//
// pack converts the text formats the other CLIs speak into a snapshot:
// the structure file must be an edge-subset of the graph file, read by
// edgelist.ReadSubset as in ftbfsverify. The produced snapshot can be
// served directly (PUT …/snapshot), verified (ftbfsverify -snapshot) or
// benchmarked (ftbfsbench -snapshot).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/edgelist"
	"repro/internal/graph"
	"repro/internal/snap"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftbfssnap:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	if len(args) == 0 {
		return 1, fmt.Errorf("usage: ftbfssnap info|verify|graph|structure|pack ...")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "info":
		return runInfo(rest, stdout)
	case "verify":
		return runVerify(rest, stdout)
	case "graph":
		return runDump(rest, stdout, false)
	case "structure":
		return runDump(rest, stdout, true)
	case "pack":
		return runPack(rest, stdout)
	default:
		return 1, fmt.Errorf("unknown command %q (info, verify, graph, structure, pack)", cmd)
	}
}

func oneFileArg(args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("expected exactly one snapshot file argument")
	}
	return args[0], nil
}

func runInfo(args []string, stdout io.Writer) (int, error) {
	path, err := oneFileArg(args)
	if err != nil {
		return 1, err
	}
	f, err := os.Open(path)
	if err != nil {
		return 1, err
	}
	info, err := snap.Inspect(f)
	f.Close()
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "format version %d, %d sections\n", info.Version, len(info.Sections))
	intact := true
	for _, sec := range info.Sections {
		state := "ok"
		if !sec.Intact {
			state = "CORRUPT"
			intact = false
		}
		fmt.Fprintf(stdout, "  %s  %10d bytes  crc32c %08x  %s\n", sec.ID, sec.Bytes, sec.CRC, state)
	}
	if !intact {
		return 2, nil
	}
	sn, err := snap.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stdout, "decode: %v\n", err)
		return 2, nil
	}
	st := sn.Structure
	model := "edge"
	if st.VertexFaults {
		model = "vertex"
	}
	fmt.Fprintf(stdout, "graph: n=%d m=%d\n", st.G.N(), st.G.M())
	fmt.Fprintf(stdout, "structure: %d/%d edges kept, f=%d (%s faults), sources %v\n",
		st.NumEdges(), st.G.M(), st.Faults, model, st.Sources)
	fmt.Fprintf(stdout, "stats: dijkstras=%d fallbacks=%d maxNewEdges=%d maxE1=%d maxE2=%d\n",
		st.Stats.Dijkstras, st.Stats.Fallbacks, st.Stats.MaxNewEdges, st.Stats.MaxE1, st.Stats.MaxE2)
	m := sn.Meta
	if m != (snap.Meta{}) {
		fmt.Fprintf(stdout, "meta: graph=%q build=%q mode=%q seed=%d elapsedMs=%.3f\n",
			m.Graph, m.Build, m.Mode, m.Seed, m.ElapsedMS)
		if m.CreatedUnixMS != 0 {
			fmt.Fprintf(stdout, "created: %s\n", time.UnixMilli(m.CreatedUnixMS).UTC().Format(time.RFC3339))
		}
	}
	return 0, nil
}

func runVerify(args []string, stdout io.Writer) (int, error) {
	path, err := oneFileArg(args)
	if err != nil {
		return 1, err
	}
	sn, err := snap.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stdout, "INVALID: %v\n", err)
		return 2, nil
	}
	fmt.Fprintf(stdout, "OK: n=%d m=%d, %d structure edges, f=%d\n",
		sn.Structure.G.N(), sn.Structure.G.M(), sn.Structure.NumEdges(), sn.Structure.Faults)
	return 0, nil
}

func runDump(args []string, stdout io.Writer, structureOnly bool) (int, error) {
	path, err := oneFileArg(args)
	if err != nil {
		return 1, err
	}
	sn, err := snap.ReadFile(path)
	if err != nil {
		return 1, err
	}
	if structureOnly {
		return 0, edgelist.WriteSubset(stdout, sn.Structure.G, sn.Structure.Edges)
	}
	return 0, edgelist.Write(stdout, sn.Structure.G)
}

func runPack(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("ftbfssnap pack", flag.ContinueOnError)
	var (
		graphPath  = fs.String("graph", "", "graph edge-list file")
		structPath = fs.String("structure", "", "structure edge-list file (subset of graph)")
		sourcesArg = fs.String("sources", "0", "comma-separated source vertices")
		f          = fs.Int("f", 2, "fault budget the structure tolerates")
		vertex     = fs.Bool("vertex", false, "structure is for the vertex-failure model")
		mode       = fs.String("mode", "", "builder mode recorded in the metadata")
		seed       = fs.Int64("seed", 0, "tie-breaking seed recorded in the metadata")
		out        = fs.String("o", "", "output snapshot file")
	)
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if *graphPath == "" || *structPath == "" || *out == "" {
		return 1, fmt.Errorf("pack needs -graph, -structure and -o")
	}
	g, err := readEdgeList(*graphPath)
	if err != nil {
		return 1, err
	}
	fh, err := os.Open(*structPath)
	if err != nil {
		return 1, err
	}
	kept, err := edgelist.ReadSubset(fh, g)
	fh.Close()
	if err != nil {
		return 1, err
	}
	var sources []int
	for _, s := range strings.Split(*sourcesArg, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 0 || v >= g.N() {
			return 1, fmt.Errorf("bad source %q", s)
		}
		sources = append(sources, v)
	}
	if *f < 0 {
		return 1, fmt.Errorf("bad fault budget %d", *f)
	}
	st := &core.Structure{
		G:            g,
		Sources:      sources,
		Faults:       *f,
		VertexFaults: *vertex,
		Edges:        kept,
	}
	sn := &snap.Snapshot{
		Structure: st,
		Meta: snap.Meta{
			Mode: *mode, Seed: *seed,
			CreatedUnixMS: time.Now().UnixMilli(),
		},
	}
	if err := snap.WriteFile(*out, sn); err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "wrote %s: n=%d m=%d, %d structure edges, f=%d, sources %v\n",
		*out, g.N(), g.M(), kept.Len(), *f, sources)
	return 0, nil
}

func readEdgeList(path string) (*graph.Graph, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return edgelist.Read(fh)
}
