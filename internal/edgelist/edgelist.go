// Package edgelist reads and writes the plain-text graph format used by the
// command-line tools:
//
//	# comment
//	n <vertexCount>
//	<u> <v>
//	<u> <v>
//	...
//
// Vertices are 0-based integers; one edge per line; '#' starts a comment.
// The "n" header is optional — without it the vertex count is one more than
// the largest endpoint mentioned.
package edgelist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// Read parses a graph from r. Malformed lines, out-of-range endpoints,
// self-loops and duplicate edges are errors reported with the offending
// line number.
func Read(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var n = -1
	type pair struct{ u, v, line int }
	var edges []pair
	maxV := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "n" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("edgelist: line %d: want \"n <count>\"", lineNo)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("edgelist: line %d: bad vertex count %q", lineNo, fields[1])
			}
			n = v
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("edgelist: line %d: want \"<u> <v>\", got %q", lineNo, line)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("edgelist: line %d: bad endpoints %q", lineNo, line)
		}
		edges = append(edges, pair{u, v, lineNo})
		if u > maxV {
			maxV = u
		}
		if v > maxV {
			maxV = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("edgelist: %w", err)
	}
	if n < 0 {
		n = maxV + 1
	}
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if e.u < 0 || e.u >= n || e.v < 0 || e.v >= n {
			return nil, fmt.Errorf("edgelist: line %d: edge (%d,%d) out of range [0,%d)", e.line, e.u, e.v, n)
		}
		if e.u == e.v {
			return nil, fmt.Errorf("edgelist: line %d: self-loop at %d", e.line, e.u)
		}
		if b.HasEdge(e.u, e.v) {
			return nil, fmt.Errorf("edgelist: line %d: duplicate edge (%d,%d)", e.line, e.u, e.v)
		}
		// Range, self-loop and duplicate rejections all happened above, so
		// they carry line numbers.
		b.MustAddEdge(e.u, e.v)
	}
	return b.Freeze(), nil
}

// ReadSubset parses a structure file: a graph in the package format on
// g's vertex set, every edge of which is an edge of g. It returns the IDs
// of g's edges the file lists.
func ReadSubset(r io.Reader, g *graph.Graph) (*graph.EdgeSet, error) {
	h, err := Read(r)
	if err != nil {
		return nil, err
	}
	if h.N() != g.N() {
		return nil, fmt.Errorf("edgelist: vertex counts differ: graph %d, structure %d", g.N(), h.N())
	}
	keep := graph.NewEdgeSet(g.M())
	for i := range h.M() {
		e := h.EdgeAt(i)
		id, ok := g.EdgeID(e.U, e.V)
		if !ok {
			return nil, fmt.Errorf("edgelist: structure edge %v not in graph", e)
		}
		keep.Add(id)
	}
	return keep, nil
}

// Write emits g in the package format (with the "n" header so isolated
// vertices round-trip).
func Write(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	for _, e := range g.SortedEdges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteSubset emits only the edges of g whose ID is in keep, preserving the
// full vertex count (the structure-file format of the CLI tools).
func WriteSubset(w io.Writer, g *graph.Graph, keep *graph.EdgeSet) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	var ferr error
	keep.ForEach(func(id int) {
		if ferr != nil {
			return
		}
		e := g.EdgeAt(id)
		_, ferr = fmt.Fprintf(bw, "%d %d\n", e.U, e.V)
	})
	if ferr != nil {
		return ferr
	}
	return bw.Flush()
}
