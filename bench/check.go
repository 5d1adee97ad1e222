package main

import (
	"fmt"
	"slices"

	"repro/internal/bfs"
	"repro/internal/graph"
)

// checked is one sampled answer to verify.
type checked struct {
	it  *item
	ans *answer
	key string // source and sorted fault set: answers sharing it share one BFS
}

// checkAnswers verifies every sampled answer against BFS on G∖F (paper
// Theorem 1.1 at the socket: the structure's answers must equal G's). g is
// the harness's own copy of the serving graph, generated from the same spec,
// so edge IDs match the server's. It returns the number of answers checked
// and a description of each wrong one.
func checkAnswers(g *graph.Graph, reqs []*request) (int, []string) {
	var todo []checked
	for _, r := range reqs {
		for i := range r.answers {
			if r.answers[i].err {
				continue // already counted as a failure
			}
			it := &r.items[i]
			f := it.faultList()
			slices.Sort(f)
			todo = append(todo, checked{it: it, ans: &r.answers[i], key: fmt.Sprint(it.src, f)})
		}
	}
	slices.SortFunc(todo, func(a, b checked) int {
		if a.key < b.key {
			return -1
		}
		if a.key > b.key {
			return 1
		}
		return 0
	})
	run := bfs.NewRunner(g)
	var wrong []string
	for i := range todo {
		c := &todo[i]
		if i == 0 || c.key != todo[i-1].key {
			run.Run(int(c.it.src), c.it.faultList(), nil)
		}
		if msg := verify(g, run.Dists(), c.it, c.ans); msg != "" {
			wrong = append(wrong, fmt.Sprintf("source %d target %d faults %v op %d: %s",
				c.it.src, c.it.target, c.it.faultList(), c.it.op, msg))
		}
	}
	return len(todo), wrong
}

// verify compares one answer with the G∖F distance table truth.
func verify(g *graph.Graph, truth []int32, it *item, a *answer) string {
	switch it.op {
	case opDists:
		if !slices.Equal(a.dists, truth) {
			return "distance table differs from G∖F"
		}
	case opDist:
		want := truth[it.target]
		if a.dist != want || a.reachable != (want >= 0) {
			return fmt.Sprintf("dist %d reachable %v, G∖F has %d", a.dist, a.reachable, want)
		}
	case opRoute:
		want := truth[it.target]
		if want < 0 {
			if a.reachable || len(a.path) > 0 {
				return "route returned for a target cut off in G∖F"
			}
			return ""
		}
		p := a.path
		if len(p) == 0 || p[0] != it.src || p[len(p)-1] != it.target {
			return fmt.Sprintf("route %v does not run from source to target", p)
		}
		if int32(len(p)-1) != want {
			return fmt.Sprintf("route has %d hops, G∖F distance is %d", len(p)-1, want)
		}
		for k := 1; k < len(p); k++ {
			id, ok := g.EdgeID(int(p[k-1]), int(p[k]))
			if !ok {
				return fmt.Sprintf("route hop %d-%d is not an edge of G", p[k-1], p[k])
			}
			for f := 0; f < int(it.nf); f++ {
				if int32(id) == it.faults[f] {
					return fmt.Sprintf("route uses failed edge %d", id)
				}
			}
		}
	}
	return ""
}
