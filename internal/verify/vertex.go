package verify

import (
	"repro/internal/bfs"
	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/sched"
)

// VertexFTBFS exhaustively verifies the vertex-failure model: for every
// vertex set V' with |V'| ≤ f that excludes the sources,
// dist(s, v, H \ V') = dist(s, v, G \ V') for all v ∉ V'. f must be ≤ 2.
func VertexFTBFS(g *graph.Graph, offH []int, sources []int, f int, opts *Options) Report {
	rep := Report{OK: true}
	if f < 0 || f > 2 {
		rep.OK = false
		rep.Violations = append(rep.Violations, Violation{Source: -1, V: -1})
		return rep
	}
	rg := bfs.NewRunner(g)
	// Vertex IDs are preserved by the materialization, so vertex faults
	// apply to H's subgraph unchanged — no translation needed.
	rh := bfs.NewRunner(newHView(g, offH).sub)
	maxV := opts.maxViol()
	poll := cancel.New(opts.ctx(), cancel.PollEvery)
	interrupted := func() bool {
		if poll.Poll() != nil {
			rep.Interrupted = true
			rep.OK = false
			return true
		}
		return false
	}

	check := func(s int, faults []int) {
		rg.Run(s, nil, faults)
		rh.Run(s, nil, faults)
		rep.FaultSetsChecked++
		dg, dh := rg.Dists(), rh.Dists()
		failed := make(map[int]bool, len(faults))
		for _, x := range faults {
			failed[x] = true
		}
		for v := 0; v < g.N(); v++ {
			if failed[v] {
				continue
			}
			if dg[v] != dh[v] {
				rep.OK = false
				if len(rep.Violations) < maxV {
					rep.Violations = append(rep.Violations, Violation{
						Source: s,
						Faults: append([]int(nil), faults...),
						V:      v,
						GotH:   dh[v],
						WantG:  dg[v],
					})
				}
			}
		}
	}

	isSource := make(map[int]bool, len(sources))
	for _, s := range sources {
		isSource[s] = true
	}
	for _, s := range sources {
		check(s, nil)
		if !sched.FaultSets(0, g.N(), g.N(), f, func(faults []int) bool {
			for _, x := range faults {
				if isSource[x] {
					return true
				}
			}
			if interrupted() {
				return false
			}
			check(s, faults)
			return len(rep.Violations) < maxV
		}) {
			return rep
		}
	}
	return rep
}
