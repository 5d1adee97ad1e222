package main

// The -zipf mode measures what the byte-budgeted, delta-compressed memo
// buys on a realistic serving workload. Real query traffic is skewed —
// popular sources × recently-failed edges — so hit rate is governed by
// how many failure events the memo can HOLD, not by how fast one lookup
// is. The mode drives one deterministic Zipf-distributed query stream
// against the byte-accounted memo at each budget, where a typical event is
// stored as a small delta against its source's pinned base. Beside the
// entries it holds, each row prints what the same budget holds as whole
// 4n-byte tables, budget/(4n), and the ratio of the two. EXPERIMENTS.md
// records representative output.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/oracle"
)

type zipfConfig struct {
	n       int     // graph vertices
	deg     int     // average degree of the sparse G(n, deg/n) graph
	sources int     // structure sources (popularity-ranked)
	skew    float64 // Zipf exponent for both source and event popularity
	events  int     // distinct single-edge failure events in the universe
	queries int     // point lookups per arm
	budgets []int64 // memo byte budgets to sweep
	seed    int64
}

type zipfQuery struct {
	src    int // index into the source list
	ev     int // index into the event universe
	target int
}

func zipfBench(ctx context.Context, cfg zipfConfig, stdout io.Writer) error {
	g := gen.SparseGNP(cfg.n, float64(cfg.deg), cfg.seed)
	srcs := make([]int, cfg.sources)
	for i := range srcs {
		srcs[i] = i * g.N() / cfg.sources
	}
	start := time.Now()
	st, err := core.BuildMultiSource(g, srcs, &core.Options{Seed: cfg.seed, Ctx: ctx}, core.BuildSingle)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "zipf workload: n=%d m=%d sources=%d events=%d skew=%.2f queries=%d (structure: %d edges, built in %v)\n",
		g.N(), g.M(), len(srcs), cfg.events, cfg.skew, cfg.queries,
		st.NumEdges(), time.Since(start).Round(time.Millisecond))

	// The event universe: distinct single-edge faults, popularity-ranked
	// by a random permutation so event rank is uncorrelated with edge ID.
	rng := rand.New(rand.NewSource(cfg.seed))
	if cfg.events > g.M() {
		cfg.events = g.M()
	}
	perm := rng.Perm(g.M())[:cfg.events]

	// One pre-generated stream, shared by every arm: Zipf-ranked source
	// and event picks, uniform targets.
	zsrc := rand.NewZipf(rng, cfg.skew, 1, uint64(len(srcs)-1))
	zev := rand.NewZipf(rng, cfg.skew, 1, uint64(cfg.events-1))
	stream := make([]zipfQuery, cfg.queries)
	for i := range stream {
		stream[i] = zipfQuery{
			src:    int(zsrc.Uint64()),
			ev:     int(zev.Uint64()),
			target: rng.Intn(g.N()),
		}
	}

	fmt.Fprintf(stdout, "%12s %9s %11s %7s %11s %8s %12s\n",
		"budget", "entries", "full tables", "gain", "bytes/entry", "hit%", "q/s")
	fault := make([]int, 1)
	for _, budget := range cfg.budgets {
		if err := ctx.Err(); err != nil {
			return err
		}
		set, err := oracle.NewSet(st, budget)
		if err != nil {
			return err
		}
		o := set.Handle()
		start := time.Now()
		for _, q := range stream {
			fault[0] = perm[q.ev]
			if _, err := o.Dist(srcs[q.src], q.target, fault); err != nil {
				return err
			}
		}
		elapsed := time.Since(start)
		cs := set.CacheStats()
		fullTables := max(budget/(4*int64(g.N())), 1)
		var bytesPer int64
		if cs.Len > 0 {
			bytesPer = cs.BytesUsed / int64(cs.Len)
		}
		hitRate := 100 * float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		fmt.Fprintf(stdout, "%12d %9d %11d %6.1fx %11d %7.1f%% %12.0f\n",
			budget, cs.Len, fullTables, float64(cs.Len)/float64(fullTables), bytesPer, hitRate,
			float64(len(stream))/elapsed.Seconds())
	}
	return nil
}
