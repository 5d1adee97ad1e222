package main

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strconv"
	"time"

	"repro/internal/server/batchcodec"
)

// profile fixes the sizes of a run. fullProfile is the benchmark;
// shortProfile keeps the smoke test fast.
type profile struct {
	n          int     // serving graph: sparse G(n, avgDeg/n)
	avgDeg     float64 // average degree of both graphs
	graphSeed  int64   // seed of both graphs; fixed, so -seed varies the request streams only
	sources    []int   // sources of the serving build (mode multi)
	loadN      int     // vertices of the graph built under load (mode dual, source 0)
	rate       float64 // open-loop arrival rate, requests/s
	conns      int     // load connections, one goroutine each
	warmup     time.Duration
	events     int   // Zipf event universe
	cacheBytes int64 // daemon memo budget, -cache-bytes
	setups     int   // set-ups per untraced run; setup_s is their median
	replay     time.Duration
}

var fullProfile = profile{
	n: 1000, avgDeg: 6, graphSeed: 1, sources: []int{0, 500}, loadN: 1500,
	rate: 8000, conns: 2, warmup: 3 * time.Second,
	events: 4096, cacheBytes: 8 << 20, setups: 3, replay: 3 * time.Second,
}

var shortProfile = profile{
	n: 150, avgDeg: 6, graphSeed: 1, sources: []int{0, 75}, loadN: 150,
	rate: 1000, conns: 2, warmup: 200 * time.Millisecond,
	events: 512, cacheBytes: 8 << 20, setups: 1, replay: 300 * time.Millisecond,
}

type proto uint8

const (
	protoGET    proto = iota // GET .../dist, JSON answer
	protoJSON                // POST .../query, JSON batch
	protoBinary              // POST .../query, batchcodec frame
)

// mix selects the item generator of a workload.
type mix uint8

const (
	mixZipfDist    mix = iota // Zipf sources and events, dist only
	mixZipfMixed              // the same events; 70% dist, 20% route, 10% all-dists
	mixUniformMiss            // uniform source, target and two-edge fault set
)

type workload struct {
	name           string
	open           bool // open loop at profile.rate; otherwise closed loop on profile.conns
	proto          proto
	batch          int // items per request
	mix            mix
	buildUnderLoad bool // POST a second build once the window opens
}

// The workloads; bench/README.md says why each exists.
var workloads = []workload{
	{name: "zipf-point", open: true, proto: protoGET, batch: 1, mix: mixZipfDist},
	{name: "miss-batch", proto: protoBinary, batch: 256, mix: mixUniformMiss},
	{name: "route-json", proto: protoJSON, batch: 64, mix: mixZipfMixed},
	{name: "build-under-load", open: true, proto: protoGET, batch: 1, mix: mixZipfDist, buildUnderLoad: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

type op uint8

const (
	opDist  op = iota // dist(s, t, G∖F)
	opRoute           // a shortest s→t path in G∖F
	opDists           // the whole distance table of (s, F)
)

// item is one query. Fault IDs are edge IDs of G.
type item struct {
	src, target int32
	faults      [2]int32
	nf          uint8
	op          op
}

func (it *item) faultList() []int {
	out := make([]int, it.nf)
	for i := range out {
		out[i] = int(it.faults[i])
	}
	return out
}

// generator produces a workload's request stream from the seed alone.
type generator struct {
	w       workload
	p       profile
	m       int
	rng     *rand.Rand
	events  []item // fault sets only (nf, faults)
	zsrc    *rand.Zipf
	zevents *rand.Zipf
}

// newGenerator seeds the event universe from (seed, "events") so every
// Zipf workload draws from the same events, and the stream from (seed,
// mix) so zipf-point and build-under-load send identical streams.
func newGenerator(w workload, p profile, m int, seed int64) *generator {
	g := &generator{w: w, p: p, m: m}
	urng := rand.New(rand.NewPCG(uint64(seed), strHash("events")))
	g.events = make([]item, p.events)
	for i := range g.events {
		e := &g.events[i]
		e.nf = 2
		if urng.Float64() < 0.2 {
			e.nf = 1
		}
		g.drawFaults(urng, e)
	}
	g.rng = rand.New(rand.NewPCG(uint64(seed), strHash(fmt.Sprintf("mix-%d", w.mix))))
	g.zsrc = rand.NewZipf(g.rng, 1.2, 1, uint64(len(p.sources)-1))
	g.zevents = rand.NewZipf(g.rng, 1.2, 1, uint64(p.events-1))
	return g
}

func strHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func (g *generator) drawFaults(r *rand.Rand, it *item) {
	it.faults[0] = int32(r.IntN(g.m))
	if it.nf == 2 {
		for {
			it.faults[1] = int32(r.IntN(g.m))
			if it.faults[1] != it.faults[0] {
				return
			}
		}
	}
}

// next returns the items of the next request.
func (g *generator) next() []item {
	items := make([]item, g.w.batch)
	for i := range items {
		it := &items[i]
		it.target = int32(g.rng.IntN(g.p.n))
		if g.w.mix == mixUniformMiss {
			it.src = int32(g.p.sources[g.rng.IntN(len(g.p.sources))])
			it.nf = 2
			g.drawFaults(g.rng, it)
			continue
		}
		it.src = int32(g.p.sources[g.zsrc.Uint64()])
		if g.rng.Float64() >= 0.1 {
			e := g.events[g.zevents.Uint64()]
			it.nf, it.faults = e.nf, e.faults
		}
		if g.w.mix == mixZipfMixed {
			switch u := g.rng.Float64(); {
			case u < 0.2:
				it.op = opRoute
			case u < 0.3:
				it.op = opDists
			}
		}
	}
	return items
}

// wireReq is one encoded HTTP request.
type wireReq struct {
	method, target, ctype string
	body                  []byte
}

// encode renders a request in the workload's protocol against the build
// whose resource path is base. The same bytes go over TCP, into the
// in-process replay, and into the stream hash.
func (w workload) encode(base string, items []item) wireReq {
	switch w.proto {
	case protoGET:
		it := &items[0]
		b := make([]byte, 0, len(base)+64)
		b = append(b, base...)
		b = append(b, "/dist?source="...)
		b = strconv.AppendInt(b, int64(it.src), 10)
		b = append(b, "&target="...)
		b = strconv.AppendInt(b, int64(it.target), 10)
		if it.nf > 0 {
			b = append(b, "&faults="...)
			b = appendFaults(b, it)
		}
		return wireReq{method: "GET", target: string(b)}
	case protoJSON:
		b := append(make([]byte, 0, 48*len(items)), `{"queries":[`...)
		for i := range items {
			it := &items[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"source":`...)
			b = strconv.AppendInt(b, int64(it.src), 10)
			if it.op != opDists {
				b = append(b, `,"target":`...)
				b = strconv.AppendInt(b, int64(it.target), 10)
			}
			if it.nf > 0 {
				b = append(b, `,"faults":[`...)
				b = appendFaults(b, it)
				b = append(b, ']')
			}
			if it.op == opRoute {
				b = append(b, `,"route":true`...)
			}
			b = append(b, '}')
		}
		b = append(b, "]}"...)
		return wireReq{method: "POST", target: base + "/query", ctype: "application/json", body: b}
	default:
		var rb batchcodec.RequestBuilder
		for i := range items {
			it := &items[i]
			bi := batchcodec.Item{Source: it.src, Target: it.target, Flags: uint32(it.nf)}
			bi.Fault0, bi.Fault1 = uint32(it.faults[0]), uint32(it.faults[1])
			switch it.op {
			case opRoute:
				bi.Flags |= batchcodec.FlagRoute
			case opDists:
				bi.Flags |= batchcodec.FlagAllDists
			}
			rb.Add(bi)
		}
		return wireReq{method: "POST", target: base + "/query", ctype: batchcodec.ContentType, body: rb.Frame()}
	}
}

func appendFaults(b []byte, it *item) []byte {
	for i := 0; i < int(it.nf); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(it.faults[i]), 10)
	}
	return b
}

// streamHash hashes the encoding of a workload's first k requests.
func streamHash(w workload, p profile, m int, seed int64, k int) [32]byte {
	g := newGenerator(w, p, m, seed)
	h := sha256.New()
	for i := 0; i < k; i++ {
		r := w.encode(buildPath(serveGraph, "b1"), g.next())
		fmt.Fprintf(h, "%s %s %s %d\n", r.method, r.target, r.ctype, len(r.body))
		h.Write(r.body)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
