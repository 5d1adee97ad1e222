package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/server/batchcodec"
	"repro/internal/snap"
)

type spanName uint8

const (
	spWait     spanName = iota // loadgen.wait: due → sent
	spRTT                      // net.rtt: sent → answer read, over TCP
	spHandle                   // server.handle: Handler().ServeHTTP, replayed
	spDecode                   // codec.decode: the request's wire decode, replayed
	spEncode                   // codec.encode: the answers' wire encode, replayed
	spDist                     // oracle.dist: Oracle.Dist, replayed
	spDists                    // oracle.dists: Oracle.DistsView, replayed
	spRoute                    // oracle.route: Oracle.Route, replayed
	spRepair                   // bfs.repair: Repairer.Run + Changed on H, replayed
	spRouteBFS                 // bfs.route: Runner.Run + PathTo on H, replayed
)

var spanNames = [...]string{"loadgen.wait", "net.rtt", "server.handle", "codec.decode", "codec.encode",
	"oracle.dist", "oracle.dists", "oracle.route", "bfs.repair", "bfs.route"}

// Memo tiers of an oracle span (flags).
const (
	tierMiss uint8 = iota
	tierBase
	tierDelta
	tierFull
)

// Flags of a bfs.repair span.
const (
	repIncremental uint8 = 1 << iota
	repRebase
)

// span is one timed call at a layer boundary. Spans of one request share
// req; parent indexes the trace (-1 for a root). Times are nanoseconds
// since the run's epoch.
type span struct {
	req        int32
	name       spanName
	flags      uint8 // oracle: memo tier; bfs.repair: repIncremental|repRebase
	parent     int32
	aux        int32 // codec.encode: response bytes; bfs.repair: changed vertices
	start, end int64
}

func (s *span) dur() int64 { return s.end - s.start }

// replayCap bounds the spans one replay records; the replay stops early
// rather than grow the preallocated buffer.
const replayCap = 1 << 20

// layers holds the traced run's replay results.
type layers struct {
	spans        []span
	replayed     int // requests replayed, from the start of the stream
	core         core.ProgressSnapshot
	materializeS float64
	replayEdges  int // |E(H)| of the replayed serving build
}

// replay re-runs the TCP phase's request stream in process through each
// layer's public calls, in stream order from the first request, until the
// profile's replay budget is spent. Every replayed span carries the request
// id of the TCP request it replays. Client spans come first in the trace,
// so a replayed server.handle can name its net.rtt span as parent.
func replay(l *loadRun, t *target, g *graph.Graph) (*layers, error) {
	w, p, base, reqs := l.w, l.p, l.base, l.reqs
	L := &layers{}
	// The build plane: the serving build, or for build-under-load the build
	// posted under load, whose phases are the ones it reports; that
	// workload takes the serving structure from the server's snapshot.
	var (
		st  *core.Structure
		err error
	)
	if w.buildUnderLoad {
		if st, err = fetchStructure(t, base); err != nil {
			return nil, err
		}
		g2 := gen.SparseGNP(p.loadN, p.avgDeg, p.graphSeed)
		if _, L.core, err = replayBuild(g2, "dual", []int{0}, 1); err != nil {
			return nil, err
		}
	} else if st, L.core, err = replayBuild(g, "multi", p.sources, 2); err != nil {
		return nil, err
	}
	L.replayEdges = st.NumEdges()

	t0 := time.Now()
	set, err := oracle.NewSetBudget(st, 0, p.cacheBytes, 0)
	if err != nil {
		return nil, err
	}
	L.materializeS = time.Since(t0).Seconds()

	// The serving plane: a fresh in-process server holding the same
	// structure under the same resource path, installed as a snapshot.
	srv := server.New(&server.Config{CacheBytes: p.cacheBytes})
	h := srv.Handler()
	var snapBuf bytes.Buffer
	if err := snap.Encode(&snapBuf, &snap.Snapshot{Structure: st, Meta: snap.Meta{Mode: "multi"}}); err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("PUT", base+"/snapshot", &snapBuf))
	if rec.Code != http.StatusCreated {
		return nil, fmt.Errorf("replay: install snapshot: %d %s", rec.Code, rec.Body)
	}

	client := 0
	for _, lane := range l.lanes {
		client += len(lane)
	}
	L.spans = make([]span, 0, client+replayCap)
	rtt := make([]int32, len(reqs))
	for i := range rtt {
		rtt[i] = -1
	}
	for _, lane := range l.lanes {
		for _, s := range lane {
			if s.name == spRTT {
				rtt[s.req] = int32(len(L.spans))
			}
			L.spans = append(L.spans, s)
		}
	}

	rp := &replayer{w: w, set: set, repSrc: -1, epoch: l.epoch}
	rp.sub, rp.gToSub = st.G.SubgraphMapped(st.Edges)
	rp.rep, rp.run = bfs.NewRepairer(rp.sub), bfs.NewRunner(rp.sub)
	deadline := time.Now().Add(p.replay)
	for _, r := range reqs {
		if time.Now().After(deadline) || cap(L.spans)-len(L.spans) < 4*len(r.items)+8 {
			break
		}
		if err := rp.request(&L.spans, h, base, r, rtt[r.id]); err != nil {
			return nil, err
		}
		L.replayed++
	}
	return L, nil
}

// fetchStructure downloads a ready build's snapshot from the server.
func fetchStructure(t *target, base string) (*core.Structure, error) {
	status, body, err := t.ctl.do(wireReq{method: "GET", target: base + "/snapshot"})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		return nil, fmt.Errorf("GET %s/snapshot: %w", base, err)
	}
	sn, err := snap.Decode(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return sn.Structure, nil
}

// replayBuild runs core.BuilderForMode with a Progress, as ftbfsd's build
// plane does.
func replayBuild(g *graph.Graph, mode string, sources []int, parallelism int) (*core.Structure, core.ProgressSnapshot, error) {
	build, err := core.BuilderForMode(mode, sources)
	if err != nil {
		return nil, core.ProgressSnapshot{}, err
	}
	prog := &core.Progress{}
	st, err := build(g, &core.Options{Parallelism: parallelism, Progress: prog})
	return st, prog.Snapshot(), err
}

// replayer holds the per-layer state of one replay.
type replayer struct {
	w      workload
	set    *oracle.OracleSet
	sub    *graph.Graph
	gToSub []int32
	rep    *bfs.Repairer
	repSrc int
	run    *bfs.Runner
	rw     batchcodec.ResponseWriter
	epoch  time.Time
	sink   int // consumes decoded values, so the compiler keeps the decode
}

func (rp *replayer) now() int64 { return int64(time.Since(rp.epoch)) }

// replayAnswer is one item's answer in the replay, ready to encode.
type replayAnswer struct {
	dist int32
	path []int
	view oracle.DistView
}

// request replays one request: through the in-process server, through its
// children (decode, oracle calls, encode), then through the kernel calls of
// its misses and routes.
func (rp *replayer) request(spans *[]span, h http.Handler, base string, r *request, parent int32) error {
	add := func(s span) int32 {
		s.req = int32(r.id)
		*spans = append(*spans, s)
		return int32(len(*spans) - 1)
	}
	wr := rp.w.encode(base, r.items)
	hs := add(span{name: spHandle, parent: parent})

	serve := func() error {
		hreq := httptest.NewRequest(wr.method, wr.target, bytes.NewReader(wr.body))
		if wr.ctype != "" {
			hreq.Header.Set("Content-Type", wr.ctype)
		}
		rec := httptest.NewRecorder()
		s := &(*spans)[hs]
		s.start = rp.now()
		h.ServeHTTP(rec, hreq)
		s.end = rp.now()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replay: request %d: status %d: %s", r.id, rec.Code, rec.Body)
		}
		return nil
	}

	// The children of server.handle: decode, the oracle calls back to back
	// as in the server, encode. The kernel calls made inside the misses and
	// routes are replayed after them, so the two replays do not evict each
	// other's scratch between items.
	var kernel []int32 // oracle spans whose kernel call to replay
	children := func() error {
		t0 := rp.now()
		if err := rp.decode(wr); err != nil {
			return fmt.Errorf("replay: request %d: decode: %w", r.id, err)
		}
		add(span{name: spDecode, parent: hs, start: t0, end: rp.now()})

		answers := make([]replayAnswer, len(r.items))
		o := rp.set.Acquire()
		defer rp.set.Release(o)
		for i := range r.items {
			oi, err := rp.item(add, hs, o, r, i, &answers[i])
			if err != nil {
				return fmt.Errorf("replay: request %d item %d: %w", r.id, i, err)
			}
			if oi >= 0 {
				kernel = append(kernel, oi)
			}
		}

		var results []jsonResult
		if rp.w.proto != protoBinary {
			results = toJSON(r.items, answers)
		}
		t0 = rp.now()
		n := rp.encode(r.items, answers, results)
		add(span{name: spEncode, parent: hs, aux: int32(n), start: t0, end: rp.now()})
		return nil
	}

	// Whichever replay runs second finds the caches warmed by the first;
	// alternating the order cancels that bias between parent and children.
	first, second := serve, children
	if r.id%2 == 1 {
		first, second = children, serve
	}
	if err := first(); err != nil {
		return err
	}
	if err := second(); err != nil {
		return err
	}
	for _, oi := range kernel {
		rp.kernel(add, oi, &r.items[(*spans)[oi].aux])
	}
	return nil
}

// item replays one query on the oracle. It returns the index of the
// oracle span when the call ran a BFS kernel inside (a memo miss or a
// route), else -1. The span's aux holds the item's index in the request.
func (rp *replayer) item(add func(span) int32, parent int32, o *oracle.Oracle, r *request, idx int, a *replayAnswer) (int32, error) {
	it := &r.items[idx]
	src, tgt, faults := int(it.src), int(it.target), it.faultList()
	before := rp.set.CacheStats()
	var (
		name spanName
		err  error
	)
	t0 := rp.now()
	switch it.op {
	case opDist:
		name = spDist
		a.dist, err = o.Dist(src, tgt, faults)
	case opDists:
		name = spDists
		a.view, err = o.DistsView(src, faults)
	case opRoute:
		name = spRoute
		var p []int
		p, err = o.Route(src, tgt, faults)
		a.path = p
	}
	t1 := rp.now()
	if err != nil {
		return -1, err
	}
	tier := tierMiss
	if it.op != opRoute && rp.set.CacheStats().Hits > before.Hits {
		v := a.view
		if it.op == opDist {
			v, _ = o.DistsView(src, faults) // a hit again: read the entry's encoding
		}
		switch {
		case it.nf == 0:
			tier = tierBase
		case v.Full != nil:
			tier = tierFull
		default:
			tier = tierDelta
		}
	}
	oi := add(span{name: name, flags: tier, parent: parent, aux: int32(idx), start: t0, end: t1})
	if it.op != opRoute && tier != tierMiss {
		return -1, nil
	}
	return oi, nil
}

// kernel replays the BFS kernel call an oracle span made inside: Runner.Run
// + PathTo for a route, Repairer.Run + Changed for a memo miss. One
// Repairer plays the pooled handle's: it rebases whenever the source
// differs from its previous repair's.
func (rp *replayer) kernel(add func(span) int32, oi int32, it *item) {
	src, sub := int(it.src), rp.translate(it.faultList())
	if it.op == opRoute {
		t0 := rp.now()
		rp.run.Run(src, sub, nil)
		rp.sink += len(rp.run.PathTo(int(it.target)))
		add(span{name: spRouteBFS, parent: oi, start: t0, end: rp.now()})
		return
	}
	var flags uint8
	if src != rp.repSrc {
		flags |= repRebase
		rp.repSrc = src
	}
	t0 := rp.now()
	rp.rep.Run(src, sub)
	changed, incremental := rp.rep.Changed()
	t1 := rp.now()
	if incremental {
		flags |= repIncremental
	}
	add(span{name: spRepair, flags: flags, parent: oi, aux: int32(len(changed)), start: t0, end: t1})
}

// translate maps G fault IDs to H's edge IDs as the oracle does: sorted,
// deduplicated, faults on edges H does not keep dropped.
func (rp *replayer) translate(faults []int) []int {
	f := slices.Compact(slices.Sorted(slices.Values(faults)))
	out := f[:0]
	for _, id := range f {
		if sid := rp.gToSub[id]; sid >= 0 {
			out = append(out, int(sid))
		}
	}
	return out
}

// decode runs the server-side decode of the workload's wire format: the
// query string of a GET, the JSON batch body, or the binary frame.
func (rp *replayer) decode(wr wireReq) error {
	switch rp.w.proto {
	case protoGET:
		_, raw, _ := strings.Cut(wr.target, "?")
		q, err := url.ParseQuery(raw)
		if err != nil {
			return err
		}
		for _, k := range []string{"source", "target"} {
			v, err := strconv.Atoi(q.Get(k))
			if err != nil {
				return err
			}
			rp.sink += v
		}
		if f := q.Get("faults"); f != "" {
			for _, s := range strings.Split(f, ",") {
				v, err := strconv.Atoi(s)
				if err != nil {
					return err
				}
				rp.sink += v
			}
		}
	case protoJSON:
		var b struct {
			Queries []struct {
				Source int   `json:"source"`
				Target *int  `json:"target,omitempty"`
				Faults []int `json:"faults,omitempty"`
				Route  bool  `json:"route,omitempty"`
			} `json:"queries"`
		}
		dec := json.NewDecoder(bytes.NewReader(wr.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&b); err != nil {
			return err
		}
		rp.sink += len(b.Queries)
	default:
		req, err := batchcodec.DecodeRequest(wr.body)
		if err != nil {
			return err
		}
		for i := 0; i < req.Len(); i++ {
			rp.sink += int(req.Item(i).Source)
		}
	}
	return nil
}

// toJSON builds the server's JSON answers; it is not part of the encode
// span, as the server builds them while answering.
func toJSON(items []item, answers []replayAnswer) []jsonResult {
	out := make([]jsonResult, len(items))
	for i := range items {
		a, res := &answers[i], &out[i]
		switch items[i].op {
		case opDists:
			res.Dists = a.view.AppendTo(nil)
		case opRoute:
			reach := a.path != nil
			res.Reachable = &reach
			if reach {
				d := int32(len(a.path) - 1)
				res.Dist, res.Path = &d, a.path
			}
		default:
			reach := a.dist >= 0
			res.Dist, res.Reachable = &a.dist, &reach
		}
	}
	return out
}

// encode runs the server-side encode of the answers in the workload's wire
// format and returns the response size in bytes.
func (rp *replayer) encode(items []item, answers []replayAnswer, results []jsonResult) int {
	switch rp.w.proto {
	case protoGET:
		b, _ := json.Marshal(results[0])
		return len(b) + 1 // json.Encoder's newline
	case protoJSON:
		b, _ := json.Marshal(jsonResults{Results: results})
		return len(b) + 1
	}
	rw := &rp.rw
	rw.Reset()
	for i := range items {
		a := &answers[i]
		switch items[i].op {
		case opDists:
			if a.view.Full != nil {
				rw.Dists(a.view.Full)
			} else {
				rw.DistsPatched(a.view.Base, a.view.Keys, a.view.Vals)
			}
		case opRoute:
			if a.path == nil {
				rw.Dist(-1, false)
			} else {
				rw.Path(a.path)
			}
		default:
			rw.Dist(a.dist, a.dist >= 0)
		}
	}
	return len(rw.Frame())
}

type acc struct {
	n   int
	sum int64
}

func (a *acc) add(d int64) { a.n++; a.sum += d }

// mean returns the accumulated mean in units of div nanoseconds (NaN when
// empty, so a metric with no samples is never reported as a number).
func (a acc) mean(div float64) float64 { return float64(a.sum) / float64(a.n) / div }

// report adds the replay's per-layer metrics to out and returns the
// per-request self-time line. A span's self time is its duration minus the
// durations of the spans that name it as parent.
func (L *layers) report(out *outcome, w workload, reqs []*request) string {
	child := make([]int64, len(L.spans))
	for i := range L.spans {
		if p := L.spans[i].parent; p >= 0 {
			child[p] += L.spans[i].dur()
		}
	}
	var (
		handle, handleSelf, rttSelf, decode, encode acc
		miss, route, dists, routeBFS                acc
		hit                                         [4]acc // Oracle.Dist hits by tier
		oracleSelf, bfsTime                         int64
		items, respBytes                            int64
		repairs                                     []float64
		incremental, rebases, changed               int
	)
	for i := range L.spans {
		s := &L.spans[i]
		d, self := s.dur(), s.dur()-child[i]
		switch s.name {
		case spRTT:
			if child[i] > 0 {
				rttSelf.add(self)
			}
		case spHandle:
			handle.add(d)
			handleSelf.add(self)
			items += int64(len(reqs[s.req].items))
		case spDecode:
			decode.add(d)
		case spEncode:
			encode.add(d)
			respBytes += int64(s.aux)
		case spDist, spDists, spRoute:
			oracleSelf += self
			switch {
			case s.name == spRoute:
				route.add(d)
			case s.flags == tierMiss:
				miss.add(d)
			case s.name == spDist:
				hit[s.flags].add(d)
			}
			if s.name == spDists {
				dists.add(d)
			}
		case spRepair:
			bfsTime += d
			repairs = append(repairs, float64(d)/1e3)
			if s.flags&repIncremental != 0 {
				incremental++
				changed += int(s.aux)
			}
			if s.flags&repRebase != 0 {
				rebases++
			}
		case spRouteBFS:
			bfsTime += d
			routeBFS.add(d)
		}
	}
	perItem := func(ns int64) float64 { return float64(ns) / float64(items) }
	out.add("replay.requests", float64(L.replayed), "count")
	out.add("net.self_us", rttSelf.mean(1e3), "us")
	out.add("server.handle_us", handle.mean(1e3), "us")
	out.add("server.self_us", handleSelf.mean(1e3), "us")
	decodeName, encodeName := "json", "json"
	switch w.proto {
	case protoGET:
		decodeName = "query"
	case protoBinary:
		decodeName, encodeName = "batchcodec", "batchcodec"
	}
	for _, layer := range []string{"codec", decodeName} {
		out.add(layer+".decode_ns_per_item", perItem(decode.sum), "ns")
	}
	for _, layer := range []string{"codec", encodeName} {
		out.add(layer+".encode_ns_per_item", perItem(encode.sum), "ns")
		out.add(layer+".resp_bytes_per_item", perItem(respBytes), "bytes")
	}
	out.add("oracle.miss_us", miss.mean(1e3), "us")
	optional := func(name string, a acc, div float64, unit string) {
		if a.n > 0 {
			out.add(name, a.mean(div), unit)
		}
	}
	optional("oracle.base_hit_ns", hit[tierBase], 1, "ns")
	optional("oracle.delta_hit_ns", hit[tierDelta], 1, "ns")
	optional("oracle.full_hit_ns", hit[tierFull], 1, "ns")
	optional("oracle.route_us", route, 1e3, "us")
	optional("oracle.alldists_us", dists, 1e3, "us")
	out.add("oracle.materialize_ms", L.materializeS*1e3, "ms")
	nRep := float64(len(repairs))
	out.add("bfs.repair_us", mean(repairs), "us")
	out.add("bfs.repair_p99_us", quantile(repairs, 0.99), "us")
	out.add("bfs.changed_per_repair", float64(changed)/float64(incremental), "count")
	out.add("bfs.incremental_frac", float64(incremental)/nRep, "ratio")
	out.add("bfs.rebase_frac", float64(rebases)/nRep, "ratio")
	optional("bfs.route_bfs_us", routeBFS, 1e3, "us")
	out.add("core.base_s", float64(L.core.BaseNS)/1e9, "s")
	out.add("core.events_s", float64(L.core.EventsNS)/1e9, "s")
	out.add("core.union_s", float64(L.core.UnionNS)/1e9, "s")

	n := float64(handle.n) * 1e3
	return fmt.Sprintf("# self time per replayed request, us: net=%.2f server=%.2f codec=%.2f oracle=%.2f bfs=%.2f (%d requests)",
		rttSelf.mean(1e3), float64(handleSelf.sum)/n, float64(decode.sum+encode.sum)/n,
		float64(oracleSelf)/n, float64(bfsTime)/n, handle.n)
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// writeTrace writes every span as one JSON object per line.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(bw, `{"i":%d,"req":%d,"name":%q,"parent":%d,"start_ns":%d,"end_ns":%d,"flags":%d,"aux":%d}`+"\n",
			i, s.req, spanNames[s.name], s.parent, s.start, s.end, s.flags, s.aux)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
