package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server/batchcodec"
)

// request is one request of the stream and what happened to it. Times are
// nanoseconds since the run's epoch. ready is when the sending connection
// became free; in a closed loop the request is due then.
type request struct {
	id                     int
	items                  []item
	due, ready, send, recv int64
	failed                 int    // items that failed: transport, non-2xx, in-band error
	err                    string // first failure, for the diagnostics
	answers                []answer
	traced                 bool // client spans recorded (traced runs, even slices)
}

// traceSlice is the period at which a traced run switches client span
// recording on and off, so trace.overhead_frac compares the latencies of
// interleaved traced and untraced slices of the same window.
const traceSlice = 250 * time.Millisecond

// answer is one item's answer as it came off the wire, kept for sampled
// requests and checked against BFS on G∖F after the run.
type answer struct {
	err       bool
	dist      int32
	reachable bool
	path      []int32
	dists     []int32
}

// jsonResult mirrors the server's per-item JSON answer.
type jsonResult struct {
	Dist      *int32  `json:"dist,omitempty"`
	Reachable *bool   `json:"reachable,omitempty"`
	Dists     []int32 `json:"dists,omitempty"`
	Path      []int   `json:"path,omitempty"`
	Error     string  `json:"error,omitempty"`
}

type jsonResults struct {
	Results []jsonResult `json:"results"`
}

// sampleEvery and sampleItems set the wire-check sample: every request in
// the stream's first sampleItems items, then every sampleEvery-th request,
// so at least 1 in sampleEvery items and at least sampleItems items are
// checked.
const (
	sampleEvery = 64
	sampleItems = 2048
)

func sampled(w workload, id int) bool {
	return id*w.batch < sampleItems || id%sampleEvery == 0
}

// loadRun drives one workload against a serving target.
type loadRun struct {
	w        workload
	p        profile
	base     string
	traced   bool
	epoch    time.Time
	interval int64        // open loop: ns between due times
	end      atomic.Int64 // ns since epoch: no request is due (open) or sent (closed) from here on

	mu   sync.Mutex
	gen  *generator
	reqs []*request

	lanes [][]span // client spans per connection, preallocated (traced runs)
}

func (l *loadRun) now() int64 { return int64(time.Since(l.epoch)) }

// next hands out the next request of the stream, or nil once load stops.
func (l *loadRun) next() *request {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.reqs)
	r := &request{id: id}
	if l.w.open {
		r.due = int64(id) * l.interval
		if r.due >= l.end.Load() {
			return nil
		}
	} else if l.now() >= l.end.Load() {
		return nil
	}
	r.items = l.gen.next()
	l.reqs = append(l.reqs, r)
	return r
}

// worker owns one connection. In an open loop it sends each request at its
// due time; in a closed loop it sends the next request as soon as the
// previous answer is read.
func (l *loadRun) worker(lane int, c *conn) {
	// Sub-millisecond sleeps through the Go timer overshoot to ~1 ms here,
	// so the worker sleeps with nanosleep on its own thread with the
	// kernel's timer slack set to 1 ns.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	ready := l.now()
	for {
		r := l.next()
		if r == nil {
			return
		}
		wr := l.w.encode(l.base, r.items)
		if l.w.open {
			if d := r.due - l.now(); d > 0 {
				ts := syscall.NsecToTimespec(d)
				for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
				}
			}
		} else {
			r.due = ready
		}
		r.ready = ready
		r.send = l.now()
		status, body, err := c.do(wr)
		r.recv = l.now()
		ready = r.recv
		l.settle(r, status, body, err)
		if l.traced && (r.due/int64(traceSlice))%2 == 0 && len(l.lanes[lane])+2 <= cap(l.lanes[lane]) {
			r.traced = true
			l.lanes[lane] = append(l.lanes[lane],
				span{req: int32(r.id), name: spWait, parent: -1, start: r.due, end: r.send},
				span{req: int32(r.id), name: spRTT, parent: -1, start: r.send, end: r.recv})
		}
	}
}

// settle counts the request's failures and keeps the answers of sampled
// requests.
func (l *loadRun) settle(r *request, status int, body []byte, err error) {
	n := len(r.items)
	fail := func(k int, msg string) {
		r.failed += k
		if r.err == "" {
			r.err = msg
		}
	}
	if err != nil {
		fail(n, err.Error())
		return
	}
	if status != http.StatusOK {
		fail(n, fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body)))
		return
	}
	keep := sampled(l.w, r.id)
	switch l.w.proto {
	case protoGET:
		if !keep {
			return
		}
		var res jsonResult
		if err := json.Unmarshal(body, &res); err != nil {
			fail(n, "decode answer: "+err.Error())
			return
		}
		r.answers = []answer{fromJSON(&res)}
	case protoJSON:
		// Item errors are in-band; only responses that carry one, or that
		// are sampled, are decoded in full.
		if !keep && !bytes.Contains(body, []byte(`"error"`)) {
			return
		}
		var res jsonResults
		if err := json.Unmarshal(body, &res); err != nil || len(res.Results) != n {
			fail(n, fmt.Sprintf("bad batch answer (%d results, %v)", len(res.Results), err))
			return
		}
		for i := range res.Results {
			if res.Results[i].Error != "" {
				fail(1, res.Results[i].Error)
			}
		}
		if keep {
			r.answers = make([]answer, n)
			for i := range res.Results {
				r.answers[i] = fromJSON(&res.Results[i])
			}
		}
	case protoBinary:
		res, err := batchcodec.DecodeResponse(body)
		if err != nil || res.Len() != n {
			fail(n, fmt.Sprintf("bad batch frame (%d records, %v)", res.Len(), err))
			return
		}
		if keep {
			r.answers = make([]answer, n)
		}
		it := res.Iter()
		for i := 0; it.Next(); i++ {
			rec := it.Record()
			if code := rec.Err(); code != batchcodec.ErrNone {
				fail(1, code.String())
				if keep {
					r.answers[i].err = true
				}
				continue
			}
			if keep {
				a := answer{dist: rec.Dist, reachable: rec.Reachable()}
				vals := make([]int32, it.ValueLen())
				for j := range vals {
					vals[j] = int32(it.Value(j))
				}
				if rec.Flags&batchcodec.RecHasPath != 0 {
					a.path = vals
				} else if rec.Flags&batchcodec.RecHasDists != 0 {
					a.dists = vals
				}
				r.answers[i] = a
			}
		}
	}
}

func fromJSON(res *jsonResult) answer {
	a := answer{err: res.Error != "", dist: -1, dists: res.Dists}
	if res.Dist != nil {
		a.dist = *res.Dist
	}
	if res.Reachable != nil {
		a.reachable = *res.Reachable
	}
	if res.Path != nil {
		a.path = make([]int32, len(res.Path))
		for i, v := range res.Path {
			a.path[i] = int32(v)
		}
	}
	return a
}

// window is what the run's main goroutine observed around the measured
// window.
type window struct {
	start, end   int64 // ns since epoch
	stats0       cacheInfo
	stats1       cacheInfo
	cpu0, cpu1   float64 // server process CPU seconds
	self0, self1 float64 // harness CPU seconds
	loadBuild    buildInfo
}

// run sends the warm-up and the measured window, with the second build of
// build-under-load posted as the window opens, and waits for both
// connections to finish.
func (l *loadRun) run(ctx context.Context, t *target, length time.Duration) (*window, error) {
	conns := make([]*conn, l.p.conns)
	for i := range conns {
		c, err := dial(t.addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		conns[i] = c
	}
	if l.w.open {
		l.interval = int64(float64(time.Second) / l.p.rate)
	}
	if l.traced {
		l.lanes = make([][]span, len(conns))
		perLane := 2 * int((l.p.warmup+length).Seconds()*l.p.rate) / len(conns)
		for i := range l.lanes {
			l.lanes[i] = make([]span, 0, perLane+1024)
		}
	}
	win := &window{start: int64(l.p.warmup)}
	win.end = win.start + int64(length)
	if l.w.buildUnderLoad {
		l.end.Store(math.MaxInt64) // observe sets it once the build is ready
	} else {
		l.end.Store(win.end)
	}
	l.epoch = time.Now()
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.worker(i, c)
		}()
	}
	err := l.observe(ctx, t, win)
	if err != nil {
		l.end.Store(0) // stop the workers early
	}
	wg.Wait()
	return win, err
}

// observe runs on the main goroutine while the workers send: it reads the
// server's counters at both edges of the window and drives the build of
// build-under-load.
func (l *loadRun) observe(ctx context.Context, t *target, win *window) error {
	waitUntil := func(ns int64) error { return sleepCtx(ctx, time.Duration(ns-l.now())) }
	read := func(st *cacheInfo, cpu, self *float64) error {
		var err error
		if *st, err = t.stats(); err != nil {
			return err
		}
		if *cpu, err = t.cpuSeconds(); err != nil {
			return err
		}
		*self = harnessCPU()
		return nil
	}
	if err := waitUntil(win.start); err != nil {
		return err
	}
	if err := read(&win.stats0, &win.cpu0, &win.self0); err != nil {
		return err
	}
	if l.w.buildUnderLoad {
		// Traffic runs until the build is ready, past the window's nominal
		// end if the build outlasts it.
		id, _, err := t.startBuild(loadGraph, l.p.loadN, l.p, createBuild{Mode: "dual", Sources: []int{0}, Parallelism: 1})
		if err != nil {
			return err
		}
		bctx, cancel := context.WithTimeout(ctx, time.Duration(win.end-l.now())+time.Minute)
		defer cancel()
		if win.loadBuild, err = t.waitReady(bctx, loadGraph, id, 20*time.Millisecond); err != nil {
			return err
		}
		win.end = max(win.end, l.now())
		l.end.Store(win.end)
	}
	if err := waitUntil(win.end); err != nil {
		return err
	}
	return read(&win.stats1, &win.cpu1, &win.self1)
}

// harnessCPU returns this process's user+system CPU seconds.
func harnessCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
