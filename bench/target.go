package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

const (
	serveGraph = "serve" // the graph every workload queries
	loadGraph  = "load"  // the graph build-under-load builds while traffic runs
)

func buildPath(graph, build string) string { return "/v1/graphs/" + graph + "/builds/" + build }

// Control-plane wire types of ftbfsd, mirrored with the fields the harness
// sends or reads.
type genSpec struct {
	Family string  `json:"family"`
	N      int     `json:"n"`
	AvgDeg float64 `json:"avgDeg"`
	Seed   int64   `json:"seed,omitempty"`
}

type createGraph struct {
	Name string  `json:"name"`
	Gen  genSpec `json:"gen"`
}

type createBuild struct {
	Mode        string `json:"mode"`
	Sources     []int  `json:"sources"`
	Parallelism int    `json:"parallelism,omitempty"`
}

type buildInfo struct {
	ID        string  `json:"id"`
	Status    string  `json:"status"`
	Error     string  `json:"error"`
	QueuedMS  float64 `json:"queuedMs"`
	ElapsedMS float64 `json:"elapsedMs"`
	Edges     int     `json:"edges"`
	Stats     struct {
		Dijkstras int `json:"dijkstras"`
	} `json:"stats"`
}

type cacheInfo struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Evictions    int64 `json:"evictions"`
	BytesUsed    int64 `json:"bytesUsed"`
	DeltaEntries int   `json:"deltaEntries"`
	FullEntries  int   `json:"fullEntries"`
}

type statsInfo struct {
	Cache cacheInfo `json:"cache"`
}

// target is a serving ftbfsd: a daemon process, or, when no daemon binary
// is given (the smoke test), an in-process server on a loopback listener.
type target struct {
	addr string
	pid  int
	ctl  *conn // control-plane connection, used by the run's main goroutine only

	cmd    *exec.Cmd
	log    bytes.Buffer // daemon stdout+stderr, read only after it exits
	exited chan error

	hs     *http.Server
	srv    *server.Server
	served chan error
}

func launch(ctx context.Context, daemon string, p profile) (*target, error) {
	t := &target{}
	if daemon == "" {
		t.srv = server.New(&server.Config{CacheBytes: p.cacheBytes})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		t.addr, t.pid = l.Addr().String(), os.Getpid()
		t.hs = &http.Server{Handler: t.srv.Handler()}
		t.served = make(chan error, 1)
		go func() { t.served <- t.hs.Serve(l) }()
	} else {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		t.addr = "127.0.0.1:" + port
		t.cmd = exec.Command(daemon, "-addr", t.addr, "-cache-bytes", strconv.FormatInt(p.cacheBytes, 10))
		t.cmd.Stdout, t.cmd.Stderr = &t.log, &t.log
		// The daemon must not outlive a harness that is killed outright.
		t.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := t.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", daemon, err)
		}
		t.pid = t.cmd.Process.Pid
		t.exited = make(chan error, 1)
		go func() { t.exited <- t.cmd.Wait() }()
	}
	if err := t.waitHealthy(ctx); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	_, port, err := net.SplitHostPort(l.Addr().String())
	return port, err
}

func (t *target) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		if t.exited != nil {
			select {
			case err := <-t.exited:
				t.exited <- err
				return fmt.Errorf("ftbfsd exited during start-up (%v): %s", err, t.log.String())
			default:
			}
		}
		c, err := dial(t.addr)
		if err == nil {
			if err = c.call("GET", "/healthz", nil, http.StatusOK, nil); err == nil {
				t.ctl = c
				return nil
			}
			c.close()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ftbfsd at %s not healthy: %w", t.addr, err)
		}
		if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
			return err
		}
	}
}

// stop shuts the server down and waits until it has exited.
func (t *target) stop() error {
	if t.ctl != nil {
		t.ctl.close()
	}
	if t.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := errors.Join(t.hs.Shutdown(ctx), t.srv.Shutdown(ctx))
		if serr := <-t.served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
	if err := t.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return <-t.exited // already gone
	}
	select {
	case err := <-t.exited:
		return err
	case <-time.After(10 * time.Second):
		t.cmd.Process.Kill()
		<-t.exited
		return errors.New("ftbfsd ignored SIGTERM for 10s; killed")
	}
}

// rssMB returns the server process's peak resident set (VmHWM) in MiB.
func (t *target) rssMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", t.pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds returns the server process's user+system CPU time.
func (t *target) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", t.pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTicks, nil
}

func (t *target) stats() (cacheInfo, error) {
	var s statsInfo
	err := t.ctl.call("GET", "/v1/stats", nil, http.StatusOK, &s)
	return s.Cache, err
}

// waitReady polls a build resource until the build is ready.
func (t *target) waitReady(ctx context.Context, graph, id string, poll time.Duration) (buildInfo, error) {
	for {
		var b buildInfo
		if err := t.ctl.call("GET", buildPath(graph, id), nil, http.StatusOK, &b); err != nil {
			return b, err
		}
		switch b.Status {
		case server.StatusReady:
			return b, nil
		case server.StatusFailed, server.StatusCancelled:
			return b, fmt.Errorf("build %s of %s is %s: %s", id, graph, b.Status, b.Error)
		}
		if err := sleepCtx(ctx, poll); err != nil {
			return b, err
		}
	}
}

// startBuild registers a generated sparse graph and posts a build of it.
// It returns the build's ID and how long the registration took.
func (t *target) startBuild(graph string, n int, p profile, b createBuild) (string, time.Duration, error) {
	spec := createGraph{Name: graph, Gen: genSpec{Family: "sparse", N: n, AvgDeg: p.avgDeg, Seed: p.graphSeed}}
	t0 := time.Now()
	if err := t.ctl.call("POST", "/v1/graphs", spec, http.StatusCreated, nil); err != nil {
		return "", 0, err
	}
	register := time.Since(t0)
	var info buildInfo
	err := t.ctl.call("POST", "/v1/graphs/"+graph+"/builds", b, http.StatusAccepted, &info)
	return info.ID, register, err
}

// setup is one timed set-up: server launch → serving graph registered →
// multi build ready → first query answered.
type setup struct {
	t          *target
	seconds    float64
	registerMS float64
	build      buildInfo
	base       string // resource path of the serving build
}

func setUp(ctx context.Context, daemon string, p profile) (*setup, error) {
	t0 := time.Now()
	t, err := launch(ctx, daemon, p)
	if err != nil {
		return nil, err
	}
	s := &setup{t: t}
	fail := func(err error) (*setup, error) {
		t.stop()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	id, register, err := t.startBuild(serveGraph, p.n, p, createBuild{Mode: "multi", Sources: p.sources, Parallelism: 2})
	if err != nil {
		return fail(err)
	}
	s.registerMS = float64(register.Nanoseconds()) / 1e6
	if s.build, err = t.waitReady(ctx, serveGraph, id, 5*time.Millisecond); err != nil {
		return fail(err)
	}
	s.base = buildPath(serveGraph, id)
	first := fmt.Sprintf("%s/dist?source=%d&target=%d", s.base, p.sources[0], p.n-1)
	if err := t.ctl.call("GET", first, nil, http.StatusOK, nil); err != nil {
		return fail(err)
	}
	s.seconds = time.Since(t0).Seconds()
	return s, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-tm.C:
		return nil
	}
}
