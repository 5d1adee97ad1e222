// Command ftbfsd serves fault-tolerant BFS distance and routing queries
// over HTTP — the paper's motivating scenario (routing under failures) as
// a long-lived concurrent service.
//
// Usage:
//
//	ftbfsd -addr :8080
//	ftbfsd -addr :8080 -demo        # also registers graph "demo" (gnp n=200)
//	ftbfsd -addr :8080 -snapshot-dir /var/lib/ftbfs
//
// With -snapshot-dir, completed builds are persisted as binary snapshots
// under the directory and the daemon warm-starts from it: on restart every
// stored graph/build is rehydrated — ready to serve, bit-identical
// answers — without re-running any builder.
//
// Quick start against a running daemon:
//
//	curl -s -X POST localhost:8080/v1/graphs \
//	  -d '{"name":"demo","gen":{"family":"gnp","n":200,"p":0.05,"seed":7}}'
//	curl -s -X POST localhost:8080/v1/graphs/demo/builds \
//	  -d '{"mode":"dual","sources":[0]}'
//	curl -s 'localhost:8080/v1/graphs/demo/builds/b1'            # poll "queued"/"building" until "ready";
//	                                                             # running builds report live "progress"
//	curl -s -X DELETE 'localhost:8080/v1/graphs/demo/builds/b1'  # cancel a running/queued build
//	curl -s 'localhost:8080/v1/stats'                            # build slots, queue depth, cache totals
//	curl -s 'localhost:8080/v1/graphs/demo/builds/b1/dist?source=0&target=17&faults=3,9'
//	curl -s -X POST localhost:8080/v1/graphs/demo/builds/b1/query \
//	  -d '{"queries":[{"source":0,"target":17,"faults":[3,9]},{"source":0,"faults":[3]}]}'
//
// See DESIGN.md for the full API (including NDJSON batch streaming).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ftbfsd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ftbfsd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		builds     = fs.Int("builds", 0, "max concurrent structure builds (0 = GOMAXPROCS)")
		cacheBytes = fs.Int64("cache-bytes", 0, "memo byte budget per build, for builds without distance tables (restored or uploaded snapshots, single, f=3, approx, exhaustive; dual and multi builds made here answer from their tables); delta-compressed events are charged what the fault changed, pinned per-source base trees (~16 B × n each) sit outside it (0 = default 256 MiB, <0 = no memo)")
		maxBatch   = fs.Int("max-batch", 0, "max queries per batch request (0 = default 65536)")
		snapDir    = fs.String("snapshot-dir", "", "persist completed builds under this directory and warm-start from it")
		demo       = fs.Bool("demo", false, "register a demo graph (gnp n=200 p=0.05 seed=7) at startup")
		rtimeout   = fs.Duration("read-timeout", 30*time.Second, "HTTP read timeout")
		wtimeout   = fs.Duration("write-timeout", 60*time.Second, "HTTP write timeout")
		idleLimit  = fs.Duration("idle-timeout", 2*time.Minute, "HTTP idle timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := &server.Config{
		MaxConcurrentBuilds: *builds,
		CacheBytes:          *cacheBytes,
		MaxBatchQueries:     *maxBatch,
		// One structured line per terminal build so operators can audit
		// the build plane (completions AND cancellations) without polling.
		BuildLog: func(e server.BuildEvent) {
			switch e.Status {
			case server.StatusReady:
				log.Printf("build graph=%s build=%s mode=%s sources=%v status=%s queuedMs=%.1f elapsedMs=%.1f dijkstras=%d edges=%d/%d",
					e.Graph, e.Build, e.Mode, e.Sources, e.Status, e.QueuedMS, e.ElapsedMS, e.Dijkstras, e.Edges, e.GraphEdges)
			case server.StatusFailed:
				log.Printf("build graph=%s build=%s mode=%s sources=%v status=%s queuedMs=%.1f elapsedMs=%.1f dijkstras=%d err=%q",
					e.Graph, e.Build, e.Mode, e.Sources, e.Status, e.QueuedMS, e.ElapsedMS, e.Dijkstras, e.Error)
				if e.Stack != "" {
					log.Printf("build graph=%s build=%s panic stack:\n%s", e.Graph, e.Build, e.Stack)
				}
			default: // cancelled
				log.Printf("build graph=%s build=%s mode=%s sources=%v status=%s queuedMs=%.1f elapsedMs=%.1f dijkstras=%d",
					e.Graph, e.Build, e.Mode, e.Sources, e.Status, e.QueuedMS, e.ElapsedMS, e.Dijkstras)
			}
		},
	}
	if *snapDir != "" {
		store, err := server.NewDiskStore(*snapDir)
		if err != nil {
			return err
		}
		cfg.Store = store
	}
	srv := server.New(cfg)
	if cfg.Store != nil {
		start := time.Now()
		restored, err := srv.WarmStart()
		if err != nil {
			// Partial warm starts are survivable: log what was skipped
			// and serve the rest.
			log.Printf("warm start: %v", err)
		}
		if restored > 0 {
			log.Printf("warm start: restored %d build(s) from %s in %v", restored, *snapDir, time.Since(start).Round(time.Millisecond))
		}
	}
	if *demo {
		if err := srv.RegisterDemo(); err != nil {
			log.Printf("demo graph: %v (already restored from snapshots?)", err)
		} else {
			log.Printf("registered demo graph %q", "demo")
		}
	}
	httpSrv := &http.Server{
		Addr:         *addr,
		Handler:      srv.Handler(),
		ReadTimeout:  *rtimeout,
		WriteTimeout: *wtimeout,
		IdleTimeout:  *idleLimit,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("ftbfsd listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case sig := <-sigc:
		log.Printf("received %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Drain the HTTP side, then cancel in-flight builds and wait for
		// their goroutines. Build cancellation runs even when the HTTP
		// drain times out on a stuck connection — builds must never be
		// silently abandoned, whatever the client side is doing.
		httpErr := httpSrv.Shutdown(ctx)
		if err := srv.Shutdown(ctx); err != nil {
			if httpErr != nil {
				return fmt.Errorf("%w (also: http drain: %v)", err, httpErr)
			}
			return err
		}
		return httpErr
	}
}
