// Command fpserved runs the copack planner as a long-lived HTTP/JSON
// service: a bounded job queue over the planning pipeline with a
// content-addressed result cache, so identical requests are answered from
// memory instead of re-annealed.
//
// Usage:
//
//	fpserved -addr 127.0.0.1:8080 -queue 64 -workers 2 -cache 128
//
// Fleet mode joins several nodes into a fault-tolerant cluster that
// shares one logical cache via consistent-hash routing (internal/fleet):
//
//	fpserved -addr 127.0.0.1:8081 -node-id a \
//	    -peers 'b=http://127.0.0.1:8082,c=http://127.0.0.1:8083'
//
// Endpoints (see README "Running as a service" for a curl session):
//
//	GET    /healthz           liveness
//	GET    /metrics           service metrics (deterministic JSON)
//	GET    /queuez            queue depth/capacity (fleet admission)
//	POST   /plan              synchronous plan
//	POST   /jobs              async submit (429 + Retry-After when full)
//	GET    /jobs/{id}         poll status
//	GET    /jobs/{id}/result  fetch the plan
//	DELETE /jobs/{id}         cancel
//	POST   /sweeps            distributed parameter sweep (Table 2/3)
//	GET    /sweeps/{id}/events  SSE progress stream
//	GET    /sweeps/{id}/result  deterministic reduced sweep body
//	DELETE /sweeps/{id}         cancel the sweep
//
// In fleet mode a sweep's units are sharded across the peers by
// consistent-hash placement and the final body is byte-identical to a
// single-node run (see README "Distributed sweeps").
//
// SIGINT/SIGTERM trigger a graceful drain: new work is rejected, running
// plans stop at their next checkpoint and report best-so-far partial
// results, streaming sweeps emit a terminal canceled event, then the
// process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"copack/internal/fleet"
	"copack/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	os.Exit(realMain(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// parsePeers turns the -peers flag ("id=url,id=url") into the fleet
// membership map, always including self (whose URL is unused). An entry
// for self is tolerated and ignored so every node of a fleet can share
// one -peers value.
func parsePeers(self, spec string) (map[string]string, error) {
	nodes := map[string]string{self: ""}
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		id, u, ok := strings.Cut(ent, "=")
		if !ok {
			return nil, fmt.Errorf("peer entry %q is not id=url", ent)
		}
		if err := fleet.ValidNodeID(id); err != nil {
			return nil, err
		}
		if id == self {
			continue
		}
		if u == "" {
			return nil, fmt.Errorf("peer %q has an empty URL", id)
		}
		nodes[id] = strings.TrimSuffix(u, "/")
	}
	return nodes, nil
}

// httpWriteTimeout is the http.Server WriteTimeout: the -write-timeout
// flag when positive, otherwise the service's budget cap plus a minute,
// long enough for the slowest in-budget plan, including a forwarded one,
// to finish writing. The cap is the service's, not the -max-budget
// flag's: the service turns a non-positive flag into its 2 min default.
func httpWriteTimeout(flag time.Duration, svc *service.Server) time.Duration {
	if flag > 0 {
		return flag
	}
	return svc.MaxBudget() + time.Minute
}

// realMain parses args on a private FlagSet, serves until ctx is
// canceled, then drains. It prints "listening on http://<addr>" once the
// listener is up so scripts (and CI) can scrape the bound port when -addr
// ends in :0.
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fpserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks one)")
		queue     = fs.Int("queue", 64, "async job queue depth; beyond it submissions get 429")
		workers   = fs.Int("workers", 0, "jobs that run at once (0 = one per CPU); a job's own fan-out still uses every CPU")
		syncConc  = fs.Int("sync", 0, "max concurrent synchronous /plan requests (0 = same as -workers)")
		cache     = fs.Int("cache", 128, "entries in each of four LRUs: plan results, fleet peers' cached plans, raw-body keys, sweep units (negative disables all four)")
		maxBody   = fs.Int64("max-body", 1<<20, "request body size cap in bytes")
		maxBudget = fs.Duration("max-budget", 2*time.Minute,
			"cap on the per-request planning budget (budget_ms), and the budget of a request that sets none")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second,
			"how long a shutdown waits for in-flight jobs before giving up")
		nodeID = fs.String("node-id", "",
			"this node's fleet ID; enables fleet routing and prefixes job IDs")
		peers = fs.String("peers", "",
			"fleet peers as 'id=http://host:port,...' (requires -node-id)")
		readHeaderTimeout = fs.Duration("read-header-timeout", 5*time.Second,
			"http.Server ReadHeaderTimeout (slowloris protection)")
		readTimeout = fs.Duration("read-timeout", time.Minute,
			"http.Server ReadTimeout: full request read deadline")
		writeTimeout = fs.Duration("write-timeout", 0,
			"http.Server WriteTimeout (0 = the effective max-budget plus a minute; also bounds sweep event streams)")
		sweepSeeds     = fs.Int("sweep-seeds", 64, "max units (seeds) per sweep")
		sweepHeartbeat = fs.Duration("sweep-heartbeat", 15*time.Second,
			"keep-alive interval on idle sweep event streams")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *peers != "" && *nodeID == "" {
		fmt.Fprintf(stderr, "fpserved: -peers requires -node-id\n")
		return 2
	}
	if *nodeID != "" {
		if err := fleet.ValidNodeID(*nodeID); err != nil {
			fmt.Fprintf(stderr, "fpserved: %v\n", err)
			return 2
		}
	}

	svc := service.New(service.Config{
		QueueDepth:      *queue,
		Workers:         *workers,
		SyncConcurrency: *syncConc,
		CacheEntries:    *cache,
		MaxBodyBytes:    *maxBody,
		MaxBudget:       *maxBudget,
		NodeID:          *nodeID,
		SweepMaxSeeds:   *sweepSeeds,
		SweepHeartbeat:  *sweepHeartbeat,
	})
	drain := func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		svc.Shutdown(drainCtx)
	}

	handler := svc.Handler()
	if *nodeID != "" {
		nodes, err := parsePeers(*nodeID, *peers)
		if err != nil {
			fmt.Fprintf(stderr, "fpserved: -peers: %v\n", err)
			drain()
			return 2
		}
		rt, err := fleet.New(svc, fleet.Config{
			Self:     *nodeID,
			Nodes:    nodes,
			Recorder: svc.MetricsRecorder(),
		})
		if err != nil {
			fmt.Fprintf(stderr, "fpserved: %v\n", err)
			drain()
			return 2
		}
		handler = rt.Handler()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "fpserved: listen: %v\n", err)
		// The workers are already up; release them before exiting.
		drain()
		return 1
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      httpWriteTimeout(*writeTimeout, svc),
	}
	fmt.Fprintf(stdout, "fpserved: listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "fpserved: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "fpserved: draining\n")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := svc.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "fpserved: %v\n", err)
		code = 1
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "fpserved: http shutdown: %v\n", err)
		code = 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "fpserved: serve: %v\n", err)
		code = 1
	}
	fmt.Fprintf(stdout, "fpserved: drained, exiting\n")
	return code
}
