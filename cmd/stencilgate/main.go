// Command stencilgate is the fleet gateway: one HTTP front door over a set
// of stencild backends, adding a content-addressed result cache (jobs are
// deterministic, so a repeated spec is served from cache without touching
// any backend, and identical in-flight submissions collapse into one
// execution), weighted fair-share admission across tenants (deficit round
// robin, 429 + Retry-After backpressure), and sharded routing (rendezvous
// hashing, health-probe ejection, bounded failover of idempotent jobs).
//
// Usage:
//
//	# two backends, a weighted tenant table, a 64 MiB cache
//	stencild -listen :8421 & stencild -listen :8422 &
//	stencilgate -listen :8420 -backends 127.0.0.1:8421,127.0.0.1:8422 \
//	    -tenants prod=4,batch=1 -cache-bytes 64m
//
//	# submit through the gateway exactly as to a daemon; "tenant" picks the
//	# fair-share queue, "cache":"bypass" forces re-execution
//	curl -s localhost:8420/v1/jobs -d '{"n":960,"tile":48,"steps":60,"step_size":6,"tenant":"prod"}'
//	curl -s localhost:8420/v1/jobs/gw-000001/result
//
// SIGTERM or SIGINT starts a graceful drain: admission closes, queued jobs
// cancel (no backend ever saw them), running jobs get the -drain window.
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

	"castencil/internal/cli"
	"castencil/internal/gateway"
)

func main() {
	listen := cli.ListenVar(flag.CommandLine, ":8420")
	backends := cli.BackendsVar(flag.CommandLine)
	tenants := cli.TenantsVar(flag.CommandLine)
	cacheEntries := flag.Int("cache-entries", 512, "result-cache entry cap")
	cacheBytes := cli.SizeVar(flag.CommandLine, "cache-bytes", 256<<20, "result-cache byte cap (k/m/g suffixes)")
	tenantQueue := flag.Int("tenant-queue", 64, "per-tenant admission queue bound (past it: 429)")
	inflight := flag.Int("inflight", 0, "jobs dispatched onto the fleet concurrently (0 = 2x backends)")
	retries := flag.Int("retries", 3, "failover attempts per job past the first")
	probe := flag.Duration("probe", 250*time.Millisecond, "backend health-probe interval")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain window before cancelling jobs")
	flag.Parse()

	if len(backends.Addrs) == 0 {
		fmt.Fprintln(os.Stderr, "stencilgate: -backends is required (comma-separated stencild addresses)")
		os.Exit(1)
	}

	g, err := gateway.New(gateway.Config{
		Backends:      backends.Addrs,
		CacheEntries:  *cacheEntries,
		CacheBytes:    cacheBytes.Bytes,
		TenantWeights: tenants.Weights,
		TenantQueue:   *tenantQueue,
		MaxInflight:   *inflight,
		Retries:       *retries,
		ProbeInterval: *probe,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stencilgate:", err)
		os.Exit(1)
	}

	srv := &http.Server{Addr: listen.Addr, Handler: gateway.Handler(g)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("stencilgate listening on %s (%d backends, cache %d entries / %d bytes)",
		listen.Addr, len(backends.Addrs), *cacheEntries, cacheBytes.Bytes)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "stencilgate:", err)
		os.Exit(1)
	case s := <-sig:
		log.Printf("stencilgate: %s, draining (up to %v)", s, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		log.Printf("stencilgate: drain window expired, jobs cancelled: %v", err)
	}
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	if err := srv.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("stencilgate: http shutdown: %v", err)
	}
	<-errCh
	log.Print("stencilgate: drained, exiting")
}
