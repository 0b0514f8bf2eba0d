// Command stencild is the stencil-as-a-service daemon: an HTTP front end
// over the internal/server job manager, running stencil configurations on
// the Run/Sim facade with bounded admission, priority classes, per-job
// deadlines and cancellation, streaming progress, and Prometheus metrics.
//
// Usage:
//
//	stencild -listen :8421 -maxjobs 2 -queue 64
//
//	# two-process distributed deployment: the -ranks list is the mesh
//	# (netcomm) address of every rank, distinct from the HTTP -listen
//	# address; distributed jobs (spec field "ranks") go to rank 0
//	stencild -listen :8421 -rank 0 -ranks 127.0.0.1:9421,127.0.0.1:9422 &
//	stencild -listen :8422 -rank 1 -ranks 127.0.0.1:9421,127.0.0.1:9422 &
//	curl -s localhost:8421/v1/jobs -d '{"n":240,"tile":24,"steps":50,"ranks":2}'
//
//	# submit a job (fields mirror the library's functional options)
//	curl -s localhost:8421/v1/jobs -d '{"n":1440,"tile":36,"steps":100,"step_size":15,"seed":7}'
//
//	# watch it
//	curl -s localhost:8421/v1/jobs/job-000001
//	curl -sN localhost:8421/v1/jobs/job-000001/stream
//
//	# fetch the terminal result (grid checksum; ?grid=1 adds the data
//	# base64-encoded), or the grid itself as raw float64-LE bytes
//	curl -s localhost:8421/v1/jobs/job-000001/result
//	curl -s localhost:8421/v1/jobs/job-000001/grid -o grid.bin
//
//	# scrape metrics
//	curl -s localhost:8421/metrics
//
// SIGTERM or SIGINT starts a graceful drain: admission closes (429/503 on
// new submissions), queued and running jobs get -drain to finish, then
// stragglers are cancelled through their contexts before the process
// exits.
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

	castencil "castencil"
	"castencil/internal/cli"
	"castencil/internal/metrics"
	"castencil/internal/server"
)

func main() {
	listen := cli.ListenVar(flag.CommandLine, ":8421")
	maxJobs := cli.MaxJobsVar(flag.CommandLine, 2)
	queue := cli.QueueVar(flag.CommandLine, 64)
	budget := flag.Int("workers", 0, "total worker budget divided across running jobs (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "default per-job deadline (0 = none; jobs may set timeout_ms)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain window before cancelling jobs")
	rankFlag := cli.RankVar(flag.CommandLine)
	ranksFlag := cli.RanksVar(flag.CommandLine)
	flag.Parse()

	rank, rankAddrs, distributed, err := cli.ResolveRanks(rankFlag, ranksFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stencild:", err)
		os.Exit(1)
	}

	// The mesh connects before HTTP comes up: a distributed daemon that
	// cannot reach its peers should fail (or block) at startup, not at the
	// first job. The shared registry makes the transport's stencild_net_*
	// families appear on the same /metrics page as the job counters.
	reg := metrics.NewRegistry()
	var transport *castencil.NetTransport
	if distributed {
		log.Printf("stencild: rank %d/%d connecting mesh %v", rank, len(rankAddrs), rankAddrs)
		t, err := castencil.NetConnect(rank, rankAddrs, castencil.NetOptions{Metrics: reg})
		if err != nil {
			fmt.Fprintln(os.Stderr, "stencild: mesh:", err)
			os.Exit(1)
		}
		defer t.Close()
		transport = t
		log.Printf("stencild: mesh up (%d ranks)", len(rankAddrs))
	}

	mgr := server.New(server.Config{
		MaxJobs:        maxJobs.N,
		QueueSize:      queue.N,
		WorkerBudget:   *budget,
		DefaultTimeout: *timeout,
		Registry:       reg,
		Transport:      transport,
	})

	folCtx, folCancel := context.WithCancel(context.Background())
	defer folCancel()
	if distributed && rank != 0 {
		go func() {
			if err := mgr.RunFollower(folCtx, transport); err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("stencild: follower loop: %v", err)
			}
		}()
	}
	srv := &http.Server{Addr: listen.Addr, Handler: server.Handler(mgr), ReadHeaderTimeout: 10 * time.Second}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("stencild listening on %s (maxjobs %d, queue %d)", listen.Addr, maxJobs.N, queue.N)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		// Listener died before any signal (port in use, ...).
		fmt.Fprintln(os.Stderr, "stencild:", err)
		os.Exit(1)
	case s := <-sig:
		log.Printf("stencild: %s, draining (up to %v)", s, *drain)
	}

	// Drain order: jobs first (the manager flips to draining, so /healthz
	// reports 503 and submissions are refused while in-flight status and
	// result requests still work), then the HTTP server itself.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		log.Printf("stencild: drain window expired, jobs cancelled: %v", err)
	}
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	if err := srv.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("stencild: http shutdown: %v", err)
	}
	<-errCh // ListenAndServe has returned ErrServerClosed
	log.Print("stencild: drained, exiting")
}
