// Command stencilrun executes or simulates one stencil configuration.
//
// Usage:
//
//	stencilrun -impl ca -machine NaCL -nodes 16 -n 23040 -tile 288 -steps 100 -stepsize 15
//	stencilrun -impl base -engine real -n 240 -tile 24 -nodes 4 -workers 4 -verify
//	stencilrun -impl base -engine real -n 240 -tile 24 -nodes 4 -fault drop=0.02,seed=7 -verify
//	stencilrun -impl petsc -machine Stampede2 -nodes 16 -n 55296
//	stencilrun -impl ca -machine NaCL -nodes 16 -ratio 0.4 -trace trace.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	castencil "castencil"
	"castencil/internal/cli"
	"castencil/internal/core"
	"castencil/internal/petsc"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "stencilrun:", err)
	os.Exit(1)
}

func main() {
	// The run flags: each binds one Spec field, so a flag accepts exactly
	// the spellings the job-spec field of stencild and stencilgate does.
	var s castencil.Spec
	for _, f := range []struct {
		name  string
		def   any
		usage string
		field any
	}{
		{"impl", "ca", "implementation: base, ca, wf, petsc", &s.Variant},
		{"machine", "NaCL", "machine model: NaCL or Stampede2", &s.Machine},
		{"engine", "sim", "engine: sim (virtual time) or real (actual execution)", &s.Engine},
		{"n", 23040, "global grid extent (N x N)", &s.N},
		{"tile", 288, "tile size", &s.Tile},
		{"nodes", 16, "node count (perfect square)", &s.Nodes},
		{"steps", 100, "iterations", &s.Steps},
		{"stepsize", 15, "CA step size", &s.StepSize},
		{"wavefront", 10, "WF block width w (steps per fused wavefront task)", &s.Wavefront},
		{"ratio", 1.0, "kernel adjustment ratio (sim only)", &s.Ratio},
		{"workers", 2, "workers per node (real engine)", &s.Workers},
		{"coalesce", "off", "halo-bundle coalescing: off, step", &s.Coalesce},
		{"fault", "", "fault-injection spec, e.g. \"drop=0.01,seed=7\"; grammar: " + castencil.FaultSpecSyntax, &s.Fault},
	} {
		switch p := f.field.(type) {
		case *string:
			flag.StringVar(p, f.name, f.def.(string), f.usage)
		case *int:
			flag.IntVar(p, f.name, f.def.(int), f.usage)
		case *float64:
			flag.Float64Var(p, f.name, f.def.(float64), f.usage)
		}
	}
	autoPlan := flag.Bool("autoplan", false, "plan first, then execute the recommended configuration (overrides -impl/-stepsize)")
	rankFlag := cli.RankVar(flag.CommandLine)
	ranksFlag := cli.RanksVar(flag.CommandLine)
	verify := flag.Bool("verify", false, "real engine: compare against the sequential oracle")
	traceOut := flag.String("trace", "", "write a CSV trace to this file (sim: node 0; real: all nodes)")
	planMode := flag.Bool("plan", false, "run the automatic step-size planner instead of a single config")
	dotOut := flag.String("dot", "", "write the task graph in Graphviz DOT format to this file and exit (small configs only)")
	flag.Parse()

	rank, rankAddrs, distributed, err := cli.ResolveRanks(rankFlag, ranksFlag)
	if err != nil {
		fail(err)
	}
	s.Ranks = len(rankAddrs)
	if *autoPlan || *planMode {
		s.Plan = "auto" // planning skips the variant-specific rules
	}
	petscImpl := s.Variant == "petsc"
	if petscImpl {
		s.Variant = "base" // the geometry checks still apply
	}
	r, err := s.Options()
	if err != nil {
		fail(err)
	}
	m := r.Machine

	if *dotOut != "" {
		// Count before building: a paper-scale config would build
		// hundreds of thousands of tasks only to be refused.
		tasks, err := core.TaskCount(r.Variant, r.Config)
		if err != nil {
			fail(err)
		}
		if tasks > 2000 {
			fail(fmt.Errorf("graph has %d tasks; DOT export is for small configs (<= 2000)", tasks))
		}
		g, err := core.BuildGraph(r.Variant, r.Config)
		if err != nil {
			fail(err)
		}
		f, err := os.Create(*dotOut)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := g.WriteDOT(f, fmt.Sprintf("%s N=%d", r.Variant, s.N)); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d tasks)\n", *dotOut, len(g.Tasks))
		return
	}

	if *planMode {
		plan, err := castencil.AutoPlan(r.Config, m, s.Ratio, nil)
		if err != nil {
			fail(err)
		}
		fmt.Printf("plan for %s, %d nodes, N=%d tile=%d ratio=%.2f:\n", m.Name, s.Nodes, s.N, s.Tile, s.Ratio)
		for i, c := range plan.Candidates {
			marker := ""
			if i == 0 {
				marker = "  <- recommended"
			}
			fmt.Printf("  %-9s %10.1f GFLOP/s%s\n", c, c.GFLOPS, marker)
		}
		return
	}

	if petscImpl {
		perf, err := petsc.ModelPerf(m, s.N, s.Nodes, s.Steps)
		if err != nil {
			fail(err)
		}
		fmt.Printf("petsc on %s, %d nodes (%d ranks): %.1f GFLOP/s, iter %v (kernel %v, comm %v)\n",
			m.Name, s.Nodes, perf.Ranks, perf.GFLOPS, perf.IterTime, perf.KernelTime, perf.CommTime)
		return
	}

	plan, err := r.AutoPlan()
	if err != nil {
		fail(err)
	}
	if plan != nil {
		best := plan.Candidates[0]
		fmt.Printf("autoplan: %s (%.1f GFLOP/s predicted on %s)\n", best, best.GFLOPS, m.Name)
	}
	variant, cfg := r.Variant, r.Config
	opts := r.Options
	var tr *castencil.Trace
	if *traceOut != "" {
		tr = castencil.NewTrace()
		opts = append(opts, castencil.WithTrace(tr), castencil.WithTraceNode(0), castencil.WithTraceComm())
	}
	var mesh *castencil.NetTransport
	if distributed {
		// The mesh takes the default recovery policy, as the run does, and
		// records its wire events in the run's trace.
		mesh, err = castencil.NetConnect(rank, rankAddrs, castencil.NetOptions{Trace: tr})
		if err != nil {
			fail(err)
		}
		opts = append(opts, castencil.WithCluster(castencil.ClusterOptions{Transport: mesh}))
	}

	if r.Engine == "sim" {
		res, err := castencil.Sim(variant, cfg, opts...)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s on %s, %d nodes, N=%d tile=%d steps=%d", variant, m.Name, s.Nodes, s.N, s.Tile, s.Steps)
		if variant == castencil.CA {
			fmt.Printf(" s=%d", cfg.StepSize)
		}
		if variant == castencil.WF {
			fmt.Printf(" w=%d", cfg.Wavefront)
		}
		if s.Ratio != 1 {
			fmt.Printf(" ratio=%.2f", s.Ratio)
		}
		fmt.Printf("\n  %.1f GFLOP/s, makespan %v, %d messages, %.1f MB sent\n",
			res.GFLOPS, res.Makespan, res.Messages, float64(res.BytesSent)/1e6)
		if res.Bundles > 0 {
			fmt.Printf("  coalescing (%s): %d bundles carrying %d transfers, fill %.1f\n",
				s.Coalesce, res.Bundles, res.Segments, res.BundleFill())
		}
		if tr != nil {
			writeTrace(tr, *traceOut, "trace of node 0")
		}
		return
	}

	res, err := castencil.Run(variant, cfg, opts...)
	if mesh != nil {
		mesh.Close()
	}
	if err != nil {
		reportFault(err)
		fail(err)
	}
	if distributed && rank != 0 {
		// Followers hold no grid and only their local counter slice;
		// rank 0 prints the run's global view.
		fmt.Printf("%s rank %d/%d done: elapsed %v, local %d messages, %.1f MB sent\n",
			variant, rank, len(rankAddrs), res.Exec.Elapsed, res.Exec.Messages, float64(res.Exec.BytesSent)/1e6)
		if tr != nil {
			writeTrace(tr, *traceOut, "trace")
		}
		return
	}
	fmt.Printf("%s real run: %d nodes x %d workers, elapsed %v, %d messages, %.1f MB sent\n",
		variant, s.Nodes, s.Workers, res.Exec.Elapsed, res.Exec.Messages, float64(res.Exec.BytesSent)/1e6)
	if distributed {
		fmt.Printf("  distributed: %d ranks, grid sha256 %s\n", len(rankAddrs), castencil.GridSHA256(res.Grid))
	}
	if res.Exec.BundlesSent > 0 {
		fmt.Printf("  coalescing (%s): %d bundles carrying %d transfers, fill %.1f\n",
			s.Coalesce, res.Exec.BundlesSent, res.Exec.BundleSegments, res.Exec.BundleFill())
	}
	if res.Exec.Fault.Any() {
		fmt.Printf("  fault plan %q masked: %v\n", s.Fault, res.Exec.Fault)
	}
	hits, steals, parks := 0, 0, 0
	for n := range res.Exec.NodeLocalHits {
		hits += res.Exec.NodeLocalHits[n]
		steals += res.Exec.NodeSteals[n]
		parks += res.Exec.NodeParks[n]
	}
	fmt.Printf("  scheduler: %d local deque hits, %d steals, %d parks across %d tasks\n",
		hits, steals, parks, res.Exec.Completed)
	if tr != nil {
		writeTrace(tr, *traceOut, "trace")
	}
	if *verify {
		if d := castencil.Verify(cfg, res); d == 0 {
			fmt.Println("  verified: bitwise identical to the sequential oracle")
		} else {
			fail(fmt.Errorf("verification failed: max diff %v", d))
		}
	}
}

// reportFault surfaces the structured degradation report when a run failed
// because a transfer could not be acknowledged within the recovery deadline.
func reportFault(err error) {
	var rep *castencil.FaultReport
	if errors.As(err, &rep) {
		fmt.Fprintf(os.Stderr, "stencilrun: degraded: %v\n", rep.Stats)
	}
}

func writeTrace(tr *castencil.Trace, path, what string) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := tr.WriteCSV(f); err != nil {
		fail(err)
	}
	fmt.Printf("  %s written to %s (%d events)\n", what, path, tr.Len())
}
