// Command stencilbench regenerates the paper's tables and figures from the
// calibrated machine models and the discrete-event engine.
//
// Usage:
//
//	stencilbench -exp all            # every table/figure (paper-scale, slow)
//	stencilbench -exp fig8 -quick    # one experiment, quarter-scale
//	stencilbench -exp table1 -host   # include a real STREAM run of this host
//	stencilbench -exp fig10 -gantt 120
//	stencilbench -exp fig10 -cpuprofile cpu.out -memprofile mem.out
//
// The experiment list is the bench package's registry — the paper's own
// reproductions only (table1, fig5-fig10, roofline, headline, future,
// ninepoint, autoplan, weak); -exp help text, validation, and the "all"
// execution order all derive from it. The implementation itself is measured
// by benchmark/ (see benchmark/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"castencil/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(bench.ExperimentIDs(), ", "))
	quick := flag.Bool("quick", false, "quarter-scale workloads, 10 iterations (fast)")
	host := flag.Bool("host", false, "table1: run a real STREAM benchmark on this host too")
	gantt := flag.Int("gantt", 0, "fig10: also print text Gantt charts of the given width")
	steps := flag.Int("steps", 0, "override iteration count")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken after the experiments to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle live-object accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	p := bench.PaperParams()
	if *quick {
		p = bench.QuickParams()
	}
	if *steps > 0 {
		p.Steps = *steps
	}
	o := bench.ExpOpts{Host: *host, GanttWidth: *gantt}

	valid := bench.ExperimentIDs()
	known := false
	for _, v := range valid {
		if *exp == v {
			known = true
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (valid: %s)\n", *exp, strings.Join(valid, ", "))
		os.Exit(2)
	}

	ran := 0
	start := time.Now()
	for _, e := range bench.Experiments() {
		if *exp != "all" && *exp != e.ID {
			continue
		}
		if err := e.Run(p, o, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		ran++
	}
	fmt.Printf("ran %d experiment(s) in %v\n", ran, time.Since(start).Round(time.Millisecond))
}
