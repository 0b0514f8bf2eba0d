// Command traceview renders a CSV execution trace (written by stencilrun
// -trace or trace.WriteCSV) as per-node text Gantt charts with occupancy
// statistics — the text analog of the paper's Figure 10.
//
// Usage:
//
//	traceview -width 120 trace.csv
//	traceview -node 5 trace.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"castencil/internal/trace"
)

func main() {
	width := flag.Int("width", 100, "chart width in columns")
	node := flag.Int("node", -1, "render only this node (-1 = all nodes in the trace)")
	chrome := flag.String("chrome", "", "also write a Chrome/Perfetto trace-event JSON file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceview [-width N] [-node N] trace.csv")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceview:", err)
		os.Exit(1)
	}
	defer f.Close()
	tr, err := trace.ReadCSV(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceview:", err)
		os.Exit(1)
	}
	if *chrome != "" {
		cf, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintln(os.Stderr, "traceview:", err)
			os.Exit(1)
		}
		if err := tr.WriteChrome(cf); err != nil {
			fmt.Fprintln(os.Stderr, "traceview:", err)
			os.Exit(1)
		}
		cf.Close()
		fmt.Printf("chrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *chrome)
	}
	// A distributed trace carries the TCP transport's wire:send/wire:recv
	// events keyed by rank; ranks alias low node numbers, so the wire
	// family is split out before any per-node statistics and rendered as
	// its own utilization block.
	rest, wire := trace.SplitWire(tr.Events())
	span := tr.Makespan()
	if len(wire) > 0 {
		ft := trace.New()
		for _, e := range rest {
			ft.Record(e)
		}
		tr = ft
		fmt.Println("== wire: distributed transport, per-rank socket activity ==")
		for _, ws := range trace.SummarizeWire(wire, span) {
			fmt.Printf("  rank %d  %5d sends  %5d recvs  %9d bytes  busy %-10v  util %3.0f%%\n",
				ws.Rank, ws.Sends, ws.Recvs, ws.Bytes, ws.Busy.Round(time.Microsecond), 100*ws.Util)
		}
		fmt.Println()
	}

	cores, nodes := tr.MaxCore()
	for _, nd := range nodes {
		if *node >= 0 && int32(*node) != nd {
			continue
		}
		events := tr.Node(nd)
		// Comm-goroutine events live on the core one past the compute
		// cores; statistics must not let them pollute task occupancy.
		compute, comm := trace.SplitComm(events)
		computeCores := cores
		if len(comm) > 0 {
			computeCores = 0
			for _, e := range compute {
				if int(e.Core) >= computeCores {
					computeCores = int(e.Core) + 1
				}
			}
		}
		st := trace.Summarize(compute, computeCores)
		fmt.Printf("== node %d: %d tasks, span %v, occupancy %.0f%% ==\n",
			nd, st.Tasks, st.Span.Round(time.Microsecond), 100*st.Occupancy)
		for kind, med := range st.MedianByKind {
			fmt.Printf("  %-9s x%-5d median %v\n", kind, st.CountByKind[kind], med.Round(time.Microsecond))
		}
		fmt.Println("  core  tasks  stolen  busy        util")
		for _, cs := range trace.SummarizeCores(compute, computeCores) {
			fmt.Printf("  %4d  %5d  %6d  %-10v  %3.0f%%\n",
				cs.Core, cs.Tasks, cs.Stolen, cs.Busy.Round(time.Microsecond), 100*cs.Util)
		}
		if len(comm) > 0 {
			cs := trace.SummarizeComm(comm)
			util := 0.0
			if st.Span > 0 {
				util = float64(cs.Busy) / float64(st.Span)
			}
			fmt.Printf("  comm  %d wire msgs, %d transfers, %d bytes, busy %v, util %.0f%%\n",
				cs.Wire, cs.Transfers, cs.Bytes, cs.Busy.Round(time.Microsecond), 100*util)
		}
		fmt.Print(trace.Gantt(events, cores, trace.GanttConfig{Width: *width}))
		fmt.Println()
	}
}
