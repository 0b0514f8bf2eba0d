// Tracing: reproduce the paper's Figure 10 experiment — profile one node of
// a 16-node NaCL run at kernel ratio 0.4 and compare the base and CA
// executions: CA keeps the compute cores busier while messages are in
// flight, finishing faster even though its boundary tasks individually cost
// more (deeper halo copies).
package main

import (
	"fmt"
	"log"
	"time"

	castencil "castencil"
)

func main() {
	m := castencil.NaCL()
	cfg := castencil.Config{
		N: 23040, TileRows: 288,
		P:     4, // 16 nodes
		Steps: 30, StepSize: 15,
	}
	// Node 5 sits in the middle of the 4x4 process grid: boundary tiles on
	// all sides.
	const node = 5

	for _, v := range []castencil.Variant{castencil.Base, castencil.CA} {
		tr := castencil.NewTrace()
		res, err := castencil.Sim(v, cfg, castencil.WithMachine(m),
			castencil.WithRatio(0.4), castencil.WithTrace(tr), castencil.WithTraceNode(node))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s: %.1f GFLOP/s, %d messages ==\n", v, res.GFLOPS, res.Messages)
		events := tr.Node(node)
		var busy, maxEnd time.Duration
		counts := map[string]int{}
		for _, e := range events {
			busy += e.Duration()
			if e.End > maxEnd {
				maxEnd = e.End
			}
			counts[e.Kind.String()]++
		}
		occ := float64(busy) / (float64(maxEnd) * float64(m.ComputeCores()))
		fmt.Printf("node %d: %d tasks (%d boundary, %d interior), occupancy %.0f%%\n",
			node, len(events), counts["boundary"], counts["interior"], 100*occ)
		fmt.Println(castencil.GanttText(tr, node, m.ComputeCores(), 110))
	}
	fmt.Println("B = boundary task (talks to remote nodes), . = interior task, blank = idle core")
}
