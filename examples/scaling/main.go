// Scaling: a strong-scaling study in the style of the paper's Figure 7 —
// PETSc vs base-PaRSEC vs CA-PaRSEC on both machine models, from 1 to 64
// nodes — plus the kernel-ratio crossover showing where communication
// avoiding starts to pay (Figure 8's story).
package main

import (
	"fmt"
	"log"

	castencil "castencil"
)

func main() {
	type workload struct {
		m       *castencil.Machine
		n, tile int
	}
	workloads := []workload{
		{castencil.NaCL(), 23040, 288},
		{castencil.Stampede2(), 55296, 864},
	}
	const steps, stepSize = 100, 15

	for _, w := range workloads {
		fmt.Printf("== %s: N=%d, tile=%d, %d iterations, CA step %d ==\n",
			w.m.Name, w.n, w.tile, steps, stepSize)
		fmt.Printf("%-6s %12s %12s %12s %10s\n", "nodes", "PETSc GF/s", "base GF/s", "CA GF/s", "vs PETSc")
		var base1 float64
		for _, nodes := range []int{1, 4, 16, 64} {
			s := castencil.Spec{N: w.n, Tile: w.tile, Nodes: nodes, Steps: steps, StepSize: stepSize}
			r, err := s.Options()
			if err != nil {
				log.Fatal(err)
			}
			cfg := r.Config
			base, err := castencil.Sim(castencil.Base, cfg, castencil.WithMachine(w.m))
			if err != nil {
				log.Fatal(err)
			}
			ca, err := castencil.Sim(castencil.CA, cfg, castencil.WithMachine(w.m))
			if err != nil {
				log.Fatal(err)
			}
			pet, err := castencil.SimulatePETSc(w.m, w.n, nodes, steps)
			if err != nil {
				log.Fatal(err)
			}
			if nodes == 1 {
				base1 = base.GFLOPS
			}
			fmt.Printf("%-6d %12.1f %12.1f %12.1f %9.2fx\n",
				nodes, pet.GFLOPS, base.GFLOPS, ca.GFLOPS, base.GFLOPS/pet.GFLOPS)
		}
		_ = base1

		fmt.Println("\nkernel-ratio crossover on 16 nodes (where CA starts to win):")
		cfg := castencil.Config{N: w.n, TileRows: w.tile, P: 4, Steps: steps, StepSize: stepSize}
		for _, ratio := range []float64{1.0, 0.8, 0.6, 0.4, 0.3, 0.2} {
			base, err := castencil.Sim(castencil.Base, cfg, castencil.WithMachine(w.m), castencil.WithRatio(ratio))
			if err != nil {
				log.Fatal(err)
			}
			ca, err := castencil.Sim(castencil.CA, cfg, castencil.WithMachine(w.m), castencil.WithRatio(ratio))
			if err != nil {
				log.Fatal(err)
			}
			marker := ""
			if ca.GFLOPS > base.GFLOPS*1.05 {
				marker = "  <- CA wins"
			}
			fmt.Printf("  ratio %.1f: base %8.1f  CA %8.1f  (%+5.0f%%)%s\n",
				ratio, base.GFLOPS, ca.GFLOPS, 100*(ca.GFLOPS/base.GFLOPS-1), marker)
		}
		fmt.Println()
	}
}
