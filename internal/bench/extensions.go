package bench

import (
	"fmt"

	"castencil/internal/core"
	"castencil/internal/grid"
	"castencil/internal/machine"
)

// ScaleBandwidth returns a copy of a machine model with its memory
// bandwidth (node and core STREAM, and proportionally the kernel's ability
// to consume it) multiplied by f, keeping the network unchanged — the
// section-VII projection: "memory bandwidth is expected to have around 50%
// improvement, but the improvement of network latency will remain modest".
func ScaleBandwidth(m *machine.Model, f float64) *machine.Model {
	s := *m
	s.Name = fmt.Sprintf("%s(bw x%.1f)", m.Name, f)
	s.StreamCore.Copy *= f
	s.StreamCore.Scale *= f
	s.StreamCore.Add *= f
	s.StreamCore.Triad *= f
	s.StreamNode.Copy *= f
	s.StreamNode.Scale *= f
	s.StreamNode.Add *= f
	s.StreamNode.Triad *= f
	return &s
}

// Future regenerates the paper's section-VII forecast as an experiment:
// with faster memory and a stagnant network, the *real* kernel (ratio 1)
// becomes network-bound and the CA variant wins without any tuning knob.
func Future(p Params) (*Report, error) {
	r := &Report{
		ID:    "future",
		Title: "Exascale projection (section VII): faster memory, same network",
		Paper: "§VII: ~50% memory-bandwidth improvement, modest network gains => workloads become network-bound and CA shows a distinct advantage",
	}
	for _, w := range p.Workloads {
		t := Table{
			Title:   fmt.Sprintf("%s, N=%d, tile=%d, real kernel (ratio 1), CA step %d", w.Machine.Name, w.N, w.Tile, p.StepSize),
			Columns: []string{"Memory BW", "Nodes", "Base GF", "CA GF", "CA gain"},
		}
		for _, f := range []float64{1, 1.5, 3, 6} {
			m := ScaleBandwidth(w.Machine, f)
			for _, nodes := range p.Nodes {
				pg, _, err := grid.SquareGrid(nodes)
				if err != nil {
					return nil, err
				}
				cfg := core.Config{N: w.N, TileRows: w.Tile, P: pg, Steps: p.Steps, StepSize: p.StepSize}
				rb, err := core.Simulate(core.Base, cfg, core.SimOptions{Machine: m})
				if err != nil {
					return nil, err
				}
				rc, err := core.Simulate(core.CA, cfg, core.SimOptions{Machine: m})
				if err != nil {
					return nil, err
				}
				t.AddRow(fmt.Sprintf("x%.1f", f), itoa(nodes), f1(rb.GFLOPS), f1(rc.GFLOPS), pct(rc.GFLOPS/rb.GFLOPS))
			}
		}
		r.Tables = append(r.Tables, t)
	}
	r.Notes = append(r.Notes,
		"bandwidth scaling multiplies STREAM while the network (latency, per-message overhead, wire rate) stays fixed")
	return r, nil
}

// NinePoint is the other section-VII mitigation: raising arithmetic
// intensity. It compares the 5-point and 9-point stencils at the real
// kernel on the same machines.
func NinePoint(p Params) (*Report, error) {
	r := &Report{
		ID:    "ninepoint",
		Title: "Arithmetic-intensity ablation: 5-point vs 9-point stencil (section VII)",
		Paper: "§VII: increasing the arithmetic intensity of the algorithms ... could also provide effective ways to mitigate the network inefficiencies",
	}
	for _, w := range p.Workloads {
		t := Table{
			Title:   fmt.Sprintf("%s, N=%d, tile=%d", w.Machine.Name, w.N, w.Tile),
			Columns: []string{"Nodes", "Stencil", "Base GF", "CA GF", "CA gain"},
		}
		for _, nodes := range p.Nodes {
			pg, _, err := grid.SquareGrid(nodes)
			if err != nil {
				return nil, err
			}
			for _, nine := range []bool{false, true} {
				cfg := core.Config{N: w.N, TileRows: w.Tile, P: pg, Steps: p.Steps, StepSize: p.StepSize, NinePoint: nine}
				rb, err := core.Simulate(core.Base, cfg, core.SimOptions{Machine: w.Machine, Ratio: 0.3})
				if err != nil {
					return nil, err
				}
				rc, err := core.Simulate(core.CA, cfg, core.SimOptions{Machine: w.Machine, Ratio: 0.3})
				if err != nil {
					return nil, err
				}
				name := "5-point"
				if nine {
					name = "9-point"
				}
				t.AddRow(itoa(nodes), name, f1(rb.GFLOPS), f1(rc.GFLOPS), pct(rc.GFLOPS/rb.GFLOPS))
			}
		}
		r.Tables = append(r.Tables, t)
	}
	return r, nil
}

// AutoPlanReport exercises the automatic kernel-family planner (the paper's
// future-work item) across kernel ratios: each parameter candidate is probed
// both as a CA step size and as a wavefront width.
func AutoPlanReport(p Params) (*Report, error) {
	r := &Report{
		ID:    "autoplan",
		Title: "Automatic kernel-family planning (section VII future work)",
		Paper: "§VII: make the generation and scheduling of the redundant tasks transparent to the users",
	}
	for _, w := range p.Workloads {
		t := Table{
			Title:   fmt.Sprintf("%s, N=%d, tile=%d", w.Machine.Name, w.N, w.Tile),
			Columns: []string{"Nodes", "Ratio", "Plan", "Plan GF", "Base GF", "gain"},
		}
		for _, nodes := range p.Nodes {
			pg, _, err := grid.SquareGrid(nodes)
			if err != nil {
				return nil, err
			}
			cfg := core.Config{N: w.N, TileRows: w.Tile, P: pg, Steps: p.Steps}
			for _, ratio := range append([]float64{1}, p.Ratios...) {
				plan, err := core.AutoPlan(cfg, w.Machine, ratio, p.StepSizes)
				if err != nil {
					return nil, err
				}
				var base float64
				for _, c := range plan.Candidates {
					if c.Family == core.Base {
						base = c.GFLOPS
					}
				}
				best := plan.Candidates[0]
				t.AddRow(itoa(nodes), f1(ratio), best.String(), f1(best.GFLOPS), f1(base), pct(best.GFLOPS/base))
			}
		}
		r.Tables = append(r.Tables, t)
	}
	return r, nil
}

// WeakScaling complements the paper's strong-scaling study (Fig. 7) with a
// weak-scaling one: per-node work is held constant while the node count
// grows, so the per-node message count stays fixed and the base version's
// communication remains hidden much longer — the regime where the paper's
// "increasing workload on each node" mitigation (section VII) applies.
func WeakScaling(p Params) (*Report, error) {
	r := &Report{
		ID:    "weak",
		Title: "Weak scaling (constant per-node work; extension)",
		Paper: "§VII: 'increasing workload on each node could also provide effective ways to mitigate the network inefficiencies'",
	}
	for _, w := range p.Workloads {
		perNode := w.N
		for _, n := range p.Nodes { // shrink so the largest run matches w.N
			pg, _, _ := grid.SquareGrid(n)
			if pg > 0 && w.N/pg < perNode {
				perNode = w.N / pg
			}
		}
		t := Table{
			Title:   fmt.Sprintf("%s, %d x %d points per node, tile=%d, ratio 0.3", w.Machine.Name, perNode, perNode, w.Tile),
			Columns: []string{"Nodes", "N", "Base GF", "CA GF", "Base eff", "CA eff"},
		}
		var base1, ca1 float64
		for _, nodes := range append([]int{1}, p.Nodes...) {
			pg, _, err := grid.SquareGrid(nodes)
			if err != nil {
				return nil, err
			}
			n := perNode * pg
			cfg := core.Config{N: n, TileRows: w.Tile, P: pg, Steps: p.Steps, StepSize: p.StepSize}
			rb, err := core.Simulate(core.Base, cfg, core.SimOptions{Machine: w.Machine, Ratio: 0.3})
			if err != nil {
				return nil, err
			}
			rc, err := core.Simulate(core.CA, cfg, core.SimOptions{Machine: w.Machine, Ratio: 0.3})
			if err != nil {
				return nil, err
			}
			if nodes == 1 {
				base1, ca1 = rb.GFLOPS, rc.GFLOPS
			}
			t.AddRow(itoa(nodes), itoa(n), f1(rb.GFLOPS), f1(rc.GFLOPS),
				f2(rb.GFLOPS/(float64(nodes)*base1)), f2(rc.GFLOPS/(float64(nodes)*ca1)))
		}
		r.Tables = append(r.Tables, t)
	}
	return r, nil
}
