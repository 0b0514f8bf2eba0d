package bench

import (
	"fmt"
	"time"

	"castencil/internal/core"
	"castencil/internal/grid"
	"castencil/internal/machine"
	"castencil/internal/membench"
	"castencil/internal/memmodel"
	"castencil/internal/netsim"
	"castencil/internal/petsc"
	"castencil/internal/trace"
)

// TableI regenerates the STREAM table. The machine-model values ARE the
// paper's Table I (they are model inputs); when host is true a real STREAM
// run of the local machine is appended for comparison.
func TableI(p Params, host bool) *Report {
	r := &Report{
		ID:    "table1",
		Title: "STREAM benchmark results (MB/s)",
		Paper: "Table I: NaCL 1-node COPY 40091.3, Stampede2 1-node COPY 176701.1",
	}
	t := Table{Columns: []string{"System", "Scale", "COPY", "SCALE", "ADD", "TRIAD"}}
	add := func(name, scale string, s machine.StreamResult) {
		t.AddRow(name, scale, f1(s.Copy), f1(s.Scale), f1(s.Add), f1(s.Triad))
	}
	for _, w := range p.Workloads {
		add(w.Machine.Name, "1-core", w.Machine.StreamCore)
		add(w.Machine.Name, "1-node", w.Machine.StreamNode)
	}
	if host {
		cfg := membench.DefaultConfig()
		one := cfg
		one.Workers = 1
		add("host(measured)", "1-core", membench.Run(one))
		add("host(measured)", "1-node", membench.Run(cfg))
	}
	r.Tables = append(r.Tables, t)
	return r
}

// Fig5 regenerates the NetPIPE curves: percent of theoretical peak versus
// message size for each machine's interconnect.
func Fig5(p Params) *Report {
	r := &Report{
		ID:    "fig5",
		Title: "Network performance (NetPIPE), % of theoretical peak",
		Paper: "Fig. 5: ramps from ~0 to ~84% (NaCL, 27/32 Gb/s) and ~86% (Stampede2, 86/100 Gb/s)",
	}
	t := Table{Columns: []string{"MsgBytes"}}
	var sweeps [][]netsim.Point
	for _, w := range p.Workloads {
		t.Columns = append(t.Columns, w.Machine.Name+" %peak", w.Machine.Name+" Gb/s")
		sweeps = append(sweeps, netsim.NetPIPE(w.Machine.Net, 256, 4<<20))
	}
	if len(sweeps) == 0 {
		return r
	}
	for i := range sweeps[0] {
		row := []string{itoa(sweeps[0][i].Bytes)}
		for _, sw := range sweeps {
			row = append(row, f1(sw[i].PercentPeak), f1(sw[i].BandwidthGbps))
		}
		t.AddRow(row...)
	}
	r.Tables = append(r.Tables, t)
	return r
}

// defaultTileSweep returns the Fig. 6 tile sizes for a machine.
func defaultTileSweep(m *machine.Model) []int {
	if m.CoresPerNode >= 32 { // Stampede2-class
		return []int{200, 400, 600, 864, 1200, 2000, 3000}
	}
	return []int{100, 150, 200, 250, 288, 350, 400, 500}
}

// Fig6 regenerates the single-node tile-size tuning curves: base-PaRSEC
// GFLOP/s on one node as a function of tile size.
func Fig6(p Params) (*Report, error) {
	r := &Report{
		ID:    "fig6",
		Title: "Shared-memory base-PaRSEC performance vs tile size (1 node)",
		Paper: "Fig. 6: NaCL peaks ~11 GFLOP/s at tiles 200-300; Stampede2 ~43.5 GFLOP/s at tiles 400-2000",
	}
	steps := p.Steps
	if steps > 5 {
		steps = 5 // per-step behaviour is stationary; 5 steps suffice
	}
	for _, w := range p.Workloads {
		t := Table{
			Title:   fmt.Sprintf("%s, problem size %d", w.Machine.Name, w.SweepN),
			Columns: []string{"Tile", "GFLOP/s"},
		}
		tiles := p.TileSweep
		if len(tiles) == 0 {
			tiles = defaultTileSweep(w.Machine)
		}
		for _, ts := range tiles {
			if ts > w.SweepN {
				continue
			}
			cfg := core.Config{N: w.SweepN, TileRows: ts, P: 1, Steps: steps}
			res, err := core.Simulate(core.Base, cfg, core.SimOptions{Machine: w.Machine})
			if err != nil {
				return nil, err
			}
			t.AddRow(itoa(ts), f2(res.GFLOPS))
		}
		r.Tables = append(r.Tables, t)
	}
	return r, nil
}

// Fig7 regenerates the strong-scaling comparison: speedup over the
// single-node base-PaRSEC run for PETSc, base-PaRSEC and CA-PaRSEC.
func Fig7(p Params) (*Report, error) {
	r := &Report{
		ID:    "fig7",
		Title: "Strong scaling speedup over 1-node base-PaRSEC",
		Paper: "Fig. 7: PaRSEC versions scale near-linearly and reach ~2x PETSc; base and CA indistinguishable",
	}
	for _, w := range p.Workloads {
		t := Table{
			Title:   fmt.Sprintf("%s, N=%d, tile=%d, %d iters, CA step %d", w.Machine.Name, w.N, w.Tile, p.Steps, p.StepSize),
			Columns: []string{"Nodes", "PETSc GF", "Base GF", "CA GF", "PETSc x", "Base x", "CA x"},
		}
		base1, err := core.Simulate(core.Base, core.Config{N: w.N, TileRows: w.Tile, P: 1, Steps: p.Steps},
			core.SimOptions{Machine: w.Machine})
		if err != nil {
			return nil, err
		}
		for _, nodes := range append([]int{1}, p.Nodes...) {
			pg, _, err := grid.SquareGrid(nodes)
			if err != nil {
				return nil, err
			}
			cfg := core.Config{N: w.N, TileRows: w.Tile, P: pg, Steps: p.Steps, StepSize: p.StepSize}
			rb, err := core.Simulate(core.Base, cfg, core.SimOptions{Machine: w.Machine})
			if err != nil {
				return nil, err
			}
			rc, err := core.Simulate(core.CA, cfg, core.SimOptions{Machine: w.Machine})
			if err != nil {
				return nil, err
			}
			pp, err := petsc.ModelPerf(w.Machine, w.N, nodes, p.Steps)
			if err != nil {
				return nil, err
			}
			t.AddRow(itoa(nodes),
				f1(pp.GFLOPS), f1(rb.GFLOPS), f1(rc.GFLOPS),
				f2(pp.GFLOPS/base1.GFLOPS), f2(rb.GFLOPS/base1.GFLOPS), f2(rc.GFLOPS/base1.GFLOPS))
		}
		r.Tables = append(r.Tables, t)
	}
	r.Notes = append(r.Notes,
		"PETSc line uses the SpMV cost model (index traffic doubles bytes/update; 1 rank/core; 1D row blocks)")
	return r, nil
}

// Fig8 regenerates the kernel-adjustment-ratio sweep: base vs CA GFLOP/s
// when only (ratio*mb)x(ratio*nb) of each tile is updated, plus the
// original-kernel base reference (the black line in the paper's plot).
func Fig8(p Params) (*Report, error) {
	r := &Report{
		ID:    "fig8",
		Title: "Tuned kernel performance: base vs CA across kernel-adjustment ratios",
		Paper: "Fig. 8: CA wins when the kernel is fast — up to 57% on 16 NaCL nodes; smaller gains on Stampede2",
	}
	for _, w := range p.Workloads {
		t := Table{
			Title:   fmt.Sprintf("%s, N=%d, tile=%d, CA step %d", w.Machine.Name, w.N, w.Tile, p.StepSize),
			Columns: []string{"Nodes", "Ratio", "Base GF", "CA GF", "CA gain"},
		}
		for _, nodes := range p.Nodes {
			pg, _, err := grid.SquareGrid(nodes)
			if err != nil {
				return nil, err
			}
			cfg := core.Config{N: w.N, TileRows: w.Tile, P: pg, Steps: p.Steps, StepSize: p.StepSize}
			for _, ratio := range p.Ratios {
				rb, err := core.Simulate(core.Base, cfg, core.SimOptions{Machine: w.Machine, Ratio: ratio})
				if err != nil {
					return nil, err
				}
				rc, err := core.Simulate(core.CA, cfg, core.SimOptions{Machine: w.Machine, Ratio: ratio})
				if err != nil {
					return nil, err
				}
				t.AddRow(itoa(nodes), f1(ratio), f1(rb.GFLOPS), f1(rc.GFLOPS), pct(rc.GFLOPS/rb.GFLOPS))
			}
			rb, err := core.Simulate(core.Base, cfg, core.SimOptions{Machine: w.Machine})
			if err != nil {
				return nil, err
			}
			t.AddRow(itoa(nodes), "1.0(orig)", f1(rb.GFLOPS), "-", "-")
		}
		r.Tables = append(r.Tables, t)
	}
	return r, nil
}

// Fig9 regenerates the step-size tuning sweep: CA GFLOP/s for several CA
// step sizes across kernel ratios, against the base version.
func Fig9(p Params) (*Report, error) {
	r := &Report{
		ID:    "fig9",
		Title: "Tuned step-size performance (CA) across kernel-adjustment ratios",
		Paper: "Fig. 9: the optimal step size depends on the kernel time; bad step sizes lose to base",
	}
	for _, w := range p.Workloads {
		for _, nodes := range p.Nodes {
			pg, _, err := grid.SquareGrid(nodes)
			if err != nil {
				return nil, err
			}
			t := Table{
				Title:   fmt.Sprintf("%s, %d nodes, N=%d, tile=%d", w.Machine.Name, nodes, w.N, w.Tile),
				Columns: []string{"Ratio", "Base GF"},
			}
			for _, s := range p.StepSizes {
				t.Columns = append(t.Columns, fmt.Sprintf("CA s=%d", s))
			}
			for _, ratio := range p.Ratios {
				cfg := core.Config{N: w.N, TileRows: w.Tile, P: pg, Steps: p.Steps}
				rb, err := core.Simulate(core.Base, cfg, core.SimOptions{Machine: w.Machine, Ratio: ratio})
				if err != nil {
					return nil, err
				}
				row := []string{f1(ratio), f1(rb.GFLOPS)}
				for _, s := range p.StepSizes {
					cfg.StepSize = s
					rc, err := core.Simulate(core.CA, cfg, core.SimOptions{Machine: w.Machine, Ratio: ratio})
					if err != nil {
						return nil, err
					}
					row = append(row, f1(rc.GFLOPS))
				}
				t.AddRow(row...)
			}
			r.Tables = append(r.Tables, t)
		}
	}
	return r, nil
}

// Fig10Result bundles the trace analysis of one variant.
type Fig10Result struct {
	Variant   core.Variant
	Trace     *trace.Trace
	Stats     trace.Stats
	GFLOPS    float64
	Gantt     string
	TraceNode int32
}

// Fig10 regenerates the profiling comparison: one node's execution trace of
// base vs CA at a tuned kernel ratio, reporting occupancy and the per-kind
// median kernel times (the paper: base median 136 ms vs CA 153 ms, yet CA
// finishes faster thanks to higher CPU occupancy).
func Fig10(p Params, ganttWidth int) (*Report, []Fig10Result, error) {
	r := &Report{
		ID:    "fig10",
		Title: "One-node execution trace, base vs CA (tuned ratio 0.4)",
		Paper: "Fig. 10: CA keeps cores busier during exchanges; CA kernels take longer (extra copies) but the run is faster",
	}
	if len(p.Workloads) == 0 || len(p.Nodes) == 0 {
		return r, nil, nil
	}
	w := p.Workloads[0] // the paper profiles NaCL
	nodes := p.Nodes[0]
	for _, n := range p.Nodes {
		if n == 16 {
			nodes = 16
		}
	}
	pg, _, err := grid.SquareGrid(nodes)
	if err != nil {
		return nil, nil, err
	}
	// Trace an interior node of the process grid (it has boundary tiles on
	// all four sides).
	traceNode := int32((pg/2)*pg + pg/2)
	var results []Fig10Result
	t := Table{
		Title:   fmt.Sprintf("%s, %d nodes, ratio 0.4, node %d, %d compute threads", w.Machine.Name, nodes, traceNode, w.Machine.ComputeCores()),
		Columns: []string{"Variant", "GFLOP/s", "Occupancy", "CommThread", "Tasks", "Median boundary", "Median interior"},
	}
	for _, v := range []core.Variant{core.Base, core.CA} {
		tr := trace.New()
		cfg := core.Config{N: w.N, TileRows: w.Tile, P: pg, Steps: p.Steps, StepSize: p.StepSize}
		res, err := core.Simulate(v, cfg, core.SimOptions{
			Machine: w.Machine, Ratio: 0.4, Trace: tr, TraceNode: traceNode,
		})
		if err != nil {
			return nil, nil, err
		}
		events := tr.Node(traceNode)
		// Drop zero-cost init events from the occupancy statistics.
		var exec []trace.Event
		for _, e := range events {
			if e.Duration() > 0 {
				exec = append(exec, e)
			}
		}
		st := trace.Summarize(exec, w.Machine.ComputeCores())
		gantt := trace.Gantt(exec, w.Machine.ComputeCores(), trace.GanttConfig{Width: ganttWidth})
		results = append(results, Fig10Result{
			Variant: v, Trace: tr, Stats: st, GFLOPS: res.GFLOPS, Gantt: gantt, TraceNode: traceNode,
		})
		commOcc := float64(res.CommBusy[traceNode]) / float64(res.Makespan)
		t.AddRow(v.String(), f1(res.GFLOPS), fmt.Sprintf("%.0f%%", 100*st.Occupancy),
			fmt.Sprintf("%.0f%%", 100*commOcc),
			itoa(st.Tasks), st.MedianByKind["boundary"].Round(time.Microsecond).String(),
			st.MedianByKind["interior"].Round(time.Microsecond).String())
	}
	r.Tables = append(r.Tables, t)
	return r, results, nil
}

// Roofline regenerates the section-V analysis: arithmetic intensity band
// and expected effective peak per machine.
func Roofline(p Params) *Report {
	r := &Report{
		ID:    "roofline",
		Title: "Roofline bounds (section V)",
		Paper: "AI 0.37-0.56 => 14.5-21.9 GFLOP/s (NaCL) and 63.8-96.6 GFLOP/s (Stampede2)",
	}
	t := Table{Columns: []string{"Machine", "BW GB/s", "AI min", "AI max", "Peak min GF", "Peak max GF"}}
	for _, w := range p.Workloads {
		rf := memmodel.RooflineFor(w.Machine)
		t.AddRow(rf.Machine, f1(rf.BandwidthBs/1e9), f2(rf.AIMin), f2(rf.AIMax), f1(rf.PeakMinGF), f1(rf.PeakMaxGF))
	}
	r.Tables = append(r.Tables, t)
	return r
}

// Headline checks the paper's two headline claims: ~2x over PETSc, and the
// best CA-over-base improvement on each machine.
func Headline(p Params) (*Report, error) {
	r := &Report{
		ID:    "headline",
		Title: "Headline claims",
		Paper: "2x speedup over PETSc; CA up to +57% (NaCL) and +33% (Stampede2) over base",
	}
	t := Table{Columns: []string{"Machine", "PaRSEC/PETSc (1 node)", "Best CA gain", "at nodes/ratio"}}
	for _, w := range p.Workloads {
		b1, err := core.Simulate(core.Base, core.Config{N: w.N, TileRows: w.Tile, P: 1, Steps: p.Steps},
			core.SimOptions{Machine: w.Machine})
		if err != nil {
			return nil, err
		}
		pp, err := petsc.ModelPerf(w.Machine, w.N, 1, p.Steps)
		if err != nil {
			return nil, err
		}
		best, bestAt := 0.0, ""
		for _, nodes := range p.Nodes {
			pg, _, err := grid.SquareGrid(nodes)
			if err != nil {
				return nil, err
			}
			cfg := core.Config{N: w.N, TileRows: w.Tile, P: pg, Steps: p.Steps, StepSize: p.StepSize}
			for _, ratio := range p.Ratios {
				rb, err := core.Simulate(core.Base, cfg, core.SimOptions{Machine: w.Machine, Ratio: ratio})
				if err != nil {
					return nil, err
				}
				rc, err := core.Simulate(core.CA, cfg, core.SimOptions{Machine: w.Machine, Ratio: ratio})
				if err != nil {
					return nil, err
				}
				if g := rc.GFLOPS / rb.GFLOPS; g > best {
					best = g
					bestAt = fmt.Sprintf("%d/%.1f", nodes, ratio)
				}
			}
		}
		t.AddRow(w.Machine.Name, f2(b1.GFLOPS/pp.GFLOPS), pct(best), bestAt)
	}
	r.Tables = append(r.Tables, t)
	return r, nil
}
