// Benchmarks regenerating every table and figure of the paper (one
// benchmark per exhibit, backed by internal/bench) plus microbenchmarks of
// the core computational pieces.
//
// By default the figure benchmarks run the quarter-scale QuickParams
// workloads so `go test -bench=.` completes in minutes; set
// CASTENCIL_BENCH=paper to run the full paper-scale configuration.
package castencil_test

import (
	"io"
	"os"
	"testing"

	"castencil/internal/bench"
	"castencil/internal/core"
	"castencil/internal/desim"
	"castencil/internal/grid"
	"castencil/internal/machine"
	"castencil/internal/netsim"
	"castencil/internal/petsc"
	"castencil/internal/runtime"
	"castencil/internal/stencil"
)

func benchParams() bench.Params {
	if os.Getenv("CASTENCIL_BENCH") == "paper" {
		return bench.PaperParams()
	}
	return bench.QuickParams()
}

// report discards or prints a report depending on verbosity.
func report(b *testing.B, r *bench.Report) {
	b.Helper()
	if testing.Verbose() {
		r.WriteText(os.Stdout)
	} else {
		r.WriteText(io.Discard)
	}
}

func BenchmarkTableI_Stream(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		report(b, bench.TableI(p, false))
	}
}

func BenchmarkFig5_NetPIPE(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		report(b, bench.Fig5(p))
	}
}

func BenchmarkFig6_TileSize(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig6(p)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
	}
}

func BenchmarkFig7_StrongScaling(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig7(p)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
	}
}

func BenchmarkFig8_KernelRatio(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig8(p)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
	}
}

func BenchmarkFig9_StepSize(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig9(p)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
	}
}

func BenchmarkFig10_Trace(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		r, _, err := bench.Fig10(p, 80)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
	}
}

func BenchmarkRoofline(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		report(b, bench.Roofline(p))
	}
}

func BenchmarkHeadline(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		r, err := bench.Headline(p)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
	}
}

func BenchmarkExtFuture_Exascale(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		r, err := bench.Future(p)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
	}
}

func BenchmarkExtNinePoint_AI(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		r, err := bench.NinePoint(p)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
	}
}

func BenchmarkExtAutoPlan(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		r, err := bench.AutoPlanReport(p)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
	}
}

func BenchmarkExtWeakScaling(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		r, err := bench.WeakScaling(p)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
	}
}

// --- Microbenchmarks of the computational substrates ---

// BenchmarkKernel5Point measures the five-point Jacobi kernel on the NaCL
// tuning tile (288x288). Reported bytes/op via SetBytes gives the streaming
// rate the memory model calibrates against.
func BenchmarkKernel5Point(b *testing.B) {
	src := grid.NewTile(288, 288, 1)
	dst := grid.NewTile(288, 288, 1)
	w := stencil.Jacobi()
	b.SetBytes(288 * 288 * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stencil.Step(w, dst, src)
		dst, src = src, dst
	}
}

func BenchmarkKernel9Point(b *testing.B) {
	src := grid.NewTile(288, 288, 1)
	dst := grid.NewTile(288, 288, 1)
	w := stencil.Jacobi9()
	b.SetBytes(288 * 288 * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stencil.Apply9(w, dst, src, stencil.Interior(src))
		dst, src = src, dst
	}
}

func BenchmarkKernelVarCoeff(b *testing.B) {
	src := grid.NewTile(288, 288, 1)
	dst := grid.NewTile(288, 288, 1)
	cf := stencil.NewCoeff(288, 288)
	cf.Fill(func(int, int) stencil.Weights { return stencil.Jacobi() })
	b.SetBytes(288 * 288 * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stencil.ApplyVar(cf, dst, src)
		dst, src = src, dst
	}
}

// BenchmarkHaloPack measures edge pack+unpack of a 15-deep CA halo.
func BenchmarkHaloPack(b *testing.B) {
	t := grid.NewTile(288, 288, 15)
	buf := make([]float64, 0, 15*288)
	rect := t.EdgeRect(grid.East, 15)
	halo := t.HaloRect(grid.West, 15)
	b.SetBytes(int64(rect.Bytes()) * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = t.Pack(rect, buf)
		t.Unpack(halo, buf)
	}
}

// BenchmarkMatMult measures the PETSc-analog CSR SpMV on a 288x288 block,
// exposing the index-traffic cost the paper blames for the 2x gap.
func BenchmarkMatMult(b *testing.B) {
	n := 288
	op := petsc.Laplace5(n, stencil.Jacobi(), stencil.ConstBoundary(0), 0, n*n)
	x := make([]float64, n*n)
	y := make([]float64, n*n)
	for i := range x {
		x[i] = float64(i)
	}
	lookup := op.Lookup(func(c int64) float64 { return x[c] })
	b.SetBytes(int64(op.NNZ()) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		petsc.MatMult(&op.AIJ, lookup, y)
	}
}

// BenchmarkRuntimeTaskThroughput measures the real runtime's per-task
// scheduling overhead with trivial bodies.
func BenchmarkRuntimeTaskThroughput(b *testing.B) {
	g, err := core.BuildGraph(core.Base, core.Config{
		N: 240, TileRows: 24, P: 1, Steps: 20, WithBodies: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runtime.Run(g, runtime.Options{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDESEventThroughput measures the discrete-event engine on a
// 16-node CA graph (events per op reported via the task count).
func BenchmarkDESEventThroughput(b *testing.B) {
	m := machine.NaCL()
	g, err := core.BuildGraph(core.CA, core.Config{
		N: 5760, TileRows: 288, P: 4, Steps: 10, StepSize: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	cost := core.CostModel(m, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fabric := netsim.NewFabric(m.Net, 16)
		if _, err := desim.Run(g, desim.Options{Cores: 11, Cost: cost, Fabric: fabric}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphBuild measures task-graph construction, cost-only (what
// the simulator builds) and with bodies (what the real runtime builds).
func BenchmarkGraphBuild(b *testing.B) {
	for _, bodies := range []bool{false, true} {
		name := "cost-only"
		if bodies {
			name = "bodies"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.Config{N: 5760, TileRows: 288, P: 4, Steps: 10, StepSize: 5, WithBodies: bodies}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildGraph(core.CA, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPETScJacobiReal measures the distributed SpMV Jacobi analog.
func BenchmarkPETScJacobiReal(b *testing.B) {
	w := stencil.Jacobi()
	init := stencil.HashInit(1)
	bnd := stencil.ConstBoundary(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := petsc.RunJacobi(192, w, init, bnd, 8, 10); err != nil {
			b.Fatal(err)
		}
	}
}
