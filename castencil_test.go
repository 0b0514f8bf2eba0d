package castencil_test

import (
	"strings"
	"testing"

	castencil "castencil"
)

func TestFacadeRealRunAndVerify(t *testing.T) {
	cfg := castencil.Config{N: 24, TileRows: 6, P: 2, Steps: 8, StepSize: 3}
	res, err := castencil.Run(castencil.CA, cfg, castencil.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if d := castencil.Verify(cfg, res); d != 0 {
		t.Errorf("max diff from oracle = %v, want 0 (bitwise)", d)
	}
}

func TestFacadeSimulate(t *testing.T) {
	cfg := castencil.Config{N: 2880, TileRows: 288, P: 2, Steps: 5, StepSize: 5}
	for _, v := range []castencil.Variant{castencil.Base, castencil.CA} {
		res, err := castencil.Sim(v, cfg, castencil.WithMachine(castencil.NaCL()))
		if err != nil {
			t.Fatal(err)
		}
		if res.GFLOPS <= 0 || res.Makespan <= 0 {
			t.Errorf("%v: degenerate result %+v", v, res)
		}
		if res.Messages == 0 {
			t.Errorf("%v: multi-node run must communicate", v)
		}
	}
}

func TestFacadeMachines(t *testing.T) {
	if castencil.NaCL().ComputeCores() != 11 {
		t.Error("NaCL compute cores")
	}
	if castencil.Stampede2().CoresPerNode != 48 {
		t.Error("Stampede2 cores")
	}
	if _, err := castencil.MachineByName("NaCL"); err != nil {
		t.Error(err)
	}
}

func TestFacadeTraceAndGantt(t *testing.T) {
	tr := castencil.NewTrace()
	cfg := castencil.Config{N: 2880, TileRows: 288, P: 2, Steps: 4, StepSize: 2}
	_, err := castencil.Sim(castencil.CA, cfg, castencil.WithMachine(castencil.NaCL()),
		castencil.WithRatio(0.4), castencil.WithTrace(tr), castencil.WithTraceNode(0))
	if err != nil {
		t.Fatal(err)
	}
	out := castencil.GanttText(tr, 0, castencil.NaCL().ComputeCores(), 80)
	if !strings.Contains(out, "core") {
		t.Errorf("gantt output:\n%s", out)
	}
}

func TestFacadeWeightsHelpers(t *testing.T) {
	if castencil.JacobiWeights().N != 0.25 {
		t.Error("Jacobi weights")
	}
	if castencil.HeatWeights(0.1).C != 1-0.4 {
		t.Error("heat weights")
	}
	if castencil.ConstBoundary(3)(0, -1) != 3 {
		t.Error("const boundary")
	}
	if castencil.HashInit(1)(2, 3) != castencil.HashInit(1)(2, 3) {
		t.Error("hash init determinism")
	}
	if castencil.FlopsPerPoint != 9 {
		t.Error("flop accounting")
	}
}

func TestFacadeDTD(t *testing.T) {
	ins := castencil.NewDTD(2)
	ins.Seed("acc", 0, []float64{0})
	for i := 1; i <= 5; i++ {
		i := i
		ins.Insert("add", i%2, func(c castencil.DTDCtx) {
			v := c.Read("acc")
			c.Write("acc", []float64{v[0] + float64(i)})
		}, castencil.ReadWriteAccess("acc"))
	}
	g, err := ins.Graph()
	if err != nil {
		t.Fatal(err)
	}
	res, err := castencil.RunGraph(g, castencil.ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ins.Fetch(res.Stores, "acc")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 15 {
		t.Errorf("acc = %v, want 15", got[0])
	}
}

func TestFacadeAutoPlan(t *testing.T) {
	cfg := castencil.Config{N: 2880, TileRows: 288, P: 2, Steps: 4}
	plan, err := castencil.AutoPlan(cfg, castencil.NaCL(), 0.3, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Candidates) != 5 { // base + CA s=2,5 + WF w=2,5
		t.Errorf("candidates = %d", len(plan.Candidates))
	}
}

func TestFacadePETSc(t *testing.T) {
	perf, err := castencil.SimulatePETSc(castencil.NaCL(), 2304, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if perf.GFLOPS <= 0 {
		t.Error("petsc model degenerate")
	}
	x, err := castencil.RunPETScReal(8, castencil.JacobiWeights(), castencil.HashInit(1),
		castencil.ConstBoundary(0), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 64 {
		t.Errorf("solution length = %d", len(x))
	}
}

func TestFacadeKernelAccess(t *testing.T) {
	src := castencil.NewGridTile(4, 4, 1)
	dst := castencil.NewGridTile(4, 4, 1)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			src.Set(r, c, 2)
		}
	}
	castencil.ApplyStencil(castencil.JacobiWeights(), dst, src)
	if dst.At(1, 1) != 2 {
		t.Errorf("interior average = %v", dst.At(1, 1))
	}
}

func TestFacadeVerifyNinePoint(t *testing.T) {
	cfg := castencil.Config{N: 20, TileRows: 5, P: 2, Steps: 5, StepSize: 2, NinePoint: true}
	res, err := castencil.Run(castencil.CA, cfg, castencil.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if d := castencil.Verify(cfg, res); d != 0 {
		t.Errorf("9-point verify diff = %v, want 0", d)
	}
	// Cross-check: verifying against the WRONG (5-point) oracle must
	// report a nonzero difference, proving Verify picks the right one.
	wrong := cfg
	wrong.NinePoint = false
	if d := castencil.Verify(wrong, res); d == 0 {
		t.Error("5-point oracle should not match a 9-point run")
	}
}
