package core

import (
	"testing"

	"castencil/internal/machine"
)

// machineForTest returns the NaCL model (shared by several test files).
func machineForTest() *machine.Model { return machine.NaCL() }

func TestAutoPlanPrefersBaseWithRealKernel(t *testing.T) {
	// With the original kernel the workload is compute-bound: base and CA
	// tie, and the planner must not hallucinate a big CA win. (The WF
	// family may still post a modest modeled win here — it eliminates
	// per-task and per-message overhead, which CA does not — so the
	// assertion is scoped to the CA candidates.)
	cfg := Config{N: 2880, TileRows: 288, P: 2, Steps: 6}
	plan, err := AutoPlan(cfg, machineForTest(), 1, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	base, bestCA := 0.0, 0.0
	for _, c := range plan.Candidates {
		switch c.Family {
		case Base:
			base = c.GFLOPS
		case CA:
			if c.GFLOPS > bestCA {
				bestCA = c.GFLOPS
			}
		}
	}
	if bestCA > base*1.1 {
		t.Errorf("planner claims %+.0f%% CA win at ratio 1; base %v best CA %v",
			100*(bestCA/base-1), base, bestCA)
	}
}

func TestAutoPlanPicksCAWhenCommBound(t *testing.T) {
	// At ratio 0.2 on 16 nodes the base version is communication-bound:
	// the planner must recommend a temporal-blocking family, and every CA
	// candidate must beat base (WF may rank above CA — it avoids even more
	// per-message overhead).
	cfg := Config{N: 5760, TileRows: 288, P: 4, Steps: 10}
	plan, err := AutoPlan(cfg, machineForTest(), 0.2, []int{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Candidates[0].Family == Base {
		t.Errorf("planner should pick temporal blocking when comm-bound: %+v", plan.Candidates)
	}
	base := 0.0
	for _, c := range plan.Candidates {
		if c.Family == Base {
			base = c.GFLOPS
		}
	}
	for _, c := range plan.Candidates {
		if c.Family == CA && c.GFLOPS <= base {
			t.Errorf("CA candidate %v (%.1f GF) does not beat base (%.1f GF)", c, c.GFLOPS, base)
		}
	}
	// Candidates are sorted best-first.
	for i := 1; i < len(plan.Candidates); i++ {
		if plan.Candidates[i].GFLOPS > plan.Candidates[i-1].GFLOPS {
			t.Error("candidates not sorted")
		}
	}
}

func TestAutoPlanSkipsInfeasibleCandidates(t *testing.T) {
	cfg := Config{N: 16, TileRows: 4, P: 2, Steps: 6}
	plan, err := AutoPlan(cfg, machineForTest(), 0.5, []int{2, 4, 99})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range plan.Candidates {
		if c.StepSize > 4 || c.Width > 4 {
			t.Errorf("infeasible candidate %v evaluated", c)
		}
	}
	if len(plan.Candidates) != 5 { // base + CA s=2,4 + WF w=2,4
		t.Errorf("candidates = %+v", plan.Candidates)
	}
}

func TestAutoPlanValidation(t *testing.T) {
	if _, err := AutoPlan(Config{N: 16, TileRows: 4, P: 2, Steps: 2}, nil, 1, nil); err == nil {
		t.Error("nil machine must fail")
	}
	if _, err := AutoPlan(Config{N: 16, TileRows: 4, P: 2}, machineForTest(), 1, nil); err == nil {
		t.Error("invalid config must fail")
	}
}

func TestAutoPlanDefaultCandidates(t *testing.T) {
	cfg := Config{N: 2880, TileRows: 288, P: 2, Steps: 4}
	plan, err := AutoPlan(cfg, machineForTest(), 0.4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// base + all default candidates in both temporal-blocking families
	// (tile 288 admits them all).
	if len(plan.Candidates) != 2*len(DefaultPlanCandidates)+1 {
		t.Errorf("candidates = %d, want %d", len(plan.Candidates), 2*len(DefaultPlanCandidates)+1)
	}
}

// TestPlanCandidateOrdering pins the deterministic tie-break: the stable
// sort orders by GFLOPS first, then smaller family parameter, then
// lower-numbered family — so a tied sweep always renders the same table and
// the planner never flips its recommendation between runs.
func TestPlanCandidateOrdering(t *testing.T) {
	cands := []PlanResult{
		{Family: WF, Width: 5, GFLOPS: 10},
		{Family: CA, StepSize: 5, GFLOPS: 10},
		{Family: CA, StepSize: 2, GFLOPS: 10},
		{Family: Base, GFLOPS: 10},
		{Family: WF, Width: 3, GFLOPS: 12},
	}
	sortPlanCandidates(cands)
	want := []string{"WF w=3", "base", "CA s=2", "CA s=5", "WF w=5"}
	for i, c := range cands {
		if c.String() != want[i] {
			t.Fatalf("order[%d] = %v, want %v (full: %v)", i, c, want[i], cands)
		}
	}
}

// TestAutoPlanDeterministic runs the same plan twice and demands identical
// candidate tables — the observable guarantee the stable tie-break exists
// for.
func TestAutoPlanDeterministic(t *testing.T) {
	cfg := Config{N: 192, TileRows: 24, P: 2, Steps: 8}
	a, err := AutoPlan(cfg, machineForTest(), 0.4, []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AutoPlan(cfg, machineForTest(), 0.4, []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Candidates) != len(b.Candidates) {
		t.Fatalf("candidate counts differ: %d vs %d", len(a.Candidates), len(b.Candidates))
	}
	for i := range a.Candidates {
		if a.Candidates[i] != b.Candidates[i] {
			t.Errorf("candidate %d differs: %+v vs %+v", i, a.Candidates[i], b.Candidates[i])
		}
	}
}
