package core

import (
	"fmt"
	"sort"

	"castencil/internal/machine"
)

// PlanResult reports one candidate evaluated by AutoPlan. Family selects the
// kernel family; StepSize is the CA exchange period (0 outside the CA
// family, preserving the pre-three-way meaning "0 = not CA"); Width is the
// WF wavefront width (0 outside the WF family).
type PlanResult struct {
	StepSize int
	GFLOPS   float64
	Family   Variant
	Width    int
}

// param returns the candidate's family parameter: the CA step size, the WF
// width, or 0 for base. Used for deterministic tie-breaking.
func (c PlanResult) param() int {
	switch c.Family {
	case CA:
		return c.StepSize
	case WF:
		return c.Width
	}
	return 0
}

// String renders the candidate the way the CLI tables print it.
func (c PlanResult) String() string {
	switch c.Family {
	case CA:
		return fmt.Sprintf("CA s=%d", c.StepSize)
	case WF:
		return fmt.Sprintf("WF w=%d", c.Width)
	}
	return "base"
}

// Plan is AutoPlan's outcome.
type Plan struct {
	// Candidates lists every evaluated configuration, best first:
	// Candidates[0] is the recommendation.
	Candidates []PlanResult
}

// Apply returns the recommended variant and cfg with the winning family's
// parameter (CA step size or WF width) set.
func (p *Plan) Apply(cfg Config) (Variant, Config) {
	best := p.Candidates[0]
	switch best.Family {
	case CA:
		cfg.StepSize = best.StepSize
	case WF:
		cfg.Wavefront = best.Width
	}
	return best.Family, cfg
}

// DefaultPlanCandidates is the parameter candidate set AutoPlan probes when
// none is supplied (the paper's Fig. 9 sweep plus intermediate points); each
// value is tried both as a CA step size and as a WF width.
var DefaultPlanCandidates = []int{2, 5, 10, 15, 20, 25, 40}

// sortPlanCandidates orders candidates best-first, deterministically: higher
// GFLOPS first; among ties, the smaller family parameter wins (base, with
// parameter 0, beats any tied temporal-blocking configuration — prefer the
// simpler plan when the model sees no difference); among parameter ties, the
// lower-numbered family (Base < CA < WF). The sort is stable, so equal keys
// keep probe order.
func sortPlanCandidates(cands []PlanResult) {
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.GFLOPS != b.GFLOPS {
			return a.GFLOPS > b.GFLOPS
		}
		if a.param() != b.param() {
			return a.param() < b.param()
		}
		return a.Family < b.Family
	})
}

// AutoPlan implements the paper's section-VII future-work item — making the
// communication-avoiding transformation transparent to the user — at the
// planning level: it probes the machine model with the virtual-time engine
// across three kernel families — base, CA at each candidate step size, and
// wavefront at each candidate width — and returns the best configuration for
// the given problem. Candidates exceeding the smallest tile dimension are
// skipped; ratio carries the kernel-adjustment knob (1 = real kernel).
func AutoPlan(cfg Config, m *machine.Model, ratio float64, candidates []int) (*Plan, error) {
	if m == nil {
		return nil, fmt.Errorf("core: AutoPlan needs a machine model")
	}
	if len(candidates) == 0 {
		candidates = DefaultPlanCandidates
	}
	base, err := Simulate(Base, cfg, SimOptions{Machine: m, Ratio: ratio})
	if err != nil {
		return nil, err
	}
	plan := &Plan{Candidates: []PlanResult{{Family: Base, GFLOPS: base.GFLOPS}}}
	for _, s := range candidates {
		if s < 1 {
			continue
		}
		c := cfg
		c.StepSize = s
		if _, err := c.Validate(CA); err == nil {
			res, err := Simulate(CA, c, SimOptions{Machine: m, Ratio: ratio})
			if err != nil {
				return nil, err
			}
			plan.Candidates = append(plan.Candidates,
				PlanResult{Family: CA, StepSize: s, GFLOPS: res.GFLOPS})
		}
		c = cfg
		c.Wavefront = s
		if _, err := c.Validate(WF); err == nil {
			res, err := Simulate(WF, c, SimOptions{Machine: m, Ratio: ratio})
			if err != nil {
				return nil, err
			}
			plan.Candidates = append(plan.Candidates,
				PlanResult{Family: WF, Width: s, GFLOPS: res.GFLOPS})
		}
	}
	sortPlanCandidates(plan.Candidates)
	return plan, nil
}
