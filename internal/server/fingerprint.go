package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	castencil "castencil"
)

// Fingerprint is the canonical content address of a spec's result: a sha256
// over the result-affecting subset of the fields, with defaults normalized
// first so every spelling of the same job hashes identically. It is the key
// of the fleet gateway's content-addressed result cache and of its sharded
// routing, so the contract matters:
//
//   - Included (result-affecting): engine, variant, plan, n, tile, nodes,
//     steps, step_size, wavefront, seed. These select what is computed and
//     what the terminal result reports.
//   - Excluded (execution-affecting only): workers, sched, coalesce, steal,
//     transform, ranks — the determinism suites prove the grid is bitwise
//     identical across every value of these, so two specs differing only
//     here are the same result.
//   - Excluded (policy-only): tenant, cache, priority, timeout_ms, fault,
//     machine, ratio. Fault injection is fully masked by the recovery layer
//     (bitwise-equal grids); machine/ratio price simulations. Jobs
//     whose *reported* result still depends on one of these (sim makespans,
//     plan=auto decisions under a non-default model, injected-fault
//     counters) are marked not cache-safe by CacheSafe instead of widening
//     the key.
//
// Normalization pins the defaults the daemon would apply anyway: empty
// engine -> "real", empty variant -> "ca", nodes 0 -> 1, seed 0 -> 1 (the
// library default HashInit seed).
func (s Spec) Fingerprint() string {
	engine := strings.ToLower(s.Engine)
	if engine == "" || engine == "run" {
		engine = "real"
	}
	variant := strings.ToLower(s.Variant)
	if variant == "" {
		variant = "ca"
	}
	plan := strings.ToLower(s.Plan)
	nodes := s.Nodes
	if nodes == 0 {
		nodes = 1
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	h := sha256.New()
	fmt.Fprintf(h, "castencil-spec-v1|engine=%s|variant=%s|plan=%s|n=%d|tile=%d|nodes=%d|steps=%d|step_size=%d|wavefront=%d|seed=%d",
		engine, variant, plan, s.N, s.Tile, nodes, s.Steps, s.StepSize, s.Wavefront, seed)
	return hex.EncodeToString(h.Sum(nil))
}

// CacheSafe reports whether Fingerprint fully determines the terminal
// result this spec would report, i.e. whether a cached result may be served
// in place of re-execution. The grid itself is always a pure function of
// the fingerprint; what disqualifies a spec is a *reported* payload that
// depends on excluded fields:
//
//   - sim jobs: the makespan/GFLOPS depend on machine and ratio, which the
//     fingerprint excludes;
//   - plan=auto with a non-default machine or ratio: the planner's family
//     decision (and hence the reported counters) depends on the model;
//   - fault injection: the grid is provably identical but the retransmit
//     counters are the experiment, so a faulted run must execute;
//   - distributed jobs (ranks > 0): they must reach rank 0 of a live mesh;
//   - cache "bypass": the client asked for re-execution.
func (s Spec) CacheSafe() bool {
	engine := strings.ToLower(s.Engine)
	if engine != "" && engine != "real" && engine != "run" {
		return false
	}
	if strings.ToLower(s.Cache) == CacheBypass {
		return false
	}
	if s.Ranks > 0 {
		return false
	}
	if plan, err := castencil.ParseFaultPlan(s.Fault); err != nil || plan != nil {
		return false
	}
	if strings.ToLower(s.Plan) == "auto" && (s.Machine != "" || s.Ratio > 0) {
		return false
	}
	return true
}

// CacheBypass is the spec "cache" spelling that forces re-execution at the
// fleet gateway (the daemon itself runs every admitted job regardless).
const CacheBypass = "bypass"

// Validate checks a spec exactly the way admission would — every string
// knob through its canonical parser, geometry through Config.Partition —
// without queueing anything. The fleet gateway uses it to answer 400 at its
// own front door instead of shipping a doomed spec across the fleet.
func (s Spec) Validate() error {
	_, err := s.build()
	return err
}
