package castencil

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"

	"castencil/internal/core"
	"castencil/internal/grid"
)

// Spec is the one description of a run: the JSON submit body of stencild
// and stencilgate, and the target of stencilrun's flags. Each knob is
// declared once, with its JSON name and a role:
//
//   - role:"result" selects what is computed and what the terminal result
//     reports. Fingerprint hashes exactly these fields, in declaration
//     order.
//   - role:"exec" changes how a run executes, never its grid: the
//     determinism suites prove bitwise-equal grids across every value.
//   - role:"policy" is service policy, fault injection (masked by the
//     recovery layer) or the simulator's pricing; the grid never depends
//     on it either.
//
// Options resolves every string knob through its one canonical parser, so
// a job spec accepts exactly the spellings the command-line flags accept.
type Spec struct {
	// Engine selects the execution engine: "real" (Run, exact numerics;
	// the default) or "sim" (Sim, virtual time).
	Engine string `json:"engine,omitempty" role:"result"`
	// Variant is "base", "ca" or "wf" (default "ca"). Ignored when Plan
	// is "auto".
	Variant string `json:"variant,omitempty" role:"result"`
	// Plan, when "auto", runs the AutoPlan kernel-family planner against
	// the machine model first and executes the recommended configuration
	// (base, CA with the winning step size, or WF with the winning
	// wavefront width) — the paper's section-VII "transparent CA" as a
	// per-request decision.
	Plan string `json:"plan,omitempty" role:"result"`

	N     int `json:"n" role:"result"`
	Tile  int `json:"tile" role:"result"`
	Nodes int `json:"nodes,omitempty" role:"result"` // perfect square, default 1
	Steps int `json:"steps" role:"result"`
	// StepSize is the CA exchange period and Wavefront the WF block width
	// (0 = the Config defaults, 15 and 10).
	StepSize  int `json:"step_size,omitempty" role:"result"`
	Wavefront int `json:"wavefront,omitempty" role:"result"`
	// Seed selects the deterministic initial condition (HashInit); 0 means
	// the library default (seed 1). Two jobs with equal geometry and seed
	// produce bitwise-identical grids, whatever else runs concurrently.
	Seed uint64 `json:"seed,omitempty" role:"result"`

	// Workers is the per-node worker count of a real run; 0 leaves it to
	// the caller (stencild divides its worker budget across jobs).
	// Coalesce is the halo-bundle mode: off (default) or step.
	Workers  int    `json:"workers,omitempty" role:"exec"`
	Coalesce string `json:"coalesce,omitempty" role:"exec"`
	// Fault is a fault-injection spec (FaultSpecSyntax), real engine
	// only. Machine names the model a sim run prices against and
	// plan=auto plans on (default NaCL); Ratio is the kernel-adjustment
	// ratio of both (0 = 1).
	Fault   string  `json:"fault,omitempty" role:"policy"`
	Machine string  `json:"machine,omitempty" role:"policy"`
	Ratio   float64 `json:"ratio,omitempty" role:"policy"`

	// Ranks marks the run distributed across this many processes: at
	// least 2, at most the run's virtual nodes, real engine only. 0 (the
	// default) runs single-process.
	Ranks int `json:"ranks,omitempty" role:"exec"`
	// Steal selects the inter-node work-stealing mode of a distributed run
	// (StealNames); anything but off needs Ranks.
	Steal string `json:"steal,omitempty" role:"exec"`

	// Priority is the admission class: "high", "normal" (default) or
	// "low". TimeoutMS is the run deadline in milliseconds (0 = the
	// service default).
	Priority  string `json:"priority,omitempty" role:"policy"`
	TimeoutMS int64  `json:"timeout_ms,omitempty" role:"policy"`

	// Tenant names the submitting tenant for the fleet gateway's weighted
	// fair-share admission ("" is the default tenant). Cache is "" (the
	// result may be served from the gateway's cache) or "bypass" (force
	// re-execution).
	Tenant string `json:"tenant,omitempty" role:"policy"`
	Cache  string `json:"cache,omitempty" role:"policy"`
}

// CacheBypass is the spec "cache" spelling that forces re-execution at the
// fleet gateway (a daemon runs every admitted job regardless).
const CacheBypass = "bypass"

// Priority is a job's admission class: within a queue, all high jobs
// dispatch before any normal job, which dispatch before any low job; FIFO
// within a class.
type Priority int

// Priority classes, best first.
const (
	PriorityHigh Priority = iota
	PriorityNormal
	PriorityLow
)

func (p Priority) String() string {
	switch p {
	case PriorityHigh:
		return "high"
	case PriorityLow:
		return "low"
	default:
		return "normal"
	}
}

// Resolved is a Spec after every knob went through its canonical parser:
// the variant, Config and options Run and Sim take, plus what a service
// applies around the run.
type Resolved struct {
	// Engine is "real" or "sim".
	Engine  string
	Variant Variant
	Config  Config
	// Options configure either engine; each ignores the other's knobs.
	Options []Option
	// Machine is the model a sim run prices against and plan=auto plans
	// on.
	Machine *Machine
	// Steal is the work-stealing mode a distributed run's ClusterOptions
	// carry (with Machine as the gated mode's price model).
	Steal    StealMode
	Priority Priority
	Timeout  time.Duration

	auto  bool    // plan=auto: AutoPlan picks Variant and its parameter
	ratio float64 // AutoPlan's kernel ratio (1 = real kernel)
}

// canonical spells out the defaults of the result fields, so every spelling
// of the same job compares and hashes equal: engine "" or "run" -> "real",
// variant "" -> "ca", names lower-cased, nodes 0 -> 1, seed 0 -> 1.
func (s Spec) canonical() Spec {
	s.Engine = strings.ToLower(s.Engine)
	if s.Engine == "" || s.Engine == "run" {
		s.Engine = "real"
	}
	s.Variant = strings.ToLower(s.Variant)
	if s.Variant == "" {
		s.Variant = "ca"
	}
	s.Plan = strings.ToLower(s.Plan)
	if s.Nodes == 0 {
		s.Nodes = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Validate checks the spec exactly as Options resolves it, without keeping
// the result: stencilgate answers 400 at its own front door with it.
func (s Spec) Validate() error {
	_, err := s.Options()
	return err
}

// Options validates the spec and resolves it. Geometry goes through the
// core's own Config.Validate, so the feasibility rules of the CA step size
// and WF width (defaults included) hold at admission; plan=auto skips the
// variant-specific rules, as the planner only proposes feasible plans.
func (s Spec) Options() (*Resolved, error) {
	c := s.canonical()
	r := &Resolved{Engine: c.Engine, auto: c.Plan == "auto", ratio: s.Ratio}
	if r.ratio <= 0 {
		r.ratio = 1
	}
	if c.Engine != "real" && c.Engine != "sim" {
		return nil, fmt.Errorf("castencil: unknown engine %q (real, sim)", s.Engine)
	}
	if c.Plan != "" && !r.auto {
		return nil, fmt.Errorf("castencil: unknown plan %q (only \"auto\")", s.Plan)
	}
	var err error
	if r.Variant, err = core.ParseVariant(c.Variant); err != nil {
		return nil, err
	}
	p, _, err := grid.SquareGrid(c.Nodes)
	if err != nil {
		return nil, err
	}
	r.Config = Config{N: s.N, TileRows: s.Tile, P: p, Steps: s.Steps, StepSize: s.StepSize, Wavefront: s.Wavefront}
	if s.Seed != 0 {
		r.Config.Init = HashInit(s.Seed)
	}
	v := r.Variant
	if r.auto {
		v = Base
	}
	if _, err := r.Config.Validate(v); err != nil {
		return nil, fmt.Errorf("castencil: spec rejected: %w", err)
	}
	if r.Machine, err = MachineByName(cmp.Or(s.Machine, "NaCL")); err != nil {
		return nil, err
	}
	r.Options = []Option{WithMachine(r.Machine), WithRatio(s.Ratio)}
	if s.Workers < 0 {
		return nil, fmt.Errorf("castencil: workers must be >= 0, got %d", s.Workers)
	}
	if s.Workers > 0 {
		r.Options = append(r.Options, WithWorkers(s.Workers))
	}
	mode, err := ParseCoalesce(s.Coalesce)
	if err != nil {
		return nil, err
	}
	plan, err := ParseFaultPlan(s.Fault)
	if err != nil {
		return nil, err
	}
	if plan != nil && c.Engine == "sim" {
		return nil, fmt.Errorf("castencil: fault=%q needs the real engine; the simulator models a lossless wire", s.Fault)
	}
	r.Options = append(r.Options, WithCoalesce(mode), WithFaultPlan(plan))
	if err := s.checkRanks(c.Engine, c.Nodes); err != nil {
		return nil, err
	}
	if r.Steal, err = ParseSteal(s.Steal); err != nil {
		return nil, err
	}
	if r.Steal != StealOff && s.Ranks == 0 {
		return nil, fmt.Errorf("castencil: steal=%q needs a distributed run (ranks >= 2)", s.Steal)
	}
	if r.Priority, err = parsePriority(s.Priority); err != nil {
		return nil, err
	}
	if s.TimeoutMS < 0 {
		return nil, fmt.Errorf("castencil: timeout_ms must be >= 0, got %d", s.TimeoutMS)
	}
	r.Timeout = time.Duration(s.TimeoutMS) * time.Millisecond
	if c := strings.ToLower(s.Cache); c != "" && c != "default" && c != CacheBypass {
		return nil, fmt.Errorf("castencil: unknown cache mode %q (\"\" or %q)", s.Cache, CacheBypass)
	}
	if len(s.Tenant) > 128 {
		return nil, fmt.Errorf("castencil: tenant name exceeds 128 bytes")
	}
	return r, nil
}

// checkRanks applies the distributed-run rules to the canonical engine and
// node count.
func (s Spec) checkRanks(engine string, nodes int) error {
	switch {
	case s.Ranks == 0:
		return nil
	case s.Ranks < 2:
		return fmt.Errorf("castencil: a distributed run needs ranks >= 2, got %d", s.Ranks)
	case engine != "real":
		return fmt.Errorf("castencil: distributed runs (ranks=%d) need the real engine, not %q", s.Ranks, engine)
	case s.Ranks > nodes:
		return fmt.Errorf("castencil: ranks=%d exceeds the run's %d virtual nodes", s.Ranks, nodes)
	}
	return nil
}

// parsePriority maps a spec spelling to an admission class ("" = normal).
func parsePriority(name string) (Priority, error) {
	if name == "" {
		return PriorityNormal, nil
	}
	for _, p := range []Priority{PriorityHigh, PriorityNormal, PriorityLow} {
		if strings.EqualFold(name, p.String()) {
			return p, nil
		}
	}
	return PriorityNormal, fmt.Errorf("castencil: unknown priority %q (high, normal, low)", name)
}

// AutoPlan runs the planner for a plan=auto spec and applies its decision
// to Variant and Config; other specs get a nil plan. The planner is a
// deterministic function of the spec, so every rank of a distributed run
// resolves the same configuration.
func (r *Resolved) AutoPlan() (*Plan, error) {
	if !r.auto {
		return nil, nil
	}
	plan, err := AutoPlan(r.Config, r.Machine, r.ratio, nil)
	if err != nil {
		return nil, err
	}
	r.Variant, r.Config = plan.Apply(r.Config)
	return plan, nil
}

type specField struct {
	index int
	name  string
}

// resultFields are the indices and JSON names of the result-role fields,
// in declaration order.
var resultFields = func() (fs []specField) {
	t := reflect.TypeOf(Spec{})
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Tag.Get("role") == "result" {
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			fs = append(fs, specField{i, name})
		}
	}
	return fs
}()

// Fingerprint is the canonical content address of a spec's result: a
// sha256 over the result-role fields of the canonical spec, so every
// spelling of the same job hashes identically. It is the key of the fleet
// gateway's result cache and of its sharded routing. Jobs whose reported
// result still depends on a non-result field (sim makespans, plan=auto
// under a non-default model, injected-fault counters) are marked not
// cache-safe by CacheSafe instead of widening the key.
func (s Spec) Fingerprint() string {
	c := s.canonical()
	v := reflect.ValueOf(&c).Elem()
	b := append(make([]byte, 0, 160), "castencil-spec-v1"...)
	for _, f := range resultFields {
		b = append(append(append(b, '|'), f.name...), '=')
		switch fv := v.Field(f.index); fv.Kind() {
		case reflect.String:
			b = append(b, fv.String()...)
		case reflect.Uint64:
			b = strconv.AppendUint(b, fv.Uint(), 10)
		default:
			b = strconv.AppendInt(b, fv.Int(), 10)
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// CacheSafe reports whether Fingerprint fully determines the terminal
// result this spec would report, i.e. whether a cached result may be served
// in place of re-execution. The grid is always a pure function of the
// fingerprint; what disqualifies a spec is a reported payload that depends
// on other fields:
//
//   - sim jobs: the makespan/GFLOPS depend on machine and ratio;
//   - plan=auto with a non-default machine or ratio: the planner's family
//     decision (and hence the reported counters) depends on the model;
//   - fault injection: the grid is provably identical but the retransmit
//     counters are the experiment, so a faulted run must execute;
//   - distributed jobs (ranks > 0): they must reach rank 0 of a live mesh;
//   - cache "bypass": the client asked for re-execution.
func (s Spec) CacheSafe() bool {
	c := s.canonical()
	if c.Engine != "real" || strings.ToLower(s.Cache) == CacheBypass || s.Ranks > 0 {
		return false
	}
	if plan, err := ParseFaultPlan(s.Fault); err != nil || plan != nil {
		return false
	}
	return !(c.Plan == "auto" && (s.Machine != "" || s.Ratio > 0))
}
