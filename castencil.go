// Package castencil reproduces "Communication Avoiding 2D Stencil
// Implementations over PaRSEC Task-Based Runtime" (Pei et al., IPDPSW 2020)
// as a self-contained Go library: a PaRSEC-analog dataflow task runtime over
// simulated distributed-memory nodes, the base and communication-avoiding
// (PA1) five-point Jacobi stencils expressed as task graphs, a PETSc-analog
// SpMV baseline, calibrated machine models of the paper's two clusters, and
// a discrete-event engine that regenerates every table and figure of the
// paper's evaluation.
//
// This file is the public facade: it re-exports the pieces an application
// needs. Two execution engines are available for every stencil variant,
// both driven by the same functional options (see options.go):
//
//   - Run executes the task graph concurrently and exactly — the result
//     is bitwise identical to a sequential Jacobi sweep, whatever the
//     decomposition, variant, step size or (masked) fault injection;
//   - Sim replays the same graph in virtual time against a machine
//     model and predicts performance (GFLOP/s, messages, occupancy).
//
// Quick start:
//
//	cfg := castencil.Config{N: 2880, TileRows: 288, P: 2, Steps: 100, StepSize: 15}
//	res, err := castencil.Sim(castencil.CA, cfg, castencil.WithMachine(castencil.NaCL()))
//
// Real execution with four workers per node, coalesced halo lanes and an
// injected fault schedule masked by the reliable transport:
//
//	plan, _ := castencil.ParseFaultPlan("drop=0.01,dup=0.01,seed=7")
//	out, err := castencil.Run(castencil.CA, cfg,
//	    castencil.WithWorkers(4),
//	    castencil.WithCoalesce(castencil.CoalesceStep),
//	    castencil.WithFaultPlan(plan))
package castencil

import (
	"math"

	"castencil/internal/core"
	"castencil/internal/dtd"
	"castencil/internal/grid"
	"castencil/internal/machine"
	"castencil/internal/membench"
	"castencil/internal/memmodel"
	"castencil/internal/petsc"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
	"castencil/internal/stencil"
	"castencil/internal/trace"
)

// Variant selects a stencil implementation: Base (halo exchange every
// iteration), CA (the PA1 communication-avoiding scheme) or WF (wavefront
// temporal blocking: one fused task advances a tile w steps on a w-deep
// ghost region, and every tile exchanges only once per w steps).
type Variant = core.Variant

// Stencil variants.
const (
	Base = core.Base
	CA   = core.CA
	WF   = core.WF
)

// Config describes a stencil problem and its decomposition; see
// internal/core for field documentation.
type Config = core.Config

// SimResult reports a simulated run.
type SimResult = core.SimResult

// RealResult is the outcome of a real execution.
type RealResult = core.RealResult

// ExecOptions configures RunGraph's runtime (workers per node, tracing,
// fault injection, message interception). Run takes the functional Option
// list instead.
type ExecOptions = runtime.Options

// CoalesceMode selects halo-bundle coalescing: all cross-node payloads one
// node produces in one epoch toward one neighbor travel as a single wire
// message. Coalescing never changes numerics — results stay bitwise
// identical to the sequential oracle.
type CoalesceMode = ptg.CoalesceMode

// Coalescing modes: off (point-to-point delivery, the default) and step
// (the run fails when the graph does not admit a deadlock-free bundle
// plan).
const (
	CoalesceOff  = ptg.CoalesceOff
	CoalesceStep = ptg.CoalesceStep
)

// ParseCoalesce maps a command-line coalescing mode name to a CoalesceMode.
func ParseCoalesce(name string) (CoalesceMode, error) { return ptg.ParseCoalesce(name) }

// Machine is a calibrated cluster model.
type Machine = machine.Model

// Weights are the five stencil coefficients of the paper's equation (1).
type Weights = stencil.Weights

// Boundary is a Dirichlet boundary condition; Init an initial condition.
type (
	Boundary = stencil.Boundary
	Init     = stencil.Init
)

// Trace collects per-task execution events (real or virtual time).
type Trace = trace.Trace

// Tile is a 2D block with a ghost region; RealResult.Grid is one.
type Tile = grid.Tile

// NaCL returns the model of the paper's 64-node Westmere/InfiniBand
// cluster.
func NaCL() *Machine { return machine.NaCL() }

// Stampede2 returns the model of the TACC Stampede2 Skylake/Omni-Path
// system.
func Stampede2() *Machine { return machine.Stampede2() }

// MachineByName resolves "NaCL" or "Stampede2".
func MachineByName(name string) (*Machine, error) { return machine.ByName(name) }

// CalibrateHostMachine measures the local host with STREAM and builds a
// machine model from it (network and kernel constants borrowed from the
// template).
func CalibrateHostMachine(template *Machine) *Machine {
	return membench.CalibrateHost(template, membench.DefaultConfig())
}

// JacobiWeights returns the classic Laplace Jacobi weights (neighbor
// average).
func JacobiWeights() Weights { return stencil.Jacobi() }

// HeatWeights returns explicit heat-equation weights, stable for
// alpha <= 0.25.
func HeatWeights(alpha float64) Weights { return stencil.Heat(alpha) }

// ConstBoundary returns a constant Dirichlet boundary.
func ConstBoundary(v float64) Boundary { return stencil.ConstBoundary(v) }

// HashInit returns a deterministic pseudo-random initial condition.
func HashInit(seed uint64) Init { return stencil.HashInit(seed) }

// NewTrace returns an empty trace collector.
func NewTrace() *Trace { return trace.New() }

// Verify runs the sequential reference for the configuration (five- or
// nine-point, matching cfg) and returns the max-norm difference from a real
// run's result (0 means bitwise identical, which this library guarantees).
func Verify(cfg Config, res *RealResult) float64 {
	w := cfg.Weights
	if w == (Weights{}) {
		w = stencil.Jacobi()
	}
	init := cfg.Init
	if init == nil {
		init = stencil.HashInit(1)
	}
	bnd := cfg.Boundary
	if bnd == nil {
		bnd = stencil.ConstBoundary(0)
	}
	if cfg.NinePoint {
		w9 := cfg.Weights9
		if w9 == (stencil.Weights9{}) {
			w9 = stencil.Jacobi9()
		}
		ref := stencil.NewReference9(cfg.N, w9, init, bnd)
		ref.Run(cfg.Steps)
		max := 0.0
		for r := 0; r < cfg.N; r++ {
			for c := 0; c < cfg.N; c++ {
				if d := math.Abs(ref.At(r, c) - res.Grid.At(r, c)); d > max {
					max = d
				}
			}
		}
		return max
	}
	ref := stencil.NewReference(cfg.N, w, init, bnd)
	ref.Run(cfg.Steps)
	return ref.MaxAbsDiff(res.Grid.At)
}

// FlopsPerPoint is the paper's flop accounting: 9 flops per grid-point
// update (5 multiplications + 4 additions).
const FlopsPerPoint = memmodel.FlopsPerUpdate

// GanttText renders one node's trace events as a text Gantt chart of the
// given width.
func GanttText(t *Trace, node int32, cores, width int) string {
	return trace.Gantt(t.Node(node), cores, trace.GanttConfig{Width: width})
}

// PETScPerf is the modeled performance of the paper's PETSc baseline (SpMV
// Jacobi, one rank per core, 1D row blocks) on a machine.
type PETScPerf = petsc.Perf

// SimulatePETSc prices the PETSc SpMV formulation of the same problem on a
// machine model (the paper's baseline in Figure 7).
func SimulatePETSc(m *Machine, n, nodes, iters int) (*PETScPerf, error) {
	return petsc.ModelPerf(m, n, nodes, iters)
}

// RunPETScReal executes the PETSc-analog distributed SpMV Jacobi for real
// (goroutine ranks, channel VecScatter) and returns the flattened solution;
// like the stencil variants it is bitwise identical to the oracle.
func RunPETScReal(n int, w Weights, init Init, bnd Boundary, ranks, iters int) ([]float64, error) {
	res, err := petsc.RunJacobi(n, w, init, bnd, ranks, iters)
	if err != nil {
		return nil, err
	}
	return res.X, nil
}

// Plan is the outcome of the automatic kernel-family planner; PlanResult is
// one evaluated candidate. Plan.Candidates[0] is the winner (Base, CA or
// WF); Plan.Apply(cfg) returns that variant and cfg with its parameter set.
type (
	Plan       = core.Plan
	PlanResult = core.PlanResult
)

// AutoPlan probes the machine model across three kernel families — base, CA
// at each candidate step size, and wavefront temporal blocking at each
// candidate width — and recommends the best configuration for the problem:
// the paper's section-VII vision of making the communication-avoiding
// transformation transparent to users. A nil candidate list uses
// DefaultPlanCandidates; ratio is the kernel-adjustment knob (1 = real
// kernel). Ties break deterministically toward the simpler plan (smaller
// parameter, lower-numbered family).
func AutoPlan(cfg Config, m *Machine, ratio float64, candidates []int) (*Plan, error) {
	return core.AutoPlan(cfg, m, ratio, candidates)
}

// DefaultPlanCandidates is AutoPlan's default parameter probe set; each
// value is tried both as a CA step size and as a WF width.
var DefaultPlanCandidates = core.DefaultPlanCandidates

// --- DTD front-end (PaRSEC's Dynamic Task Discovery analog, §III-B) ---

// DTD is the dynamic-task-discovery inserter: tasks are inserted
// sequentially with declared data accesses and every dependency (including
// inter-node transfers) is inferred automatically.
type DTD = dtd.Inserter

// DTDCtx is the execution context handed to DTD task bodies.
type DTDCtx = dtd.Ctx

// DTDAccess declares how a DTD task touches a key.
type DTDAccess = dtd.Access

// DTD access constructors: read, write, read-modify-write.
var (
	ReadAccess      = dtd.R
	WriteAccess     = dtd.W
	ReadWriteAccess = dtd.RW
)

// NewDTD creates a DTD inserter over the given number of virtual nodes.
// Build the graph with Graph() and execute it with RunGraph.
func NewDTD(nodes int) *DTD { return dtd.New(nodes) }

// RunGraph executes any task graph (e.g. one built with NewDTD) on the
// concurrent runtime.
func RunGraph(g *TaskGraph, opts ExecOptions) (*ExecResult, error) {
	return runtime.Run(g, opts)
}

// TaskGraph and ExecResult expose the graph/runtime types the DTD API
// needs.
type (
	TaskGraph  = ptg.Graph
	ExecResult = runtime.Result
)

// --- Direct kernel access (for building custom solvers, e.g. multigrid) ---

// NewGridTile allocates a rows x cols tile with the given ghost depth.
func NewGridTile(rows, cols, halo int) *Tile { return grid.NewTile(rows, cols, halo) }

// ApplyStencil performs one five-point sweep of the tile interior from src
// into dst (src needs ghost depth >= 1).
func ApplyStencil(w Weights, dst, src *Tile) { stencil.Step(w, dst, src) }
