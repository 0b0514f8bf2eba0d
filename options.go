package castencil

import (
	"context"
	"fmt"

	"castencil/internal/core"
	"castencil/internal/fault"
	"castencil/internal/netcomm"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
)

// This file is the redesigned run API: one RunOptions bag configured by
// functional options, consumed by the Run (real execution) and Sim
// (virtual-time prediction) entry points.
//
//	res, err := castencil.Run(castencil.CA, cfg,
//	    castencil.WithWorkers(4),
//	    castencil.WithCoalesce(castencil.CoalesceAuto),
//	    castencil.WithFaultPlan(plan))

// FaultPlan is a deterministic, seedable fault-injection schedule: dropped,
// duplicated, delayed and reordered wire messages, transiently slow cores,
// comm-thread stalls and whole-node pauses. Message-level decisions are
// pure functions of (seed, message identity), so the real runtime and the
// virtual-time simulator inject byte-identical schedules for the same
// plan. Build one directly or parse a spec string with ParseFaultPlan.
type FaultPlan = fault.Plan

// FaultRecovery is the reliable-transport policy layered under a fault
// plan: ack timeout with exponential backoff, capped, and the degradation
// deadline past which an unacknowledged transfer fails the run with a
// structured *FaultReport instead of hanging.
type FaultRecovery = fault.Recovery

// FaultReport is the structured error a run returns when a transfer stays
// unacknowledged past the recovery deadline (extract it with errors.As).
type FaultReport = fault.Report

// FaultStats counts injected faults and the recovery work that masked
// them; available on both engines' results.
type FaultStats = fault.Stats

// Fault-plan building blocks for time-domain faults.
type (
	SlowCore  = fault.SlowCore
	CommStall = fault.CommStall
	NodePause = fault.NodePause
)

// FaultSpecSyntax documents the -fault spec grammar ParseFaultPlan
// accepts, for flag help.
const FaultSpecSyntax = fault.SpecSyntax

// ParseFaultPlan parses a command-line fault spec such as
// "drop=0.01,dup=0.02,seed=7" ("", "off" and "none" mean no plan).
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.ParsePlan(spec) }

// DefaultFaultRecovery returns the default reliable-transport policy —
// what a fault plan that drops, duplicates or pauses enables on its own
// when no explicit recovery is configured.
func DefaultFaultRecovery() *FaultRecovery { return fault.DefaultRecovery() }

// Interceptor wraps every inter-node message of a real run (testing hook;
// recovery traffic such as acks bypasses it).
type Interceptor = runtime.Interceptor

// RunOptions is the unified option bag for both execution engines. The
// zero value is a sensible default (one worker per node, FIFO injection
// queues, no coalescing, no faults). Construct it through
// functional options to Run and Sim rather than literally — new fields
// will be added without breaking that style.
type RunOptions struct {
	// Workers is the number of compute goroutines per virtual node in a
	// real run (default 1).
	Workers int
	// Policy orders the real runtime's injection queues. SimFIFO orders
	// the simulator's wait queue FIFO instead of its default priority
	// discipline (the simulator's scheduling is a separate, simpler
	// model).
	Policy  Policy
	SimFIFO bool
	// Coalesce selects halo-bundle coalescing on either engine.
	Coalesce CoalesceMode
	// Fault injects a deterministic fault schedule; Recovery overrides the
	// reliable-transport policy (nil auto-enables the default for plans
	// that drop, duplicate or pause).
	Fault    *FaultPlan
	Recovery *FaultRecovery
	// Trace collects per-task events (real or virtual time). TraceComm
	// additionally records wire events in a real run; TraceNode limits
	// collection to one node in a simulated run (-1 = all nodes).
	Trace     *Trace
	TraceComm bool
	TraceNode int32
	// Intercept wraps every inter-node message of a real run.
	Intercept Interceptor
	// Machine is the cluster model a simulated run prices against
	// (required by Sim, unused by Run).
	Machine *Machine
	// Ratio is the paper's kernel-adjustment ratio for simulated runs
	// (0 or 1 = full kernel).
	Ratio float64
	// Wavefront, when positive, overrides Config.Wavefront — the WF block
	// width — for either engine (ignored by the other variants).
	Wavefront int
	// Transform, when not TransformNone, overrides Config.Transform — the
	// graph-transformation pass applied before execution — for either
	// engine.
	Transform TransformMode
	// Rank and RankAddrs configure a true multi-process distributed real
	// run: RankAddrs is the full static member list (host:port per rank,
	// identical on every rank) and Rank is this process's index into it.
	// Run establishes the TCP mesh, executes this rank's slice of the
	// graph, and tears the mesh down. Only rank 0's RealResult carries the
	// gathered Grid (and the globally-summed counters); other ranks get a
	// nil Grid and their local counter view.
	Rank      int
	RankAddrs []string
	// Conduit reuses an already-established transport for a distributed
	// run instead of connecting per run (stencild keeps one mesh across
	// many jobs). Overrides RankAddrs.
	Conduit Conduit
	// Steal configures inter-node work stealing for a distributed run
	// (zero value = off). Requires a transport implementing steal frames
	// (the TCP conduit does). In Sim, forced migrations are mirrored in
	// virtual time; dynamic modes have no virtual-time analogue and are
	// ignored.
	Steal StealPolicy
	// Ctx bounds the run on either engine: a cancelled or deadline-exceeded
	// context stops workers and communication goroutines promptly (task
	// granularity) and the run returns a *CancelError wrapping the context
	// error. Nil means the run cannot be interrupted.
	Ctx context.Context
	// Progress, when non-nil, receives (completed, total) task counts as
	// the run advances on either engine. Called from engine goroutines; it
	// must be cheap and concurrency-safe.
	Progress func(done, total int64)
}

// Option mutates RunOptions; pass any number to Run or Sim.
type Option func(*RunOptions)

// WithWorkers sets the number of compute goroutines per virtual node in a
// real run.
func WithWorkers(n int) Option { return func(o *RunOptions) { o.Workers = n } }

// WithPolicy selects the injection-queue discipline (FIFO, LIFO,
// PriorityOrder) of a real run.
func WithPolicy(p Policy) Option { return func(o *RunOptions) { o.Policy = p } }

// WithSimFIFO orders the simulator's oversubscribed-core wait queue FIFO
// instead of the default priority discipline.
func WithSimFIFO() Option { return func(o *RunOptions) { o.SimFIFO = true } }

// WithCoalesce selects halo-bundle coalescing (CoalesceOff, CoalesceStep,
// CoalesceAuto).
func WithCoalesce(m CoalesceMode) Option { return func(o *RunOptions) { o.Coalesce = m } }

// WithFaultPlan injects a deterministic fault schedule. Plans that drop,
// duplicate or pause auto-enable the reliable transport with the default
// recovery policy unless WithRecovery overrides it.
func WithFaultPlan(p *FaultPlan) Option { return func(o *RunOptions) { o.Fault = p } }

// WithRecovery overrides the reliable-transport policy (ack timeout,
// backoff, degradation deadline). Passing a policy without a fault plan
// still sequences and acknowledges every message — useful for measuring
// recovery overhead on a clean wire.
func WithRecovery(r *FaultRecovery) Option { return func(o *RunOptions) { o.Recovery = r } }

// WithTrace collects per-task execution events into t.
func WithTrace(t *Trace) Option { return func(o *RunOptions) { o.Trace = t } }

// WithTraceComm additionally records one event per wire message handled
// by each node's communication goroutine (real runs; requires WithTrace).
func WithTraceComm() Option { return func(o *RunOptions) { o.TraceComm = true } }

// WithTraceNode limits simulated-run trace collection to one node
// (traces of large runs are expensive).
func WithTraceNode(n int32) Option { return func(o *RunOptions) { o.TraceNode = n } }

// WithIntercept wraps every inter-node message of a real run.
func WithIntercept(i Interceptor) Option { return func(o *RunOptions) { o.Intercept = i } }

// WithMachine sets the cluster model a simulated run prices against
// (required by Sim).
func WithMachine(m *Machine) Option { return func(o *RunOptions) { o.Machine = m } }

// WithRatio sets the paper's kernel-adjustment ratio for simulated runs.
func WithRatio(r float64) Option { return func(o *RunOptions) { o.Ratio = r } }

// WithWavefront sets the WF variant's block width — the number of time
// steps one fused wavefront task advances a tile, which is also its ghost
// depth and exchange period — overriding Config.Wavefront on either engine.
func WithWavefront(w int) Option { return func(o *RunOptions) { o.Wavefront = w } }

// WithTransform applies a graph-transformation pass (TransformSplit =
// inner/border task splitting for communication–computation overlap) to
// the built graph before execution, overriding Config.Transform on either
// engine. Transforms never change numerics — results stay bitwise
// identical to the untransformed graph.
func WithTransform(m TransformMode) Option { return func(o *RunOptions) { o.Transform = m } }

// WithContext bounds the run with ctx on either engine: cancellation or a
// deadline stops the run promptly (nothing new starts, communication
// drains) and Run/Sim return a *CancelError that wraps the context error —
// errors.Is(err, context.Canceled) and errors.As(err, &cancelErr) both
// work. This is the load-bearing hook behind job cancellation and deadlines
// in the service layer (internal/server).
func WithContext(ctx context.Context) Option { return func(o *RunOptions) { o.Ctx = ctx } }

// WithProgress streams live (completed, total) task counts from either
// engine — at least once at completion and roughly every 1/128th of the
// graph in between. fn is called from engine goroutines and must be cheap
// and concurrency-safe.
func WithProgress(fn func(done, total int64)) Option {
	return func(o *RunOptions) { o.Progress = fn }
}

// CancelError is the structured error Run and Sim return when a context
// supplied via WithContext is cancelled or exceeds its deadline: it reports
// which engine stopped and how many tasks had executed, and unwraps to the
// context error.
type CancelError = ptg.CancelError

// BuildRunOptions folds functional options into a RunOptions (exposed so
// wrappers and tests can inspect the resolved configuration).
func BuildRunOptions(opts ...Option) RunOptions {
	o := RunOptions{TraceNode: -1}
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// real converts the unified options to the real engine's option struct.
func (o RunOptions) real() ExecOptions {
	return ExecOptions{
		Workers:    o.Workers,
		Policy:     o.Policy,
		Coalesce:   o.Coalesce,
		Fault:      o.Fault,
		Recovery:   o.Recovery,
		Trace:      o.Trace,
		TraceComm:  o.TraceComm,
		Intercept:  o.Intercept,
		Steal:      o.Steal.runtimePolicy(),
		Ctx:        o.Ctx,
		OnProgress: o.Progress,
	}
}

// sim converts the unified options to the simulator's option struct.
func (o RunOptions) sim() core.SimOptions {
	return core.SimOptions{
		Machine:    o.Machine,
		Ratio:      o.Ratio,
		FIFO:       o.SimFIFO,
		Trace:      o.Trace,
		TraceNode:  o.TraceNode,
		Coalesce:   o.Coalesce,
		Fault:      o.Fault,
		Recovery:   o.Recovery,
		Ctx:        o.Ctx,
		OnProgress: o.Progress,
		Steal:      o.simSteal(),
	}
}

// simSteal mirrors forced migrations into the simulator: the rank count
// comes from the cluster configuration (the transport if one is attached,
// the member list otherwise), exactly as a real run would place nodes.
// Dynamic steal modes are wall-clock-driven and have no virtual-time
// analogue, so only the forced schedule crosses over.
func (o RunOptions) simSteal() *core.SimSteal {
	if len(o.Steal.Force) == 0 {
		return nil
	}
	ranks := len(o.RankAddrs)
	if o.Conduit != nil {
		ranks = o.Conduit.Ranks()
	}
	return &core.SimSteal{Ranks: ranks, Force: o.Steal.Force}
}

// Run executes a stencil variant on the concurrent runtime — numerically
// exact, bitwise identical to the sequential reference whatever the
// scheduling, coalescing or (masked) fault injection.
func Run(v Variant, cfg Config, opts ...Option) (*RealResult, error) {
	o := BuildRunOptions(opts...)
	if o.Wavefront > 0 {
		cfg.Wavefront = o.Wavefront
	}
	if o.Transform != core.TransformNone {
		cfg.Transform = o.Transform
	}
	ro := o.real()
	net := o.Conduit
	if net == nil && len(o.RankAddrs) > 0 {
		t, err := netcomm.Connect(netcomm.Options{
			Rank:     o.Rank,
			Addrs:    o.RankAddrs,
			Recovery: derefRecovery(o.Recovery),
			Trace:    traceForComm(o),
		})
		if err != nil {
			return nil, err
		}
		defer t.Close()
		net = t
	}
	if net != nil {
		ro.Dist = &runtime.Dist{Rank: net.Rank(), Ranks: net.Ranks(), Net: net}
	}
	return core.RunReal(v, cfg, ro)
}

// derefRecovery adapts the option bag's pointer form to netcomm's value
// form (zero value = defaults).
func derefRecovery(r *FaultRecovery) FaultRecovery {
	if r == nil {
		return FaultRecovery{}
	}
	return *r
}

// traceForComm forwards the run's trace to the transport only when comm
// tracing was requested, matching the in-process TraceComm gate.
func traceForComm(o RunOptions) *Trace {
	if o.TraceComm {
		return o.Trace
	}
	return nil
}

// Sim predicts a stencil variant's performance on a machine model in
// virtual time. WithMachine is required.
func Sim(v Variant, cfg Config, opts ...Option) (*SimResult, error) {
	o := BuildRunOptions(opts...)
	if o.Machine == nil {
		return nil, fmt.Errorf("castencil: Sim requires WithMachine")
	}
	if o.Wavefront > 0 {
		cfg.Wavefront = o.Wavefront
	}
	if o.Transform != core.TransformNone {
		cfg.Transform = o.Transform
	}
	return core.Simulate(v, cfg, o.sim())
}
