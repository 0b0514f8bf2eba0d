package core

import (
	"context"
	"fmt"
	"time"

	"castencil/internal/desim"
	"castencil/internal/fault"
	"castencil/internal/grid"
	"castencil/internal/machine"
	"castencil/internal/memmodel"
	"castencil/internal/netsim"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
	"castencil/internal/stencil"
	"castencil/internal/trace"
)

// RealResult is the outcome of a real (numerically exact) execution.
type RealResult struct {
	// Grid holds the final iterate over the whole domain, gathered from
	// all node stores. In a distributed run only rank 0 materializes it;
	// on other ranks Grid is nil.
	Grid      *grid.Tile
	Partition *grid.Partition
	Exec      *runtime.Result
}

// RunReal builds the graph with bodies and executes it on the concurrent
// runtime, gathering the final grid.
func RunReal(v Variant, cfg Config, opts runtime.Options) (*RealResult, error) {
	cfg = cfg.withDefaults()
	cfg.WithBodies = true
	part, err := cfg.validate(v)
	if err != nil {
		return nil, err
	}
	g, err := BuildGraph(v, cfg)
	if err != nil {
		return nil, err
	}
	if opts.Dist != nil {
		// Open the run's epoch before anything touches the wire: the
		// runtime's barriers and the tiles gather below all ride in it.
		opts.Dist.Net.Begin()
	}
	res, err := runtime.Run(g, opts)
	if err != nil {
		return nil, err
	}
	var full *grid.Tile
	if opts.Dist != nil {
		full, err = gatherDistributed(part, res.Stores, opts.Dist)
	} else {
		full, err = Gather(part, res.Stores)
	}
	if err != nil {
		return nil, err
	}
	return &RealResult{Grid: full, Partition: part, Exec: res}, nil
}

// Gather assembles the final global grid from the per-node stores of a
// completed real execution.
func Gather(p *grid.Partition, stores []*runtime.Store) (*grid.Tile, error) {
	out := grid.NewTile(p.N, p.N, 0)
	slots := stateSlots(p)
	for ti := 0; ti < p.TR; ti++ {
		for tj := 0; tj < p.TC; tj++ {
			st, err := finalState(p, stores, slots, ti, tj)
			if err != nil {
				return nil, err
			}
			for r := 0; r < st.cur.Rows; r++ {
				copy(out.Row(st.r0+r, st.c0, st.cur.Cols), st.cur.Row(r, 0, st.cur.Cols))
			}
		}
	}
	return out, nil
}

// finalState returns tile (ti, tj)'s state from its owner's store, given
// the partition's stateSlots.
func finalState(p *grid.Partition, stores []*runtime.Store, slots []int32, ti, tj int) (*tileState, error) {
	v := stores[p.Owner(ti, tj)].GetSlot(slots[ti*p.TC+tj])
	if v == nil {
		return nil, fmt.Errorf("core: tile (%d,%d) missing from its owner's store", ti, tj)
	}
	return v.(*tileState), nil
}

// LeftoverBuffers counts halo payloads left in the stores' buffer slots
// after a run. A correct dataflow consumes every payload exactly once, so
// this must be zero (used by hygiene tests).
func LeftoverBuffers(stores []*runtime.Store) int {
	n := 0
	for _, s := range stores {
		n += s.LiveBufSlots()
	}
	return n
}

// SimOptions configures a virtual-time performance simulation.
type SimOptions struct {
	// Machine is the cluster model (required).
	Machine *machine.Model
	// Ratio is the paper's kernel-adjustment ratio (section VI-D): only a
	// (ratio*mb) x (ratio*nb) portion of each tile is updated, simulating
	// a faster memory system / optimized kernel. 0 or 1 = full kernel.
	Ratio float64
	// Policy orders oversubscribed cores (default priority, like the
	// stencil-tuned PaRSEC scheduler).
	FIFO bool
	// Trace, when non-nil, collects virtual-time events for TraceNode
	// (all nodes when TraceNode < 0).
	Trace     *trace.Trace
	TraceNode int32
	// Coalesce aggregates per-epoch halo payloads into per-neighbor
	// bundles (see runtime.Options.Coalesce for the modes).
	Coalesce ptg.CoalesceMode
	// Fault injects a deterministic fault schedule into the virtual wire;
	// the same plan injects the byte-identical schedule in a real run (see
	// runtime.Options.Fault). Recovery configures the modeled reliable
	// transport (auto-enabled for plans that need it).
	Fault    *fault.Plan
	Recovery *fault.Recovery
	// Ctx bounds the simulation in wall-clock time (nil = uninterruptible);
	// a cancelled or deadline-exceeded context stops the event loop with a
	// *ptg.CancelError. OnProgress streams (completed, total) task counts.
	Ctx        context.Context
	OnProgress func(done, total int64)
	// Steal mirrors a distributed run's forced work-stealing migrations in
	// virtual time (see desim.StealOpts). Node placement follows
	// runtime.RankOfNode over Steal.Ranks, exactly as a real distributed
	// run places nodes.
	Steal *SimSteal
}

// SimSteal scripts forced migrations for a simulated distributed run.
type SimSteal struct {
	Ranks int
	Force []runtime.ForcedSteal
}

// SimResult reports a simulated run.
type SimResult struct {
	Makespan  time.Duration
	GFLOPS    float64 // at the paper's 9*N^2*steps accounting
	Messages  int
	BytesSent int
	// Bundles and Segments count coalesced wire messages and the member
	// transfers they carried (zero when coalescing is off).
	Bundles  int
	Segments int
	// CommBusy is each node's communication-thread busy time; divide by
	// Makespan for comm-thread occupancy.
	CommBusy []time.Duration
	// Fault counts the injected fault schedule and modeled recovery work.
	Fault fault.Stats
	// OverlapRatio, InteriorTasks and BorderTasks report the split
	// transform's communication–computation overlap (see
	// desim.Result.OverlapRatio); all zero unless Config.Transform splits
	// the graph.
	OverlapRatio  float64
	InteriorTasks int
	BorderTasks   int
	// Work-stealing mirror counters, matching runtime.Result's fields of
	// the same names (all zero without SimOptions.Steal).
	StealsRemote  int
	MigratedTasks int
	MigratedBytes int
	Sim           *desim.Result
}

// BundleFill returns the mean member transfers per coalesced bundle (0
// when none were sent).
func (r *SimResult) BundleFill() float64 {
	if r.Bundles == 0 {
		return 0
	}
	return float64(r.Segments) / float64(r.Bundles)
}

// CostModel prices stencil tasks with the machine's kernel model. Following
// the paper's methodology, the kernel-adjustment ratio replaces the tile
// update with a (ratio*mb) x (ratio*nb) one and — exactly as in the paper's
// experiment — does not charge the CA trapezoid's redundant points ("we
// simulate the kernel time without the extra computation"), while halo-copy
// traffic is always charged (the CA version's bigger message copies are why
// its median kernel time exceeds the base version's in Fig. 10). With
// ratio >= 1 (the real kernel), redundant updates are charged in full.
func CostModel(m *machine.Model, ratio float64) desim.CostFn {
	full := ratio <= 0 || ratio >= 1
	if full {
		ratio = 1
	}
	return func(t *ptg.Task) time.Duration {
		if t.Kind == ptg.KindInit {
			// The paper times the iteration loop, not allocation and
			// initial data placement.
			return 0
		}
		h := t.Hint
		cost := m.Kern.TaskOverhead + memmodel.CopyTime(m, h.CopyPoints)
		updates := ratio * ratio * float64(h.Updates)
		if full {
			updates += float64(h.RedundantUpdates)
		}
		if updates > 0 {
			cost += memmodel.UpdateTime(m, h.Rows, h.Cols, updates)
		}
		return cost
	}
}

// Simulate replays a stencil variant in virtual time on a machine model and
// returns the predicted performance.
func Simulate(v Variant, cfg Config, opts SimOptions) (*SimResult, error) {
	if opts.Machine == nil {
		return nil, fmt.Errorf("core: SimOptions.Machine is required")
	}
	if err := opts.Machine.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cfg.WithBodies = false
	part, err := cfg.validate(v)
	if err != nil {
		return nil, err
	}
	g, err := BuildGraph(v, cfg)
	if err != nil {
		return nil, err
	}
	policy := desim.Priority
	if opts.FIFO {
		policy = desim.FIFO
	}
	fabric := netsim.NewFabric(opts.Machine.Net, part.Nodes())
	var steal *desim.StealOpts
	if opts.Steal != nil && len(opts.Steal.Force) > 0 {
		nodes := part.Nodes()
		ranks := opts.Steal.Ranks
		force := make([]desim.ForcedSteal, len(opts.Steal.Force))
		for i, f := range opts.Steal.Force {
			force[i] = desim.ForcedSteal{Task: f.Task, Thief: f.Thief}
		}
		steal = &desim.StealOpts{
			Ranks:  ranks,
			RankOf: func(node int) int { return runtime.RankOfNode(node, nodes, ranks) },
			Force:  force,
		}
	}
	res, err := desim.Run(g, desim.Options{
		Cores:      opts.Machine.ComputeCores(),
		Cost:       CostModel(opts.Machine, opts.Ratio),
		Fabric:     fabric,
		Policy:     policy,
		Trace:      opts.Trace,
		TraceNode:  opts.TraceNode,
		Coalesce:   opts.Coalesce,
		Fault:      opts.Fault,
		Recovery:   opts.Recovery,
		Ctx:        opts.Ctx,
		OnProgress: opts.OnProgress,
		Steal:      steal,
	})
	if err != nil {
		return nil, err
	}
	flops := memmodel.SweepFlops(cfg.N, cfg.Steps)
	if cfg.NinePoint {
		flops = flops / memmodel.FlopsPerUpdate * stencil.Flops9PerUpdate
	}
	busy := make([]time.Duration, part.Nodes())
	for n := range busy {
		busy[n] = fabric.CommBusy(n)
	}
	return &SimResult{
		Makespan:      res.Makespan,
		GFLOPS:        flops / res.Makespan.Seconds() / 1e9,
		Messages:      res.Messages,
		BytesSent:     res.BytesSent,
		Bundles:       res.Bundles,
		Segments:      res.Segments,
		CommBusy:      busy,
		Fault:         res.Fault,
		OverlapRatio:  res.OverlapRatio,
		InteriorTasks: res.InteriorTasks,
		BorderTasks:   res.BorderTasks,
		StealsRemote:  res.StealsRemote,
		MigratedTasks: res.MigratedTasks,
		MigratedBytes: res.MigratedBytes,
		Sim:           res,
	}, nil
}
