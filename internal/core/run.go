package core

import (
	"context"
	"fmt"
	"time"

	"castencil/internal/desim"
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
	// on other ranks Grid is nil. It is the only copy of the tile data:
	// once gathered, the tiles' storage goes back to the runtime arena.
	Grid      *grid.Tile
	Partition *grid.Partition
	// Exec carries the run's counters. Its Stores keep their slots, but
	// the tile states in them no longer hold buffers.
	Exec *runtime.Result
}

// RunReal executes the graph with bodies on the concurrent runtime and
// gathers the final grid. The graph comes from the process's graph pool and
// the tile stores from the runtime arena; both go back after the run, so
// solving one shape many times builds one graph and one set of tile buffers.
func RunReal(v Variant, cfg Config, opts runtime.Options) (*RealResult, error) {
	cfg = cfg.withDefaults()
	cfg.WithBodies = true
	part, err := cfg.Validate(v)
	if err != nil {
		return nil, err
	}
	e, err := graphs.get(v, cfg)
	if err != nil {
		return nil, err
	}
	if opts.Dist != nil {
		// Open the run's epoch before anything touches the wire: the
		// runtime's barriers and the tiles gather below all ride in it.
		opts.Dist.Net.Begin()
	}
	res, err := runtime.Run(e.g, opts)
	graphs.put(e)
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
	releaseTiles(part, res.Stores)
	return &RealResult{Grid: full, Partition: part, Exec: res}, nil
}

// releaseTiles returns the buffers of every tile state in the stores — the
// owner's, and on a thief rank the ones its migrated tasks created — to the
// runtime arena, and clears the states so nothing aliases recycled memory.
func releaseTiles(p *grid.Partition, stores []*runtime.Store) {
	for i, slot := range stateSlots(p) {
		v := stores[p.Owner(i/p.TC, i%p.TC)].GetSlot(slot)
		if v == nil {
			continue
		}
		st := v.(*tileState)
		runtime.PutFloats(st.cur.Storage())
		runtime.PutFloats(st.next.Storage())
		st.cur, st.next = nil, nil
	}
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
	// Trace, when non-nil, collects virtual-time events for TraceNode
	// (all nodes when TraceNode < 0).
	Trace     *trace.Trace
	TraceNode int32
	// Coalesce aggregates per-epoch halo payloads into per-neighbor
	// bundles (see runtime.Options.Coalesce for the modes).
	Coalesce ptg.CoalesceMode
	// Ctx bounds the simulation in wall-clock time (nil = uninterruptible);
	// a cancelled or deadline-exceeded context stops the event loop with a
	// *ptg.CancelError. OnProgress streams (completed, total) task counts.
	Ctx        context.Context
	OnProgress func(done, total int64)
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
	Sim      *desim.Result
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
	part, err := cfg.Validate(v)
	if err != nil {
		return nil, err
	}
	e, err := graphs.get(v, cfg)
	if err != nil {
		return nil, err
	}
	defer graphs.put(e)
	fabric := netsim.NewFabric(opts.Machine.Net, part.Nodes())
	res, err := desim.Run(e.g, desim.Options{
		Cores:      opts.Machine.ComputeCores(),
		Cost:       CostModel(opts.Machine, opts.Ratio),
		Fabric:     fabric,
		Trace:      opts.Trace,
		TraceNode:  opts.TraceNode,
		Coalesce:   opts.Coalesce,
		Ctx:        opts.Ctx,
		OnProgress: opts.OnProgress,
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
		Makespan:  res.Makespan,
		GFLOPS:    flops / res.Makespan.Seconds() / 1e9,
		Messages:  res.Messages,
		BytesSent: res.BytesSent,
		Bundles:   res.Bundles,
		Segments:  res.Segments,
		CommBusy:  busy,
		Sim:       res,
	}, nil
}
