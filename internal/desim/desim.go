// Package desim replays a ptg.Graph in virtual time: tasks occupy compute
// cores for a model-derived duration and cross-node dependencies occupy NICs
// and the wire through a netsim.Fabric. The result is a deterministic
// makespan for a given machine model — the engine behind every performance
// figure regenerated from the paper (the real cluster is simulated per the
// substitution rules in DESIGN.md).
//
// The simulation is an exact resource-constrained list scheduling: a task
// starts the moment all its inputs are present on its node AND a core is
// idle; tasks waiting for a core start in the real runtime's order
// (ptg.ReadyQueue: highest priority first, then ready order); cores are
// released at task end; messages leave on the producer node's NIC in
// completion order (the dedicated communication thread of the paper's
// PaRSEC configuration).
package desim

import (
	"context"
	"fmt"
	"time"

	"castencil/internal/fault"
	"castencil/internal/netsim"
	"castencil/internal/ptg"
	"castencil/internal/trace"
)

// CostFn prices one task in compute time.
type CostFn func(t *ptg.Task) time.Duration

// Options configures a simulation.
type Options struct {
	// Cores is the number of compute cores per node (the machine's
	// CoresPerNode minus the communication thread).
	Cores int
	// Cost prices each task.
	Cost CostFn
	// Fabric models the interconnect. Required when the graph has
	// cross-node dependencies.
	Fabric *netsim.Fabric
	// Trace, when non-nil, receives an event per task with virtual times.
	// TraceNode limits collection to one node (<0 = all nodes); traces of
	// large runs are expensive.
	Trace     *trace.Trace
	TraceNode int32
	// Coalesce selects halo-bundle aggregation through the graph's
	// ptg.Plan, as in the real runtime: all cross-node payloads sharing a
	// (src node, dst node, epoch) triple travel as one wire message, costing
	// one NIC occupancy per side and one wire latency instead of one per
	// dependency. CoalesceStep fails the run when the graph does not admit a
	// deadlock-free bundle plan.
	Coalesce ptg.CoalesceMode
	// Fault, when non-nil, injects the plan's deterministic fault schedule
	// into the virtual wire. Decisions are keyed by graph identity exactly
	// as in the real runtime, so both engines inject byte-identical
	// schedules for the same plan. Plans that drop, duplicate or pause
	// auto-enable Recovery with the default policy when it is nil.
	Fault *fault.Plan
	// Recovery configures the modeled reliable transport: each injected
	// drop costs one backed-off ack timeout before its retransmission, and
	// a transfer unacknowledged past Deadline fails the simulation with a
	// structured *fault.Report (graceful degradation, mirroring the real
	// engine). Acks are modeled free, as the real engine accounts them.
	Recovery *fault.Recovery
	// Ctx, when non-nil, bounds the simulation in wall-clock time: the
	// event loop polls it every few hundred events and returns a
	// *ptg.CancelError (wrapping the context error) when it is cancelled
	// or past its deadline — mirroring the real engine's contract.
	Ctx context.Context
	// OnProgress, when non-nil, is called with (completed, total) task
	// counts as the replay advances — at least once at completion and
	// roughly every 1/128th of the graph in between. Called from the
	// single simulation goroutine.
	OnProgress func(done, total int64)
	// Steal, when non-nil, mirrors the real runtime's inter-node work
	// stealing for a scripted (forced) migration schedule: each listed task
	// executes on its thief rank's steal agent instead of a victim core,
	// paying the migration transfers on the fabric. Forced schedules are the
	// deterministic arm the sim==real parity tests exercise; the real
	// engine's demand-driven (starvation-triggered) stealing is wall-clock
	// dependent and has no virtual-time analogue.
	Steal *StealOpts
}

// StealOpts configures the forced-migration mirror.
type StealOpts struct {
	// Ranks is the process count of the mirrored distributed run; RankOf
	// maps a virtual node to its owning rank (runtime.RankOfNode in the
	// mirrored run).
	Ranks  int
	RankOf func(node int) int
	// Force lists the scripted migrations: task (by graph index) and the
	// thief rank that executes it.
	Force []ptg.ForcedSteal
}

// Result is the outcome of a simulation.
type Result struct {
	Makespan time.Duration
	// BusyTime is the total core-seconds spent computing, per node.
	BusyTime []time.Duration
	// Messages and BytesSent mirror the fabric counters.
	Messages  int
	BytesSent int
	// Bundles and Segments mirror the fabric's coalescing counters: wire
	// messages that were halo bundles and the member transfers they carried.
	Bundles  int
	Segments int
	Tasks    int
	// Fault counts the injected fault schedule and the modeled recovery
	// work (all zero without a fault plan).
	Fault fault.Stats
	// Work-stealing mirror counters (all zero without Options.Steal),
	// matching the real runtime.Result fields of the same names exactly:
	// one steal per forced migration, MigratedBytes = sum of each migrated
	// task's Mig.InBytes+OutBytes.
	StealsRemote  int
	MigratedTasks int
	MigratedBytes int
}

// BundleFill returns the mean member transfers per bundle (0 when no
// bundles were sent) — the aggregation factor coalescing achieved.
func (r *Result) BundleFill() float64 {
	if r.Bundles == 0 {
		return 0
	}
	return float64(r.Segments) / float64(r.Bundles)
}

// Occupancy returns the average compute-core utilization of a node.
func (r *Result) Occupancy(node, cores int) float64 {
	if r.Makespan <= 0 || cores <= 0 {
		return 0
	}
	return float64(r.BusyTime[node]) / (float64(r.Makespan) * float64(cores))
}

type evKind uint8

const (
	evTaskDone evKind = iota
	evMsgArrive
	// evBundleArrive delivers a coalesced halo bundle: one event satisfies
	// every member dependency at the same arrival time (task holds the
	// bundle index instead of a task index).
	evBundleArrive
	// evSendMsg / evSendBundle perform a send deferred past the source
	// node's fault-injected pause window (task holds the consumer index
	// with core the dependency index, or the bundle index). Deferring —
	// instead of pricing the send immediately with a far-future departure
	// — keeps fabric pricing in virtual-time order, so a paused sender
	// never inflates the NIC horizons seen by earlier traffic.
	evSendMsg
	evSendBundle
	// evStealReturn completes a forced migration: the thief's results frame
	// arrived back at the victim and the task commits there (no core was
	// occupied on either side — the thief executes on its steal agent).
	evStealReturn
)

type event struct {
	at   time.Duration
	seq  int64
	kind evKind
	task int32 // finished task, message's consumer task, or bundle index
	node int32 // node concerned
	core int32
}

// minHeap is a binary min-heap under less. It moves values, not
// interfaces, so a push allocates only when the backing array grows. Every
// key the simulator uses ends in a unique sequence number, so the pop order
// is fully determined.
type minHeap[T any] struct {
	items []T
	less  func(a, b T) bool
}

func (h *minHeap[T]) len() int { return len(h.items) }

func (h *minHeap[T]) push(x T) {
	h.items = append(h.items, x)
	for i := len(h.items) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *minHeap[T]) pop() T {
	top, n := h.items[0], len(h.items)-1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(h.items[c+1], h.items[c]) {
			c++
		}
		if !h.less(h.items[c], h.items[i]) {
			break
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
	return top
}

// schedule queues an event, stamping the sequence number that orders it
// after every event scheduled before it at the same virtual time.
func (s *sim) schedule(ev event) {
	s.seq++
	ev.seq = s.seq
	s.events.push(ev)
}

type simNode struct {
	idleCores []int32        // stack of idle core ids
	waiting   ptg.ReadyQueue // tasks ready while every core is busy
	busy      time.Duration
}

type sim struct {
	g      *ptg.Graph
	plan   *ptg.Plan
	opts   Options
	events minHeap[event]
	seq    int64
	nodes  []*simNode
	// pending deps per task; ready time accumulates the max input arrival.
	pending []int32
	ready   []time.Duration
	done    int
	// bundleRem counts, per plan bundle, the members not yet produced.
	bundleRem []int32
	// Fault mirror state (see fault.go): the armed plan and recovery
	// policy, injected-schedule counters, per-(node,core) executed-task
	// counters for slow cores, per-node outgoing-message counters for comm
	// stalls, per-node completed-task counters and pause horizons, and the
	// structured report of a deadline degradation.
	fplan      *fault.Plan
	rec        fault.Recovery
	reliable   bool
	fstats     fault.Stats
	coreSeq    [][]int
	outSeq     []int
	nodeDone   []int
	pauseUntil []time.Duration
	ferr       error
	// Forced-migration mirror state (nil/empty without Options.Steal):
	// forced maps a task index to its thief rank, rankNode each rank to its
	// first owned node (the endpoint its steal messages travel through), and
	// agentFree each rank's single steal agent to its next idle time.
	forced    map[int32]int
	rankNode  []int32
	agentFree []time.Duration
	migDone   int
	migBytes  int
}

// stealInit validates and arms the forced-migration mirror.
func (s *sim) stealInit() error {
	so := s.opts.Steal
	if so == nil || len(so.Force) == 0 {
		return nil
	}
	if so.Ranks < 2 || so.RankOf == nil {
		return fmt.Errorf("desim: Steal needs Ranks >= 2 and a RankOf placement")
	}
	if s.opts.Fabric == nil {
		return fmt.Errorf("desim: Steal requires a Fabric")
	}
	s.rankNode = make([]int32, so.Ranks)
	for r := range s.rankNode {
		s.rankNode[r] = -1
	}
	for n := 0; n < s.g.NumNodes; n++ {
		r := so.RankOf(n)
		if r < 0 || r >= so.Ranks {
			return fmt.Errorf("desim: RankOf(%d) = %d out of range [0,%d)", n, r, so.Ranks)
		}
		if s.rankNode[r] < 0 {
			s.rankNode[r] = int32(n)
		}
	}
	var err error
	if s.forced, err = s.g.PinForced(so.Force, so.Ranks, so.RankOf); err != nil {
		return err
	}
	for _, thief := range s.forced {
		if s.rankNode[thief] < 0 {
			return fmt.Errorf("desim: thief rank %d owns no nodes", thief)
		}
	}
	s.agentFree = make([]time.Duration, so.Ranks)
	return nil
}

// migrate mirrors one forced migration in virtual time: the victim's steal
// agent ships the task's inputs to the thief rank's agent, which executes it
// off-core (one agent per rank, so back-to-back migrations to one thief
// serialize) and ships the results back; the task commits at the victim when
// the return frame lands. Ack frames are modeled free, like data acks.
func (s *sim) migrate(idx int32, thief int, at time.Duration) {
	t := &s.g.Tasks[idx]
	victimNode := int(t.Node)
	thiefNode := int(s.rankNode[thief])
	arrive := s.opts.Fabric.SendMigration(victimNode, thiefNode, t.Mig.InBytes, at)
	start := arrive
	if s.agentFree[thief] > start {
		start = s.agentFree[thief]
	}
	d := s.opts.Cost(t)
	if d < 0 {
		d = 0
	}
	end := start + d
	s.agentFree[thief] = end
	back := s.opts.Fabric.SendMigration(thiefNode, victimNode, t.Mig.OutBytes, end)
	if s.opts.Trace != nil && (s.opts.TraceNode < 0 || s.opts.TraceNode == t.Node) {
		s.opts.Trace.Record(trace.Event{
			ID: t.ID, Kind: t.Kind, Node: t.Node, Core: int32(s.opts.Cores), Start: start, End: end, Stolen: true,
		})
	}
	s.schedule(event{at: back, kind: evStealReturn, task: idx, node: t.Node})
}

// Run simulates the graph and returns the makespan and statistics.
func Run(g *ptg.Graph, opts Options) (*Result, error) {
	if opts.Cores <= 0 {
		return nil, fmt.Errorf("desim: Cores must be positive")
	}
	if opts.Cost == nil {
		return nil, fmt.Errorf("desim: Cost function required")
	}
	if cross, _ := g.CrossNodeDeps(); cross > 0 && opts.Fabric == nil {
		return nil, fmt.Errorf("desim: graph has %d cross-node deps but no Fabric", cross)
	}
	if opts.Fabric != nil && opts.Fabric.Nodes() < g.NumNodes {
		return nil, fmt.Errorf("desim: fabric has %d endpoints, graph needs %d", opts.Fabric.Nodes(), g.NumNodes)
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, &ptg.CancelError{Engine: "desim", Total: len(g.Tasks), Err: err}
		}
	}
	plan, err := g.Plan(opts.Coalesce)
	if err != nil {
		return nil, err
	}
	s := &sim{
		g:       g,
		plan:    plan,
		opts:    opts,
		nodes:   make([]*simNode, g.NumNodes),
		pending: make([]int32, len(g.Tasks)),
		ready:   make([]time.Duration, len(g.Tasks)),
	}
	s.events.less = func(a, b event) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	}
	for n := range s.nodes {
		nd := &simNode{idleCores: make([]int32, 0, opts.Cores)}
		for c := opts.Cores - 1; c >= 0; c-- {
			nd.idleCores = append(nd.idleCores, int32(c))
		}
		s.nodes[n] = nd
	}
	for i := range g.Tasks {
		s.pending[i] = int32(len(g.Tasks[i].Deps))
	}
	if err := s.faultInit(); err != nil {
		return nil, err
	}
	if err := s.stealInit(); err != nil {
		return nil, err
	}
	s.bundleRem = make([]int32, len(plan.Bundles))
	for i := range plan.Bundles {
		s.bundleRem[i] = int32(len(plan.Bundles[i].Members))
	}
	for _, r := range g.Roots() {
		s.taskReady(r, 0)
	}

	progressEvery := len(g.Tasks) / 128
	if progressEvery == 0 {
		progressEvery = 1
	}
	var makespan time.Duration
	var polled int
	for s.events.len() > 0 && s.ferr == nil {
		// Poll the context every few hundred events: cheap enough to be
		// invisible, fine enough that a cancelled simulation stops within
		// microseconds of real time.
		if polled++; opts.Ctx != nil && polled&255 == 0 {
			if err := opts.Ctx.Err(); err != nil {
				return nil, &ptg.CancelError{Engine: "desim", Done: s.done, Total: len(g.Tasks), Err: err}
			}
		}
		ev := s.events.pop()
		switch ev.kind {
		case evTaskDone:
			if ev.at > makespan {
				makespan = ev.at
			}
			s.done++
			if opts.OnProgress != nil && (s.done%progressEvery == 0 || s.done == len(g.Tasks)) {
				opts.OnProgress(int64(s.done), int64(len(g.Tasks)))
			}
			s.notePause(ev.node, ev.at)
			s.release(ev.task, ev.at)
			// Free the core and pull the next waiter if any.
			nd := s.nodes[ev.node]
			nd.idleCores = append(nd.idleCores, ev.core)
			if idx, ok := nd.waiting.Pop(); ok {
				s.start(idx, ev.at)
			}
		case evMsgArrive:
			s.satisfy(ev.task, ev.at)
		case evBundleArrive:
			for _, m := range plan.Bundles[ev.task].Members {
				s.satisfy(m.Task, ev.at)
			}
		case evSendMsg:
			s.sendMsg(ev.task, ev.core, ev.at)
		case evSendBundle:
			s.sendBundleAt(ev.task, ev.at)
		case evStealReturn:
			if ev.at > makespan {
				makespan = ev.at
			}
			s.done++
			s.migDone++
			s.migBytes += s.g.Tasks[ev.task].Mig.InBytes + s.g.Tasks[ev.task].Mig.OutBytes
			if opts.OnProgress != nil && (s.done%progressEvery == 0 || s.done == len(g.Tasks)) {
				opts.OnProgress(int64(s.done), int64(len(g.Tasks)))
			}
			s.release(ev.task, ev.at)
		}
	}
	if s.ferr != nil {
		// Graceful degradation: the structured report says which transfer
		// blew the recovery deadline, after how many attempts.
		return nil, s.ferr
	}
	if s.done != len(g.Tasks) {
		return nil, fmt.Errorf("desim: quiesced after %d of %d tasks (dependency deadlock)", s.done, len(g.Tasks))
	}
	res := &Result{
		Makespan: makespan,
		BusyTime: make([]time.Duration, g.NumNodes),
		Tasks:    s.done,
		Fault:    s.fstats,
	}
	for n, nd := range s.nodes {
		res.BusyTime[n] = nd.busy
	}
	if opts.Fabric != nil {
		res.Messages = opts.Fabric.Messages
		res.BytesSent = opts.Fabric.BytesSent
		res.Bundles = opts.Fabric.Bundles
		res.Segments = opts.Fabric.Segments
	}
	res.StealsRemote = s.migDone
	res.MigratedTasks = s.migDone
	res.MigratedBytes = s.migBytes
	return res, nil
}

// taskReady is called when a task's last input arrived at time at.
func (s *sim) taskReady(idx int32, at time.Duration) {
	if thief, ok := s.forced[idx]; ok {
		s.migrate(idx, thief, at)
		return
	}
	t := &s.g.Tasks[idx]
	nd := s.nodes[t.Node]
	if len(nd.idleCores) > 0 {
		s.start(idx, at)
		return
	}
	nd.waiting.Push(idx, t.Priority)
}

// start runs the task on an idle core of its node beginning at time at.
func (s *sim) start(idx int32, at time.Duration) {
	t := &s.g.Tasks[idx]
	nd := s.nodes[t.Node]
	core := nd.idleCores[len(nd.idleCores)-1]
	nd.idleCores = nd.idleCores[:len(nd.idleCores)-1]
	// A paused node starts nothing until its window ends; a slow core
	// stretches the task inside its timed window — both mirror the real
	// engine's worker loop.
	at = s.pausedUntil(t.Node, at)
	d := s.opts.Cost(t)
	if d < 0 {
		d = 0
	}
	d += s.slowCoreExtra(t.Node, core)
	nd.busy += d
	end := at + d
	if s.opts.Trace != nil && (s.opts.TraceNode < 0 || s.opts.TraceNode == t.Node) {
		s.opts.Trace.Record(trace.Event{
			ID: t.ID, Kind: t.Kind, Node: t.Node, Core: core, Start: at, End: end,
		})
	}
	s.schedule(event{at: end, kind: evTaskDone, task: idx, node: t.Node, core: core})
}

// release propagates a finished task's outputs along its out-edges, in plan
// order.
func (s *sim) release(idx int32, at time.Duration) {
	node := s.g.Tasks[idx].Node
	for _, e := range s.plan.Out(idx) {
		switch {
		case e.Bundle >= 0:
			// The bundle leaves when its last member is produced; events
			// process in time order, so the decrement that reaches zero
			// carries the departure time.
			if s.bundleRem[e.Bundle]--; s.bundleRem[e.Bundle] == 0 {
				s.sendBundleAt(e.Bundle, at)
			}
		case s.g.Tasks[e.Consumer].Node != node:
			s.sendMsg(e.Consumer, e.Dep, at)
		default:
			s.satisfy(e.Consumer, at)
		}
	}
}

// deferPastPause reschedules a send whose source node sits inside a
// fault-injected pause window, firing it when the window ends. Returns
// true when the send was deferred.
func (s *sim) deferPastPause(src int32, at time.Duration, kind evKind, task, core int32) bool {
	if s.fplan == nil || s.pauseUntil[src] <= at {
		return false
	}
	s.schedule(event{at: s.pauseUntil[src], kind: kind, task: task, node: src, core: core})
	return true
}

// sendMsg prices one point-to-point cross-node transfer departing at time
// at (deferring first if the source node is paused) and schedules its
// arrival.
func (s *sim) sendMsg(sIdx, di int32, at time.Duration) {
	c := &s.g.Tasks[sIdx]
	d := &c.Deps[di]
	src := s.g.Tasks[d.Producer].Node
	if s.deferPastPause(src, at, evSendMsg, sIdx, di) {
		return
	}
	id := fault.EdgeMsgID(src, c.Node, sIdx, di)
	arrive, ok := s.sendCross(id, int(d.Bytes), 0, at)
	if !ok {
		return
	}
	s.schedule(event{at: arrive, kind: evMsgArrive, task: sIdx, node: c.Node})
}

// sendBundleAt prices one coalesced bundle departing at time at (deferring
// first if the source node is paused) and schedules its arrival.
func (s *sim) sendBundleAt(bi int32, at time.Duration) {
	b := &s.plan.Bundles[bi]
	if s.deferPastPause(b.Src, at, evSendBundle, bi, 0) {
		return
	}
	id := fault.BundleMsgID(b.Src, b.Dst, bi)
	arrive, ok := s.sendCross(id, b.WireBytes(), len(b.Members), at)
	if !ok {
		return
	}
	s.schedule(event{at: arrive, kind: evBundleArrive, task: bi, node: b.Dst})
}

// satisfy accounts one input arrival for a task.
func (s *sim) satisfy(idx int32, at time.Duration) {
	if at > s.ready[idx] {
		s.ready[idx] = at
	}
	s.pending[idx]--
	if s.pending[idx] == 0 {
		s.taskReady(idx, s.ready[idx])
	}
}
