// Package runtime is the real-execution engine of this repository's PaRSEC
// analog: it unfolds a ptg.Graph over a set of virtual nodes, each with its
// own private store (distributed memory), a pool of worker goroutines
// (compute cores) and one dedicated communication goroutine (the paper's
// "one thread dedicated for communication"). All inter-node dependencies
// travel as byte-serialized messages; nodes never share data structures, so
// a run is faithful to an MPI execution up to transport timing.
package runtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"castencil/internal/fault"
	"castencil/internal/ptg"
	"castencil/internal/trace"
)

// Message is one inter-node transfer: the payload of a cross-node
// dependency, addressed by consumer task and dependency index — or, when
// Bundle is nonzero, a coalesced halo bundle carrying many such payloads as
// length-prefixed segments (see internal/runtime/coalesce.go for the wire
// format).
type Message struct {
	Src, Dst int32
	Task     int32 // consumer task index (point-to-point only)
	Dep      int32 // index into the consumer's Deps (point-to-point only)
	// Bundle is the 1-based bundle id of a coalesced message; 0 marks an
	// ordinary point-to-point transfer.
	Bundle int32
	// Seq is the message's per-(src,dst)-lane sequence number under the
	// reliable transport (first message is 1; 0 marks an unsequenced
	// message on the plain zero-copy wire). Ack marks an acknowledgement
	// for Seq — a header-only control message carrying no payload.
	// Attempt is the delivery attempt (0 = original transmission) and
	// keys the fault plan's per-attempt decisions.
	Seq     uint64
	Ack     bool
	Attempt int32
	// SentNanos is the dispatch timestamp (nanoseconds since the run's t0),
	// stamped only when the graph carries inner tasks from the split
	// transform: the receiver closes the in-flight interval behind
	// Result.OverlapRatio. Zero on other runs and on ack messages.
	// Retransmitted copies keep the original timestamp, so a recovered
	// message counts as in flight from its first transmission.
	SentNanos int64
	Data      []byte
}

// Interceptor lets tests and examples wrap message delivery (to inject
// delays, reordering, duplication checks...). It runs on the sender's
// communication goroutine; it must eventually call deliver exactly once for
// the message, possibly from another goroutine.
type Interceptor func(m Message, deliver func(Message))

// Options configures an execution.
type Options struct {
	// Workers is the number of compute goroutines per node (default 1).
	Workers int
	// Policy orders each node's injection queue (default FIFO). The
	// choice never changes numerics — only who runs what, when.
	Policy Policy
	// Coalesce selects halo-bundle coalescing (default CoalesceOff). With
	// CoalesceStep/CoalesceAuto, all cross-node payloads one node produces
	// in one epoch toward one destination travel as a single message over a
	// persistent communication lane (ptg.CoalesceStep fails the run when
	// the graph's epochs do not admit a deadlock-free plan; ptg.CoalesceAuto
	// falls back to point-to-point). Coalescing never changes numerics.
	//
	// Ownership contract: under coalescing the comm goroutine copies each
	// packed payload into the bundle's wire buffer and immediately recycles
	// the buffer returned by Dep.Pack into the arena (PutBuf). Pack
	// implementations must therefore hand over ownership of their returned
	// buffer — the same convention point-to-point receivers already apply.
	Coalesce ptg.CoalesceMode
	// Fault, when non-nil, injects the plan's deterministic faults into
	// the wire path (dropped/duplicated/delayed/reordered messages, slow
	// cores, comm stalls, node pauses). Message-level decisions are keyed
	// by graph identity, so a simulated run with the same plan injects a
	// byte-identical schedule. Plans that drop or duplicate (or pause
	// nodes) auto-enable the reliable transport with DefaultRecovery when
	// Recovery is nil.
	Fault *fault.Plan
	// Recovery, when non-nil, enables the reliable transport: per-lane
	// sequence numbers, ack + retransmit with exponential backoff,
	// receiver-side dedup (delivery stays exactly-once whatever the wire
	// does), and fail-fast degradation with a structured *fault.Report
	// when a message stays unacknowledged past the deadline. Zero-value
	// fields take the fault.DefaultRecovery policy.
	Recovery *fault.Recovery
	// Trace, when non-nil, receives one event per executed task.
	Trace *trace.Trace
	// TraceComm additionally records one trace.Event per wire message
	// handled by each node's communication goroutine (Kind ptg.KindComm,
	// core index Workers — one past the compute cores), carrying the
	// transfer count and wire bytes. Requires Trace.
	TraceComm bool
	// Intercept, when non-nil, wraps every inter-node message.
	Intercept Interceptor
	// Ctx, when non-nil, bounds the execution: when it is cancelled or its
	// deadline passes, workers stop picking up tasks, the communication
	// goroutines drain, and Run returns a *ptg.CancelError (wrapping the
	// context error) alongside the partial result. Cancellation is prompt
	// at task granularity — a task already running finishes, nothing new
	// starts. A nil Ctx means the run cannot be interrupted (the historical
	// behavior).
	Ctx context.Context
	// OnProgress, when non-nil, is called with (completed, total) task
	// counts as the run advances — at least once at completion and roughly
	// every 1/128th of the graph in between. It is invoked from worker
	// goroutines and must be cheap and concurrency-safe.
	OnProgress func(done, total int64)
	// Dist, when non-nil, distributes the run across multiple OS processes:
	// this process runs workers only for the virtual nodes RankOfNode
	// assigns to Dist.Rank and routes messages for remote nodes through
	// Dist.Net (see dist.go). Total/progress counts cover the local slice;
	// after a successful run rank 0's Result carries the globally summed
	// counters, and only local nodes' Stores hold data.
	Dist *Dist
	// Steal, when non-nil and active, enables inter-node work stealing on a
	// distributed run (see steal.go): starving ranks migrate ready tasks —
	// with their input tiles — from data-affine peers over the conduit's
	// steal frames. Requires Dist and a conduit implementing StealConduit.
	// Every rank must be configured with the same policy. Migration never
	// changes numerics: the final grid is bitwise-identical to a run
	// without stealing.
	Steal *StealPolicy
}

// Result summarizes a completed execution.
type Result struct {
	Elapsed   time.Duration
	Stores    []*Store // per-node stores, for gathering output data
	Messages  int      // inter-node wire messages sent (a bundle counts once)
	BytesSent int
	// BundlesSent counts coalesced messages among Messages; BundleSegments
	// counts the member payloads they carried. Both are zero with
	// coalescing off.
	BundlesSent    int
	BundleSegments int
	Completed      int
	// Dropped counts inter-node transfers discarded at shutdown: send
	// requests never packed plus messages delivered or queued after the
	// run finished. It is zero for a successful run (completion implies
	// every message was consumed) and keeps the Messages/BytesSent
	// accounting honest when a run fails mid-flight.
	Dropped int
	// NodeTasks and NodeBusy report per-node executed-task counts and
	// summed task execution time (across that node's workers).
	NodeTasks []int
	NodeBusy  []time.Duration
	// Scheduler observability, per node. NodeLocalHits counts tasks a
	// worker popped from its own deque, NodeSteals tasks taken from a
	// sibling worker's deque. NodeParks counts worker park episodes on
	// the node condvar.
	NodeLocalHits []int
	NodeSteals    []int
	NodeParks     []int
	// Fault counts injected faults and the recovery work that masked
	// them (all zero without a fault plan / the reliable transport).
	Fault fault.Stats
	// Overlap observability for split graphs (all zero when the graph has
	// no inner tasks — the instrumentation is pay-for-use). OverlapRatio
	// is the fraction of wire in-flight time during which at least one
	// interior (KindInner) task was executing somewhere: how much of the
	// communication the split transform actually hid behind compute.
	// InteriorTasks and BorderTasks count executed tasks of those kinds.
	OverlapRatio  float64
	InteriorTasks int
	BorderTasks   int
	// Inter-node work stealing (all zero without an active Options.Steal).
	// StealsRemote counts migrated tasks this rank executed for a peer;
	// MigratedTasks counts tasks this rank shipped out, MigratedBytes the
	// wire bytes their migration round trips moved (input state + results).
	// After the distributed epilogue rank 0 holds the global sums; steal
	// traffic is never folded into Messages/BytesSent.
	StealsRemote  int
	MigratedTasks int
	MigratedBytes int
}

// BundleFill returns the average number of member payloads per coalesced
// message (0 when no bundles were sent). A fill equal to the neighbor-pair
// dependency count means every exchange collapsed to one message.
func (r *Result) BundleFill() float64 {
	if r.BundlesSent == 0 {
		return 0
	}
	return float64(r.BundleSegments) / float64(r.BundlesSent)
}

type sendReq struct {
	task int32 // consumer task (point-to-point only)
	dep  int32
	// bundle is the 1-based id of a completed bundle to pack and send;
	// 0 marks a point-to-point request.
	bundle int32
}

type execNode struct {
	id    int32
	store *Store
	env   ptg.Env // the node's environment, boxed once
	mu    sync.Mutex
	cond  *sync.Cond
	// queue is the node-level injection queue (root seeding, the comm
	// goroutine, the steal agent). Guarded by mu.
	queue readyQueue
	// wakeSeq, guarded by mu, is bumped by deque producers that want to
	// wake parked workers; a parker re-checks it before sleeping, which
	// closes the lost-wakeup race with lock-free deque pushes.
	wakeSeq uint64
	// deques holds one Chase-Lev deque per worker.
	deques []*deque
	parked atomic.Int32 // workers currently in (or entering) the park path

	localHits atomic.Int64
	steals    atomic.Int64
	parks     atomic.Int64

	sendQ chan sendReq
	inbox chan Message
	// commReady is the comm goroutine's scratch for batched successor
	// release after a bundle fan-out (only that goroutine touches it).
	commReady []int32

	// Fault-injection/recovery state (see fault.go; all nil/zero without
	// a plan or the reliable transport). rel and outSeq are comm-goroutine
	// owned; coreSeq[c] is owned by the worker goroutine of core c;
	// pauseUntil (unix nanos) gates the whole node through maybePause.
	rel        *relState
	outSeq     int
	coreSeq    []int
	pauseUntil atomic.Int64
	// relPending mirrors len(rel.outstanding) for readers outside the comm
	// goroutine: the distributed drain (dist.go) polls it to learn when
	// every reliable send has been acknowledged.
	relPending atomic.Int64
}

// wake bumps the wake sequence and wakes up to n parked workers. Called by
// a worker whose lock-free deque pushes left surplus work while siblings
// were parked; waking surplus-many (not all) avoids a thundering herd that
// would just re-scan and re-park.
func (nd *execNode) wake(n int) {
	nd.mu.Lock()
	nd.wakeSeq++
	for i := 0; i < n; i++ {
		nd.cond.Signal()
	}
	nd.mu.Unlock()
}

type executor struct {
	g         *ptg.Graph
	opts      Options
	traceComm bool // opts.Trace != nil && opts.TraceComm
	nodes     []*execNode
	pending   []int32 // remaining dep count per task (atomic)
	t0        time.Time

	// Coalescing state (nil/empty with coalescing off): the bundle plan,
	// and per task/dep the bundle index (-1 = unbundled). See coalesce.go.
	bundles   []execBundle
	depBundle [][]int32

	nodeTasks []atomic.Int64
	nodeBusy  []atomic.Int64 // nanoseconds

	// Overlap instrumentation (see overlap.go), active only when the graph
	// carries KindInner tasks. innerIv[node*Workers+core] is owned by that
	// worker goroutine; commIv[node] by that node's comm goroutine — both
	// are read only after the run's WaitGroup settles.
	overlapOn     bool
	innerIv       [][]span
	commIv        [][]span
	interiorTasks atomic.Int64
	borderTasks   atomic.Int64

	completed atomic.Int64
	total     int64
	done      atomic.Bool
	// cancelled marks a context-driven stop: workers discard ready tasks
	// and exit instead of draining their queues (a failed task, by
	// contrast, lets already-queued work keep running).
	cancelled     atomic.Bool
	progressEvery int64
	finished      chan struct{}

	// Distribution state (see dist.go; nil/aliased for single-process runs).
	// commStop is what comm goroutines drain on: it aliases finished in a
	// single-process run, but a distributed run keeps its comm goroutines
	// alive past local completion (peers still need acks and dedup) and
	// closes commStop only after the drain barrier. commClosed mirrors the
	// close for the deliver path.
	dist       *Dist
	nodeRank   []int32
	commStop   chan struct{}
	commClosed atomic.Bool

	// Inter-node work stealing (see steal.go; all nil/zero unless
	// Options.Steal is active). stealAvg[n] is a per-node EWMA of task
	// nanos feeding the cost gate; the three counters are the migration
	// accounting behind Result.StealsRemote/MigratedTasks/MigratedBytes.
	agent         *stealAgent
	forcedSteal   map[int32]int
	stealAvg      []atomic.Int64
	stealsRemote  atomic.Int64
	migratedTasks atomic.Int64
	migratedBytes atomic.Int64

	messages       atomic.Int64
	bytesSent      atomic.Int64
	bundlesSent    atomic.Int64
	bundleSegments atomic.Int64
	dropped        atomic.Int64

	// Fault layer (see fault.go): the plan (nil = no injection), the
	// recovery policy (reliable = Recovery enabled), the counters, and
	// the wait group tracking background deliveries (injected delays,
	// overflow enqueues) so the final accounting sweep is exact.
	fplan    *fault.Plan
	rec      fault.Recovery
	reliable bool
	bgWg     sync.WaitGroup
	fStats   struct {
		dropped, duplicated, delayed    atomic.Int64
		retransmits, dupDrops, timeouts atomic.Int64
	}

	errMu  sync.Mutex
	runErr error
}

type env struct {
	node  int32
	store *Store
}

func (e env) NodeID() int                     { return int(e.node) }
func (e env) PutSlot(slot int32, v any)       { e.store.PutSlot(slot, v) }
func (e env) GetSlot(slot int32) any          { return e.store.GetSlot(slot) }
func (e env) PutBufSlot(slot int32, b []byte) { e.store.PutBufSlot(slot, b) }
func (e env) TakeBufSlot(slot int32) []byte   { return e.store.TakeBufSlot(slot) }

// Run executes the graph to completion and returns the result. It is an
// error if the graph deadlocks due to a malformed dependency structure
// (detected as global quiescence before completion) or if a task panics.
func Run(g *ptg.Graph, opts Options) (*Result, error) {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, &ptg.CancelError{Engine: "runtime", Total: len(g.Tasks), Err: err}
		}
	}
	if err := opts.Fault.Validate(); err != nil {
		return nil, err
	}
	if opts.Recovery == nil && opts.Fault.NeedsRecovery() {
		// Drops need retransmit, duplicates need dedup, pauses need the
		// fail-fast deadline: injecting them over the plain wire would
		// hang or corrupt, so the reliable transport comes on by default.
		opts.Recovery = fault.DefaultRecovery()
	}
	ex := &executor{
		g:         g,
		opts:      opts,
		traceComm: opts.Trace != nil && opts.TraceComm,
		pending:   make([]int32, len(g.Tasks)),
		total:     int64(len(g.Tasks)),
		finished:  make(chan struct{}),
		nodeTasks: make([]atomic.Int64, g.NumNodes),
		nodeBusy:  make([]atomic.Int64, g.NumNodes),
	}
	ex.commStop = ex.finished
	if opts.Dist != nil {
		if err := validateDist(opts.Dist, g.NumNodes); err != nil {
			return nil, err
		}
		ex.dist = opts.Dist
		ex.nodeRank = make([]int32, g.NumNodes)
		for n := range ex.nodeRank {
			ex.nodeRank[n] = int32(RankOfNode(n, g.NumNodes, opts.Dist.Ranks))
		}
		ex.commStop = make(chan struct{})
		local := int64(0)
		for i := range g.Tasks {
			if ex.localNode(g.Tasks[i].Node) {
				local++
			}
		}
		ex.total = local
	}
	if opts.Fault.Active() {
		ex.fplan = opts.Fault
	}
	if opts.Recovery != nil {
		ex.reliable = true
		ex.rec = opts.Recovery.WithDefaults()
	}
	if opts.Steal.active() {
		ag, err := newStealAgent(ex)
		if err != nil {
			return nil, err
		}
		ex.agent = ag
	}
	if err := ex.planBundles(); err != nil {
		return nil, err
	}
	for i := range g.Tasks {
		if g.Tasks[i].Kind == ptg.KindInner {
			ex.overlapOn = true
			break
		}
	}
	if ex.overlapOn {
		ex.innerIv = make([][]span, g.NumNodes*opts.Workers)
		ex.commIv = make([][]span, g.NumNodes)
	}

	// Size inboxes and send queues so channel operations never block
	// indefinitely: one slot per cross-node dependency.
	inboxNeed := make([]int, g.NumNodes)
	sendNeed := make([]int, g.NumNodes)
	for i := range g.Tasks {
		t := &g.Tasks[i]
		ex.pending[i] = int32(len(t.Deps))
		for _, d := range t.Deps {
			p := &g.Tasks[d.Producer]
			if p.Node != t.Node {
				inboxNeed[t.Node]++
				sendNeed[p.Node]++
			}
		}
	}
	ex.nodes = make([]*execNode, g.NumNodes)
	for n := 0; n < g.NumNodes; n++ {
		slots, bufSlots := 0, 0
		if g.NodeSlots != nil {
			slots = g.NodeSlots[n]
		}
		if g.NodeBufSlots != nil {
			bufSlots = g.NodeBufSlots[n]
		}
		nd := &execNode{
			id:     int32(n),
			store:  NewStoreWithSlots(slots, bufSlots),
			queue:  newReadyQueue(opts.Policy),
			deques: make([]*deque, opts.Workers),
			sendQ:  make(chan sendReq, sendNeed[n]+1),
			inbox:  make(chan Message, inboxNeed[n]+1),
		}
		for w := range nd.deques {
			nd.deques[w] = newDeque()
		}
		if ex.reliable {
			nd.rel = newRelState(g.NumNodes)
		}
		if ex.fplan != nil {
			nd.coreSeq = make([]int, opts.Workers)
		}
		nd.env = env{node: nd.id, store: nd.store}
		nd.cond = sync.NewCond(&nd.mu)
		ex.nodes[n] = nd
	}
	// Size each node's fan-out scratch for its largest inbound bundle, so
	// the batched release never grows it mid-run.
	for i := range ex.bundles {
		b := &ex.bundles[i]
		nd := ex.nodes[b.dst]
		if cap(nd.commReady) < len(b.members) {
			nd.commReady = make([]int32, 0, len(b.members))
		}
	}

	if ex.total == 0 && ex.dist == nil {
		return &Result{Stores: ex.stores()}, nil
	}
	ex.progressEvery = ex.total / 128
	if ex.progressEvery == 0 {
		ex.progressEvery = 1
	}

	// Distributed runs bind the conduit and hold the start barrier before
	// epoch 0: every rank's lanes are up and bound before any data frame can
	// be produced, so no rank ever receives wire traffic it has no run for.
	if ex.dist != nil {
		if err := ex.dist.Net.Bind(g.NumNodes, ex.deliver, ex.fail); err != nil {
			return nil, err
		}
		if ex.agent != nil {
			// Steal frames must have a handler before any peer can probe:
			// bound before the start barrier, like the data path.
			ex.agent.sc.BindSteal(ex.agent.inject)
		}
		if err := ex.dist.Net.Barrier("start"); err != nil {
			if ex.agent != nil {
				ex.agent.sc.BindSteal(nil)
			}
			ex.dist.Net.Unbind()
			return nil, err
		}
	}

	ex.t0 = time.Now()

	// The context watcher rides the background wait group: it exits the
	// moment the run finishes (ex.finished closes on success and failure
	// alike), so bgWg.Wait below never blocks on it.
	if ctx := opts.Ctx; ctx != nil {
		ex.bgWg.Add(1)
		go func() {
			defer ex.bgWg.Done()
			select {
			case <-ctx.Done():
				ex.cancelled.Store(true)
				ex.fail(&ptg.CancelError{
					Engine: "runtime",
					Done:   int(ex.completed.Load()),
					Total:  int(ex.total),
					Err:    ctx.Err(),
				})
			case <-ex.finished:
			}
		}()
	}

	// Seed the local roots before any worker starts, so the first worker to
	// pop already chooses among all of them (queue policy holds from the
	// first task on).
	for _, r := range g.Roots() {
		if ex.localNode(g.Tasks[r].Node) {
			ex.enqueue(r)
		}
	}

	var wg sync.WaitGroup
	for _, nd := range ex.nodes {
		if !ex.localNode(nd.id) {
			continue
		}
		for w := 0; w < opts.Workers; w++ {
			wg.Add(1)
			go ex.worker(nd, int32(w), &wg)
		}
		wg.Add(1)
		go ex.comm(nd, &wg)
	}
	if ex.agent != nil {
		wg.Add(1)
		go ex.agent.run(&wg)
	}
	if ex.total == 0 {
		// An idle rank (more ranks than populated nodes, or a graph whose
		// tasks all live elsewhere) still owes the peers its barriers and
		// stats, so it completes immediately rather than returning early.
		ex.finish()
	}

	<-ex.finished
	elapsed := time.Since(ex.t0)
	if ex.dist != nil {
		// Keep comm goroutines serving acks/dedup until every peer has
		// drained (or the run's failure is broadcast), then release them.
		ex.distDrain()
		ex.commClosed.Store(true)
		close(ex.commStop)
	}
	wg.Wait()
	// Wait out background deliveries (injected delays, overflow enqueues)
	// so the final accounting sweep below sees every in-flight copy.
	ex.bgWg.Wait()

	// Final sweep: workers may post send requests after their node's comm
	// goroutine has drained and exited (queued tasks keep running after a
	// failure). With all goroutines gone the leftovers sit in the buffered
	// channels; count them so Dropped is exact. A queued bundle stands for
	// all of its member transfers.
	for _, nd := range ex.nodes {
		for drained := true; drained; {
			select {
			case r := <-nd.sendQ:
				ex.dropped.Add(ex.reqTransfers(r))
			case m := <-nd.inbox:
				ex.dropped.Add(ex.droppedTransfers(m))
			default:
				drained = false
			}
		}
	}
	// Under the reliable transport a logical transfer is lost exactly when
	// its sender still holds it unacknowledged and its receiver never saw
	// the sequence number (however many physical copies were in flight).
	// All goroutines are gone, so both tables are quiescent.
	if ex.reliable {
		for _, nd := range ex.nodes {
			for k, p := range nd.rel.outstanding {
				if _, ok := ex.nodes[k.peer].rel.seen[laneSeq{peer: nd.id, seq: k.seq}]; !ok {
					ex.dropped.Add(ex.msgTransfers(p.m))
				}
			}
		}
	}
	// Partially filled bundles hold produced payloads that never earned a
	// send request (the bundle waits for its last member); count them too,
	// so Dropped keeps the invariant produced = delivered + dropped on
	// failed runs. Workers are gone, so the countdowns are settled.
	for i := range ex.bundles {
		b := &ex.bundles[i]
		if rem := b.remaining.Load(); rem > 0 && rem < int32(len(b.members)) {
			ex.dropped.Add(int64(len(b.members)) - int64(rem))
		}
	}

	ex.errMu.Lock()
	err := ex.runErr
	ex.errMu.Unlock()
	res := &Result{
		Elapsed:        elapsed,
		Stores:         ex.stores(),
		Messages:       int(ex.messages.Load()),
		BytesSent:      int(ex.bytesSent.Load()),
		BundlesSent:    int(ex.bundlesSent.Load()),
		BundleSegments: int(ex.bundleSegments.Load()),
		Completed:      int(ex.completed.Load()),
		Dropped:        int(ex.dropped.Load()),
		NodeTasks:      make([]int, g.NumNodes),
		NodeBusy:       make([]time.Duration, g.NumNodes),
		NodeLocalHits:  make([]int, g.NumNodes),
		NodeSteals:     make([]int, g.NumNodes),
		NodeParks:      make([]int, g.NumNodes),
		Fault:          ex.faultStats(),
		StealsRemote:   int(ex.stealsRemote.Load()),
		MigratedTasks:  int(ex.migratedTasks.Load()),
		MigratedBytes:  int(ex.migratedBytes.Load()),
	}
	for n := 0; n < g.NumNodes; n++ {
		res.NodeTasks[n] = int(ex.nodeTasks[n].Load())
		res.NodeBusy[n] = time.Duration(ex.nodeBusy[n].Load())
		res.NodeLocalHits[n] = int(ex.nodes[n].localHits.Load())
		res.NodeSteals[n] = int(ex.nodes[n].steals.Load())
		res.NodeParks[n] = int(ex.nodes[n].parks.Load())
	}
	if ex.overlapOn {
		var comm, inner []span
		for _, iv := range ex.commIv {
			comm = append(comm, iv...)
		}
		for _, iv := range ex.innerIv {
			inner = append(inner, iv...)
		}
		res.OverlapRatio = trace.OverlapRatio(comm, inner)
		res.InteriorTasks = int(ex.interiorTasks.Load())
		res.BorderTasks = int(ex.borderTasks.Load())
	}
	if ex.dist != nil {
		if err == nil {
			if gerr := ex.distExchangeStats(res); gerr != nil {
				err = gerr
			}
		}
		if ex.agent != nil {
			ex.agent.sc.BindSteal(nil)
		}
		ex.dist.Net.Unbind()
	}
	if err != nil {
		// The partial result accompanies the error so callers can audit
		// what moved (and what was dropped) in the failed run.
		return res, err
	}
	return res, nil
}

func (ex *executor) stores() []*Store {
	out := make([]*Store, len(ex.nodes))
	for i, nd := range ex.nodes {
		out[i] = nd.store
	}
	return out
}

func (ex *executor) fail(err error) {
	ex.errMu.Lock()
	if ex.runErr == nil {
		ex.runErr = err
	}
	ex.errMu.Unlock()
	ex.finish()
}

// finish marks the execution complete and wakes everything up.
func (ex *executor) finish() {
	if ex.done.CompareAndSwap(false, true) {
		close(ex.finished)
		for _, nd := range ex.nodes {
			nd.mu.Lock()
			nd.cond.Broadcast()
			nd.mu.Unlock()
		}
	}
}

// enqueue makes a task ready on its owning node (or diverts it to the steal
// agent when it is pinned to a remote thief).
func (ex *executor) enqueue(idx int32) {
	if ex.divert(idx) {
		return
	}
	t := &ex.g.Tasks[idx]
	nd := ex.nodes[t.Node]
	nd.mu.Lock()
	nd.queue.push(idx, t.Priority)
	nd.cond.Signal()
	nd.mu.Unlock()
}

// enqueueBatch makes several tasks ready on one node's injection queue under
// a single lock acquisition — the batched release of goroutines that own no
// deque (a bundle fan-out on the comm goroutine, a migration commit on the
// steal agent).
func (ex *executor) enqueueBatch(nd *execNode, tasks []int32) {
	if ex.forcedSteal != nil {
		kept := tasks[:0]
		for _, idx := range tasks {
			if !ex.divert(idx) {
				kept = append(kept, idx)
			}
		}
		if tasks = kept; len(tasks) == 0 {
			return
		}
	}
	nd.mu.Lock()
	for _, idx := range tasks {
		nd.queue.push(idx, ex.g.Tasks[idx].Priority)
	}
	if len(tasks) == 1 {
		nd.cond.Signal()
	} else {
		nd.cond.Broadcast()
	}
	nd.mu.Unlock()
}

// satisfy decrements a task's pending count and enqueues it at zero.
func (ex *executor) satisfy(idx int32) {
	if atomic.AddInt32(&ex.pending[idx], -1) == 0 {
		ex.enqueue(idx)
	}
}

// worker is the compute loop, mirroring the paper's PaRSEC configuration
// (per-core task queues with job stealing): own deque first (LIFO,
// cache-hot successors), then siblings' deques (FIFO steal), then the
// node-level injection queue, then park. The park protocol pairs the
// atomic parked counter with a re-scan: a deque producer either sees
// parked > 0 (and bumps wakeSeq under the lock) or its push is ordered
// before the parker's final scan — sequential consistency of both atomics
// rules out the lost wakeup.
func (ex *executor) worker(nd *execNode, core int32, wg *sync.WaitGroup) {
	defer wg.Done()
	own := nd.deques[core]
	var ready []int32 // per-worker scratch for successor release
	for {
		if ex.cancelled.Load() {
			return
		}
		ex.maybePause(nd)
		idx, stolen, ok := ex.findWork(nd, core, own)
		if !ok {
			if ex.done.Load() {
				return
			}
			nd.mu.Lock()
			seq := nd.wakeSeq
			nd.mu.Unlock()
			nd.parked.Add(1)
			idx, stolen, ok = ex.findWork(nd, core, own)
			if !ok {
				nd.mu.Lock()
				if nd.wakeSeq == seq && nd.queue.size() == 0 && !ex.done.Load() {
					nd.parks.Add(1)
					ex.noteStarve()
					for nd.wakeSeq == seq && nd.queue.size() == 0 && !ex.done.Load() {
						nd.cond.Wait()
					}
				}
				nd.mu.Unlock()
				nd.parked.Add(-1)
				continue
			}
			nd.parked.Add(-1)
		}
		if ex.cancelled.Load() {
			// A context stop discards ready work instead of draining it —
			// promptness is the contract, the accounting sweep owns the
			// leftovers.
			return
		}
		ready = ex.runTask(nd, core, idx, stolen, ready[:0])
	}
}

// findWork implements the steal order: local deque, sibling deques
// (starting just past the caller for spread), injection queue.
func (ex *executor) findWork(nd *execNode, core int32, own *deque) (idx int32, stolen, ok bool) {
	if idx, ok := own.pop(); ok {
		nd.localHits.Add(1)
		return idx, false, true
	}
	n := len(nd.deques)
	for off := 1; off < n; off++ {
		if idx, ok := nd.deques[(int(core)+off)%n].steal(); ok {
			nd.steals.Add(1)
			return idx, true, true
		}
	}
	nd.mu.Lock()
	idx, ok = nd.queue.pop()
	nd.mu.Unlock()
	return idx, false, ok
}

func (ex *executor) runTask(nd *execNode, core int32, idx int32, stolen bool, ready []int32) []int32 {
	defer func() {
		if r := recover(); r != nil {
			ex.fail(fmt.Errorf("runtime: task %v panicked: %v", ex.g.Tasks[idx].ID, r))
		}
	}()
	t := &ex.g.Tasks[idx]
	start := time.Since(ex.t0)
	if extra := ex.slowCoreExtra(nd, core); extra > 0 {
		// A transiently slow core: the task simply takes longer, inside
		// its timed window, so traces and busy accounting show the drag.
		ex.sleepInterruptible(extra)
	}
	if t.Run != nil {
		t.Run(nd.env)
	}
	end := time.Since(ex.t0)
	completed := ex.nodeTasks[nd.id].Add(1)
	ex.nodeBusy[nd.id].Add(int64(end - start))
	if ex.stealAvg != nil {
		// EWMA of task duration, feeding the steal cost gate. Racy
		// read-modify-write is fine: it is a smoothed estimate.
		d := int64(end - start)
		if old := ex.stealAvg[nd.id].Load(); old > 0 {
			d = old + (d-old)/8
		}
		ex.stealAvg[nd.id].Store(d)
	}
	if ex.overlapOn {
		switch t.Kind {
		case ptg.KindInner:
			ex.interiorTasks.Add(1)
			s := int(nd.id)*ex.opts.Workers + int(core)
			ex.innerIv[s] = append(ex.innerIv[s], span{Start: int64(start), End: int64(end)})
		case ptg.KindBorder:
			ex.borderTasks.Add(1)
		}
	}
	if ex.fplan != nil {
		ex.notePause(nd, int(completed))
	}
	if ex.opts.Trace != nil {
		ex.opts.Trace.Record(trace.Event{
			ID: t.ID, Kind: t.Kind, Node: nd.id, Core: core,
			Start: start, End: end, Stolen: stolen,
		})
	}

	// Locality-first successor placement: newly-ready local successors go
	// straight onto this worker's own deque — no lock, no wakeup. The
	// worker pops one back immediately (LIFO), so siblings only need waking
	// when there is surplus beyond that.
	ready = ex.releaseSuccs(nd, idx, ready)
	d := nd.deques[core]
	for _, s := range ready {
		d.push(s)
	}
	if p := int(nd.parked.Load()); p > 0 && len(ready) > 1 {
		if surplus := len(ready) - 1; surplus < p {
			p = surplus
		}
		nd.wake(p)
	}

	ex.completeTask()
	return ready
}

// releaseSuccs releases a completed task's successors: local deps are
// satisfied directly (newly ready tasks appended to ready, unless pinned to
// a remote thief — those divert to the steal agent), cross-node deps are
// handed to the communication goroutine. Under coalescing a cross dep only
// decrements its bundle's countdown; the completion that zeroes it posts one
// send request for the whole bundle. Shared by runTask and the migration
// commit.
func (ex *executor) releaseSuccs(nd *execNode, idx int32, ready []int32) []int32 {
	t := &ex.g.Tasks[idx]
	for _, sIdx := range t.Succs {
		s := &ex.g.Tasks[sIdx]
		for dIdx := range s.Deps {
			if s.Deps[dIdx].Producer != idx {
				continue
			}
			if s.Node == t.Node {
				if atomic.AddInt32(&ex.pending[sIdx], -1) == 0 {
					if ex.divert(sIdx) {
						continue
					}
					ready = append(ready, sIdx)
				}
			} else if ex.depBundle != nil && ex.depBundle[sIdx][dIdx] >= 0 {
				bi := ex.depBundle[sIdx][dIdx]
				if ex.bundles[bi].remaining.Add(-1) == 0 {
					nd.sendQ <- sendReq{bundle: bi + 1}
				}
			} else {
				nd.sendQ <- sendReq{task: sIdx, dep: int32(dIdx)}
			}
		}
	}
	return ready
}

// completeTask advances the run's completion counters — the tail shared by
// runTask and the migration commit.
func (ex *executor) completeTask() {
	done := ex.completed.Add(1)
	if ex.opts.OnProgress != nil && (done%ex.progressEvery == 0 || done == ex.total) {
		ex.opts.OnProgress(done, ex.total)
	}
	if done == ex.total {
		ex.finish()
	}
}

// comm is the per-node communication goroutine: it serializes outgoing
// payloads (Pack) and deposits incoming ones (Unpack), mirroring PaRSEC's
// dedicated communication thread.
func (ex *executor) comm(nd *execNode, wg *sync.WaitGroup) {
	defer wg.Done()
	e := nd.env
	// The reliable transport drives retransmission off a ticker at a
	// quarter of the initial ack timeout: fine enough that a timeout is
	// noticed promptly, coarse enough that an idle run stays idle.
	var tickC <-chan time.Time
	if ex.reliable {
		iv := ex.rec.Timeout / 4
		if iv < time.Millisecond {
			iv = time.Millisecond
		}
		t := time.NewTicker(iv)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case req := <-nd.sendQ:
			ex.maybePause(nd)
			ex.send(e, nd, req)
		case m := <-nd.inbox:
			ex.maybePause(nd)
			ex.receive(nd, m)
		case <-tickC:
			ex.retransmitDue(nd)
		case <-ex.commStop:
			// Drain anything already queued, counting the discards: a
			// dropped transfer is data the accounting says moved (or was
			// about to move) but that never reached its consumer. A bundle
			// counts once per member payload it stands for.
			for {
				select {
				case r := <-nd.sendQ:
					ex.dropped.Add(ex.reqTransfers(r))
				case m := <-nd.inbox:
					ex.dropped.Add(ex.droppedTransfers(m))
				default:
					return
				}
			}
		}
	}
}

// deliver enqueues a message at its destination node. Deliveries after
// shutdown (an interceptor completing late, or any message racing the
// drain) are counted as dropped instead of being parked forever in a dead
// inbox. Inboxes are sized for the plain dataflow's exact message count;
// recovery traffic (acks, duplicates, retransmissions) can exceed that, so
// a full inbox diverts to a tracked background enqueue rather than
// blocking the sending comm goroutine (two mutually full peers would
// deadlock).
func (ex *executor) deliver(m Message) {
	if ex.dist != nil && ex.nodeRank[m.Dst] != int32(ex.dist.Rank) {
		ex.sendRemote(m)
		return
	}
	stopped := ex.done.Load()
	if ex.dist != nil {
		// A distributed run keeps accepting wire traffic (acks, late
		// duplicates) past local completion, until the drain barrier
		// releases the comm goroutines.
		stopped = ex.commClosed.Load()
	}
	if stopped {
		ex.dropped.Add(ex.droppedTransfers(m))
		return
	}
	select {
	case ex.nodes[m.Dst].inbox <- m:
	default:
		ex.bgWg.Add(1)
		go func() {
			defer ex.bgWg.Done()
			select {
			case ex.nodes[m.Dst].inbox <- m:
			case <-ex.commStop:
				ex.dropped.Add(ex.droppedTransfers(m))
			}
		}()
	}
}

// send dispatches one send request — a coalesced bundle or a point-to-point
// payload — and, when comm tracing is on, records the handling as a
// KindComm event on the node's comm pseudo-core (index Workers).
func (ex *executor) send(e ptg.Env, nd *execNode, req sendReq) {
	ex.maybeStall(nd)
	var start time.Duration
	if ex.traceComm {
		start = time.Since(ex.t0)
	}
	var dst int32
	var segs, bytes int
	if req.bundle != 0 {
		dst = ex.bundles[req.bundle-1].dst
		segs, bytes = ex.sendBundle(e, nd, req.bundle-1)
	} else {
		dst = ex.g.Tasks[req.task].Node
		segs, bytes = ex.sendOne(e, nd, req)
	}
	if ex.traceComm {
		ex.opts.Trace.Record(trace.Event{
			ID:   ptg.TaskID{Class: "send", I: int(dst), J: segs, K: int(req.bundle)},
			Kind: ptg.KindComm, Node: nd.id, Core: int32(ex.opts.Workers),
			Start: start, End: time.Since(ex.t0), Msgs: segs, Bytes: bytes,
		})
	}
}

func (ex *executor) sendOne(e ptg.Env, nd *execNode, req sendReq) (segs, bytes int) {
	defer func() {
		if r := recover(); r != nil {
			ex.fail(fmt.Errorf("runtime: pack for %v panicked: %v", ex.g.Tasks[req.task].ID, r))
		}
	}()
	consumer := &ex.g.Tasks[req.task]
	dep := &consumer.Deps[req.dep]
	var data []byte
	if dep.Pack != nil {
		data = dep.Pack(e)
	}
	m := Message{Src: nd.id, Dst: consumer.Node, Task: req.task, Dep: req.dep, Data: data}
	if ex.overlapOn {
		m.SentNanos = int64(time.Since(ex.t0))
	}
	ex.messages.Add(1)
	ex.bytesSent.Add(int64(len(data)))
	ex.dispatch(nd, m)
	return 1, len(data)
}

// receive dispatches one inbound message, with the same optional comm
// tracing as send.
func (ex *executor) receive(nd *execNode, m Message) {
	if m.Ack {
		ex.handleAck(nd, m)
		return
	}
	if ex.reliable && m.Seq != 0 && ex.dedup(nd, m) {
		return
	}
	if ex.overlapOn && m.SentNanos > 0 {
		ex.commIv[nd.id] = append(ex.commIv[nd.id], span{Start: m.SentNanos, End: int64(time.Since(ex.t0))})
	}
	var start time.Duration
	if ex.traceComm {
		start = time.Since(ex.t0)
	}
	var segs, bytes int
	if m.Bundle != 0 {
		segs, bytes = ex.receiveBundle(nd, m)
	} else {
		segs, bytes = ex.receiveOne(nd, m)
	}
	if ex.traceComm {
		ex.opts.Trace.Record(trace.Event{
			ID:   ptg.TaskID{Class: "recv", I: int(m.Src), J: segs, K: int(m.Bundle)},
			Kind: ptg.KindComm, Node: nd.id, Core: int32(ex.opts.Workers),
			Start: start, End: time.Since(ex.t0), Msgs: segs, Bytes: bytes,
		})
	}
}

func (ex *executor) receiveOne(nd *execNode, m Message) (segs, bytes int) {
	defer func() {
		if r := recover(); r != nil {
			ex.fail(fmt.Errorf("runtime: unpack for %v panicked: %v", ex.g.Tasks[m.Task].ID, r))
		}
	}()
	dep := &ex.g.Tasks[m.Task].Deps[m.Dep]
	if dep.Unpack != nil {
		dep.Unpack(nd.env, m.Data)
	}
	ex.satisfy(m.Task)
	return 1, len(m.Data)
}
