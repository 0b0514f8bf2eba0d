package runtime

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"castencil/internal/fault"
	"castencil/internal/ptg"
	"castencil/internal/trace"
)

// This file is the runtime's inter-node work-stealing layer: the intra-node
// Chase-Lev deques extended across ranks of a distributed run, per
// "Distributed Work Stealing in a Task-Based Dataflow Runtime".
//
// One steal agent goroutine per rank speaks a three-message protocol
// (request, offer, return). As a thief, the agent probes data-affine victims
// when the rank's workers starve; a victim answers by popping a migratable
// ready task and shipping its entire input state (tile contents plus
// delivered halo payloads — the hooks ptg.Graph.Hooks builds for the task
// once its steal is granted). The thief executes the task against its
// replica store of the victim's node (every rank allocates stores for all
// nodes) and ships the results back; the victim commits them into the home
// store bitwise-identically to local execution and releases the successors.
// Forced plans skip the request: the victim offers a pinned task the moment
// it becomes ready. Migration traffic is real wire traffic, accounted apart
// (Result.StealsRemote/MigratedTasks/MigratedBytes) from the dataflow's
// Messages/BytesSent.
//
// A steal message is an ordinary Message between the endpoint nodes of two
// ranks — each rank's first owned node. Its identity is a fault.MsgID like
// any halo's: Task is the task (-1 on requests and empty offers), Dep the
// negated kind (offset by 8 on forced exchanges, so it never collides with a
// dependency index) and Bundle the negated exchange id. The endpoint's comm
// goroutine sends, sequences, fault-injects, acks, deduplicates and
// retransmits it exactly like a halo (fault.go) and hands each delivery to
// the agent. Steal traffic is therefore reliable exactly when the run is,
// and the protocol itself keeps no retransmit state: every message arrives
// once, so a request is answered once and a return commits once.
//
// The drain barrier is the completion fence: a migrated task counts toward
// the victim's total, so the victim cannot enter the "drain" barrier until
// every migration committed; the thief's agent and comm goroutines stay
// alive until commStop, which closes only after its own barrier returns —
// which requires the victim to have entered. Mid-flight migrations therefore
// always complete before any agent shuts down.

// StealMode selects the inter-node work-stealing policy of a distributed
// run.
type StealMode int

const (
	// StealOff disables inter-node stealing (the default). Stealing
	// between a node's own workers is unaffected.
	StealOff StealMode = iota
	// StealGreedy migrates any ready migratable task to a starving rank.
	StealGreedy
	// StealGated migrates only when the policy's Gate says the modeled
	// transfer time is below the task's expected local wait (queue depth
	// times the node's average task duration).
	StealGated
)

func (m StealMode) String() string {
	switch m {
	case StealOff:
		return "off"
	case StealGreedy:
		return "greedy"
	case StealGated:
		return "gated"
	}
	return "unknown"
}

// StealNames lists the values the -steal flag accepts.
const StealNames = "off, greedy, gated"

// ParseSteal maps a steal-mode name ("off" or "", "greedy", "gated") to a
// StealMode.
func ParseSteal(name string) (StealMode, error) {
	switch name {
	case "", "off":
		return StealOff, nil
	case "greedy":
		return StealGreedy, nil
	case "gated":
		return StealGated, nil
	}
	return StealOff, fmt.Errorf("unknown steal mode %q (want %s)", name, StealNames)
}

// ForcedSteal pins one task's execution to a thief rank (see
// ptg.ForcedSteal): the simulator follows the same script exactly, which is
// what the sim==real parity suite leans on.
type ForcedSteal = ptg.ForcedSteal

// StealPolicy configures inter-node work stealing for a distributed run.
// Every rank must be handed the same policy (ranks agree on forced
// migrations and gating the way they agree on the graph).
type StealPolicy struct {
	Mode StealMode
	// Gate models the migration round trip for a task with the given
	// input/output payload sizes (machine.Network.MigrationTime is the
	// canonical implementation). Only consulted under StealGated.
	Gate func(inBytes, outBytes int) time.Duration
	// Force lists deterministic migrations applied in every mode (including
	// StealOff — forcing is orthogonal to dynamic stealing).
	Force []ForcedSteal
}

// active reports whether the policy asks for any stealing machinery at all.
func (p *StealPolicy) active() bool {
	return p != nil && (p.Mode != StealOff || len(p.Force) > 0)
}

// Steal protocol message kinds, carried negated in Message.Dep.
const (
	// stealReq is a thief's probe: "have you got a migratable task?".
	stealReq = 1
	// stealRsp is the victim's answer: a task offer carrying the packed
	// input state, or an empty answer (Task < 0). On a forced exchange it
	// is an unsolicited offer for a pinned task.
	stealRsp = 2
	// stealRet is the thief's return: the executed task's packed results.
	stealRet = 3
	// stealForced offsets the kind of a forced exchange's messages.
	stealForced = 8
)

// IsSteal reports whether m is a steal-protocol message (see the file
// comment). The acks of steal messages carry the same Dep, so transports
// count them as steal traffic too.
func (m Message) IsSteal() bool { return m.Dep < 0 }

// stealAgent is a rank's steal-protocol endpoint, one goroutine per
// executor. All fields below the channels are owned by that goroutine.
type stealAgent struct {
	ex *executor
	// ep is the rank's endpoint node: its comm goroutine carries every steal
	// message this rank sends or receives.
	ep *execNode

	inbox   chan Message     // deliveries from the endpoint's comm goroutine
	forcedQ chan int32       // pinned tasks diverted at their readiness site
	starve  chan struct{}    // starvation signal from parking workers
	retry   <-chan time.Time // probe backoff; nil while not backing off

	// nextID numbers the exchanges this rank starts (probes and forced
	// offers); an answer reuses its request's id.
	nextID int32

	// Thief state.
	victims []int // remote ranks, most data-affine first
	vIdx    int
	probing bool
	hungry  bool
	empties int
	backoff time.Duration
}

const (
	stealProbeBackoffMin = time.Millisecond
	stealProbeBackoffMax = 50 * time.Millisecond
	// stealQueueLen buffers the agent's inbox and its endpoint's outbound
	// queue. A rank pair has a few steal messages in flight at a time (one
	// probe per thief, its offer and return, plus forced offers), so the
	// queues rarely fill; past it the inbox spills (post) and the outbound
	// queue blocks, which cannot deadlock because the comm goroutine never
	// blocks on the agent.
	stealQueueLen = 64
)

// newStealAgent validates the policy against the run and builds the agent.
// Called from newExecutor once the nodes exist.
func newStealAgent(ex *executor) (*stealAgent, error) {
	if ex.dist == nil {
		return nil, fmt.Errorf("runtime: Options.Steal requires a distributed run (Options.Dist)")
	}
	forced, err := ex.g.PinForced(ex.opts.Steal.Force, ex.dist.Ranks, func(n int) int { return int(ex.nodeRank[n]) })
	if err != nil {
		return nil, err
	}
	if len(forced) > 0 {
		ex.forcedSteal = forced
	}
	ag := &stealAgent{
		ex:      ex,
		ep:      ex.nodes[ex.endpoint(ex.dist.Rank)],
		inbox:   make(chan Message, stealQueueLen),
		forcedQ: make(chan int32, len(forced)+1),
		starve:  make(chan struct{}, 1),
		victims: ex.rankAffinity(),
		backoff: stealProbeBackoffMin,
	}
	ag.ep.stealOut = make(chan Message, stealQueueLen)
	ex.stealAvg = make([]atomic.Int64, ex.g.NumNodes)
	return ag, nil
}

// endpoint returns the steal endpoint of a rank: the first node RankOfNode
// deals it.
func (ex *executor) endpoint(rank int) int32 {
	return int32(rank * ex.g.NumNodes / ex.dist.Ranks)
}

// rankAffinity orders the remote ranks for victim selection: ranks whose
// tiles exchange the most halo bytes with this rank's tiles first — stealing
// from a neighbor moves data that was (or will be) on this rank's lanes
// anyway, the data-movement-aware choice of the paper.
func (ex *executor) rankAffinity() []int {
	self := int32(ex.dist.Rank)
	w := make([]int64, ex.dist.Ranks)
	for i := range ex.g.Tasks {
		t := &ex.g.Tasks[i]
		tr := ex.nodeRank[t.Node]
		for di := range t.Deps {
			pr := ex.nodeRank[ex.g.Tasks[t.Deps[di].Producer].Node]
			if pr == tr {
				continue
			}
			if pr == self {
				w[tr] += int64(t.Deps[di].Bytes)
			} else if tr == self {
				w[pr] += int64(t.Deps[di].Bytes)
			}
		}
	}
	order := make([]int, 0, ex.dist.Ranks-1)
	for r := 0; r < ex.dist.Ranks; r++ {
		if r != int(self) {
			order = append(order, r)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return w[order[i]] > w[order[j]] })
	return order
}

// noteStarve signals the agent that a worker is about to park with nothing
// to run. Non-blocking, called from the worker park paths.
func (ex *executor) noteStarve() {
	if ag := ex.agent; ag != nil {
		select {
		case ag.starve <- struct{}{}:
		default:
		}
	}
}

// divert intercepts a task becoming ready when it is pinned to a remote
// thief: instead of a local queue it goes to the steal agent. The nil-map
// check keeps the cost of the common case at one branch. Each task becomes
// ready exactly once, so the buffered forcedQ send never blocks.
func (ex *executor) divert(idx int32) bool {
	if ex.forcedSteal == nil {
		return false
	}
	if _, ok := ex.forcedSteal[idx]; !ok {
		return false
	}
	ex.agent.forcedQ <- idx
	return true
}

// post hands one deduplicated steal delivery from the endpoint's comm
// goroutine to the agent. The comm goroutine must never block on the agent
// (the agent blocks on it when sending), so a full inbox spills to a
// tracked background send, like deliver's.
func (ag *stealAgent) post(m Message) {
	select {
	case ag.inbox <- m:
	default:
		ex := ag.ex
		ex.bgWg.Add(1)
		go func() {
			defer ex.bgWg.Done()
			select {
			case ag.inbox <- m:
			case <-ex.commStop:
				PutBuf(m.Data)
			}
		}()
	}
}

// send addresses one steal message to a peer endpoint and queues it on this
// rank's endpoint comm goroutine, which owns the wire from there on.
func (ag *stealAgent) send(dst int32, kind int32, forced bool, id, task int32, data []byte) {
	if forced {
		kind += stealForced
	}
	m := newMessage(fault.MsgID{Src: ag.ep.id, Dst: dst, Task: task, Dep: -kind, Bundle: -id}, data)
	select {
	case ag.ep.stealOut <- m:
	case <-ag.ex.commStop:
		PutBuf(data)
	}
}

// run is the agent goroutine: victim and thief endpoints multiplexed over
// one select, alive until commStop (past local completion — peers may still
// be returning migrated work).
func (ag *stealAgent) run(wg *sync.WaitGroup) {
	defer wg.Done()
	ex := ag.ex
	for {
		select {
		case <-ex.commStop:
			ag.drain()
			return
		case idx := <-ag.forcedQ:
			ag.guard(func() { ag.offerForced(idx) })
		case m := <-ag.inbox:
			ag.guard(func() { ag.handle(m) })
		case <-ag.starve:
			ag.hungry = true
			ag.empties = 0
			ag.backoff = stealProbeBackoffMin
			ag.guard(ag.maybeProbe)
		case <-ag.retry:
			ag.retry = nil
			ag.guard(ag.maybeProbe)
		}
	}
}

// guard confines a handler panic (a Pack/Deposit bug, not a protocol state)
// to a failed run instead of a crashed process.
func (ag *stealAgent) guard(f func()) {
	defer func() {
		if r := recover(); r != nil {
			ag.ex.fail(fmt.Errorf("runtime: steal agent panicked: %v", r))
		}
	}()
	f()
}

// drain empties the inbox at shutdown, recycling payload buffers.
func (ag *stealAgent) drain() {
	for {
		select {
		case m := <-ag.inbox:
			PutBuf(m.Data)
		default:
			return
		}
	}
}

// handle dispatches one inbound protocol message.
func (ag *stealAgent) handle(m Message) {
	kind, forced := -m.Dep, false
	if kind > stealForced {
		kind, forced = kind-stealForced, true
	}
	switch kind {
	case stealReq:
		ag.answer(m)
	case stealRsp:
		ag.onOffer(m, forced)
	case stealRet:
		ag.ex.commitMigrated(m.Task, m.Data)
	}
}

// --- thief ---

// maybeProbe sends the next steal probe if the rank is hungry, idle-handed
// and actually out of local work. Dynamic pulling is what Mode enables;
// under StealOff a forced-only policy runs scripted migrations and nothing
// else, which is what keeps forced runs deterministic.
func (ag *stealAgent) maybeProbe() {
	ex := ag.ex
	if ex.opts.Steal.Mode == StealOff {
		return
	}
	if !ag.hungry || ag.probing || ag.retry != nil || len(ag.victims) == 0 || ex.done.Load() {
		return
	}
	for _, nd := range ex.nodes {
		if !ex.localNode(nd.id) {
			continue
		}
		nd.mu.Lock()
		n := nd.queue.Len()
		nd.mu.Unlock()
		if n > 0 {
			ag.hungry = false
			return
		}
	}
	v := ag.victims[ag.vIdx%len(ag.victims)]
	ag.vIdx++
	ag.nextID++
	ag.probing = true
	ag.send(ex.endpoint(v), stealReq, false, ag.nextID, -1, nil)
}

// onOffer handles a victim's offer: execute it and return the results. An
// answer to this rank's probe also moves the probing on — an empty one to
// the next victim, or to a backed-off retry after a full empty round.
func (ag *stealAgent) onOffer(m Message, forced bool) {
	if !forced {
		ag.probing = false
		if m.Task < 0 {
			ag.empties++
			if ag.empties >= len(ag.victims) {
				// A full round of empty answers: everyone is as poor as we
				// are — back off before the next round.
				ag.empties = 0
				ag.backoff = min(2*ag.backoff, stealProbeBackoffMax)
				ag.retry = time.After(ag.backoff)
				return
			}
			ag.maybeProbe()
			return
		}
		ag.empties = 0
		ag.backoff = stealProbeBackoffMin
	}
	out := ag.ex.execMigrated(m.Task, m.Data)
	if out == nil {
		return
	}
	ag.send(m.Src, stealRet, forced, -m.Bundle, m.Task, out)
	if !forced {
		ag.maybeProbe()
	}
}

// --- victim ---

// answer serves a thief's probe: pop a migratable ready task and offer it
// with its packed input state, or answer empty.
func (ag *stealAgent) answer(m Message) {
	ex := ag.ex
	task, in := int32(-1), []byte(nil)
	if idx, ok := ex.stealPop(); ok {
		t := &ex.g.Tasks[idx]
		task, in = idx, ex.g.Hooks(t).PackIn(ex.nodes[t.Node].store)
	}
	ag.send(m.Src, stealRsp, false, -m.Bundle, task, in)
}

// offerForced ships a pinned task that just became ready to its thief.
func (ag *stealAgent) offerForced(idx int32) {
	ex := ag.ex
	t := &ex.g.Tasks[idx]
	ag.nextID++
	ag.send(ex.endpoint(ex.forcedSteal[idx]), stealRsp, true, ag.nextID, idx, ex.g.Hooks(t).PackIn(ex.nodes[t.Node].store))
}

// --- executor-side mechanics ---

// stealPop pops one migratable ready task for a remote thief: injection
// queues first (only from a backlog of at least two, so the pop never idles
// a local worker), then deque tails — the oldest, least cache-affine work of
// busy workers, the natural migration candidates. Non-migratable or
// not-worth-shipping candidates are handed back through the injection queue
// (deque pushes are owner-only).
func (ex *executor) stealPop() (int32, bool) {
	for _, nd := range ex.nodes {
		if !ex.localNode(nd.id) {
			continue
		}
		nd.mu.Lock()
		if depth := nd.queue.Len(); depth >= 2 {
			var kept [8]int32
			nk := 0
			found := int32(-1)
			for nk < len(kept) && nd.queue.Len() > 1 {
				idx, ok := nd.queue.Pop()
				if !ok {
					break
				}
				if t := &ex.g.Tasks[idx]; t.Mig != nil && ex.stealWorth(nd, t, depth) {
					found = idx
					break
				}
				kept[nk] = idx
				nk++
			}
			for i := 0; i < nk; i++ {
				nd.queue.Push(kept[i], ex.g.Tasks[kept[i]].Priority)
			}
			nd.mu.Unlock()
			if found >= 0 {
				return found, true
			}
		} else {
			nd.mu.Unlock()
		}
		for _, d := range nd.deques {
			if d.size() < 2 {
				continue
			}
			idx, ok := d.steal()
			if !ok {
				continue
			}
			t := &ex.g.Tasks[idx]
			if t.Mig != nil && ex.stealWorth(nd, t, d.size()+1) {
				return idx, true
			}
			nd.mu.Lock()
			nd.queue.Push(idx, t.Priority)
			nd.cond.Signal()
			nd.mu.Unlock()
		}
	}
	return -1, false
}

// stealWorth applies the machine-model cost gate: migrate only when the
// modeled round trip beats the task's expected local wait (its queue depth
// times the node's average task duration). Greedy mode skips the gate.
func (ex *executor) stealWorth(nd *execNode, t *ptg.Task, depth int) bool {
	pol := ex.opts.Steal
	if pol.Mode != StealGated || pol.Gate == nil {
		return true
	}
	avg := ex.stealAvg[nd.id].Load()
	if avg == 0 {
		return true // no sample yet: optimistic
	}
	wait := time.Duration(depth) * time.Duration(avg)
	return pol.Gate(t.Mig.InBytes, t.Mig.OutBytes) < wait
}

// execMigrated runs a migrated task against this rank's replica store of its
// home node (every rank allocates stores for all nodes): deposit the shipped
// input state, run the kernel, pack the results for the return trip. It
// consumes in, runs on the agent goroutine (the thief's "communication
// core"), and returns nil when the task panicked (failing the run).
// Completion counters stay with the victim; the thief only counts the steal.
func (ex *executor) execMigrated(idx int32, in []byte) (out []byte) {
	defer func() {
		if r := recover(); r != nil {
			ex.fail(fmt.Errorf("runtime: migrated task %v panicked: %v", ex.g.Tasks[idx].ID, r))
			out = nil
		}
	}()
	t := &ex.g.Tasks[idx]
	nd := ex.nodes[t.Node]
	start := time.Since(ex.t0)
	hooks := ex.g.Hooks(t)
	hooks.Deposit(nd.store, in)
	PutBuf(in)
	if t.Run != nil {
		t.Run(nd.store)
	}
	out = hooks.PackOut(nd.store)
	ex.stealsRemote.Add(1)
	if ex.opts.Trace != nil {
		// The migrated execution happens on this rank's agent, off the home
		// node's compute cores — recorded on the comm pseudo-core so the
		// per-core rows of the home rank stay truthful.
		ex.opts.Trace.Record(trace.Event{
			ID: t.ID, Kind: t.Kind, Node: t.Node, Core: int32(ex.opts.Workers),
			Start: start, End: time.Since(ex.t0), Stolen: true,
		})
	}
	return out
}

// commitMigrated installs a migrated task's returned results at its home
// node — after which the store is bitwise-identical to local execution — and
// releases its successors. Runs on the victim's agent goroutine; the home
// node's completion counters advance here, so distributed totals fold to
// exactly the single-process numbers. It consumes out.
func (ex *executor) commitMigrated(idx int32, out []byte) {
	defer func() {
		if r := recover(); r != nil {
			ex.fail(fmt.Errorf("runtime: commit of migrated task %v panicked: %v", ex.g.Tasks[idx].ID, r))
		}
	}()
	t := &ex.g.Tasks[idx]
	nd := ex.nodes[t.Node]
	ex.g.Hooks(t).Commit(nd.store, out)
	PutBuf(out)
	ex.migratedTasks.Add(1)
	ex.migratedBytes.Add(int64(t.Mig.InBytes + t.Mig.OutBytes))
	ex.nodeTasks[nd.id].Add(1)
	ready := ex.releaseSuccs(nd, idx, nil)
	if len(ready) > 0 {
		// The agent is not a deque owner; newly-ready successors go through
		// the injection queue like comm-delivered work.
		ex.enqueueBatch(nd, ready)
	}
	ex.completeTask()
}
