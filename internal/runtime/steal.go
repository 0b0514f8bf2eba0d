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
// One steal agent goroutine per rank speaks a four-message protocol over the
// conduit's steal frames (StealReq/StealRsp/StealRet/StealAck). As a thief,
// the agent probes data-affine victims when the rank's workers starve; a
// victim answers by popping a migratable ready task and shipping its entire
// input state (tile contents plus delivered halo payloads — the hooks
// ptg.Graph.Hooks builds for the task once its steal is granted).
// The thief executes the task against its replica store of the victim's node
// (every rank allocates stores for all nodes) and ships the results back;
// the victim commits them into the home store bitwise-identically to local
// execution and releases the successors. Migration traffic is real wire
// traffic, accounted separately (Result.StealsRemote/MigratedTasks/
// MigratedBytes) from the dataflow's Messages/BytesSent.
//
// Exactly-once under drops: each exchange carries a per-(victim,thief)
// monotonic id. The thief owns the request/return retransmit timers, the
// victim owns the forced-offer timer; the victim answers a retransmitted
// request with the cached offer (same id, same task — never a second pop,
// which could strand the first offer) and a duplicated return with a fresh
// ack, committing only ids above its watermark. Lanes are FIFO and only
// sender-side injected drops exist, so stale ids can simply be ignored.
//
// The drain barrier is the completion fence: a migrated task counts toward
// the victim's total, so the victim cannot enter the "drain" barrier until
// every migration committed; the thief's agent stays alive until commStop,
// which closes only after its own barrier returns — which requires the
// victim to have entered. Mid-flight migrations therefore always complete
// before any agent shuts down.

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

// Steal protocol message kinds (StealMsg.Kind).
const (
	// StealReq is a thief's probe: "have you got a migratable task?".
	StealReq byte = 1
	// StealRsp is the victim's answer: a task offer carrying the packed
	// input state, or an empty answer (Task < 0). With Forced set it is an
	// unsolicited offer for a pinned task.
	StealRsp byte = 2
	// StealRet is the thief's return: the executed task's packed results.
	StealRet byte = 3
	// StealAck acknowledges a return, letting the thief free its cache.
	StealAck byte = 4
)

// StealMsg is one steal-protocol message. It travels as a dedicated frame
// kind on the conduit's existing lanes (internal/netcomm) so migration rides
// the same sockets, buffers and tracing as halo traffic.
type StealMsg struct {
	Kind    byte
	From    int    // sender rank
	ID      uint64 // per-(victim,thief) exchange id, monotonic per Forced space
	Task    int32  // task index; -1 on probes and empty answers
	Forced  bool
	Attempt int32 // delivery attempt, keying the fault plan
	Data    []byte
}

// StealConduit is the optional steal extension of Conduit. A conduit that
// implements it can carry steal frames; BindSteal's handler runs on the
// transport's read goroutine and must never block (the agent's inbox send is
// non-blocking — overflow drops are recovered by the protocol's retransmit
// timers). BindSteal(nil) unbinds.
type StealConduit interface {
	SendSteal(dst int, m StealMsg) error
	BindSteal(h func(StealMsg))
}

// stealMsgID maps a steal frame to its engine-independent fault identity:
// Dep carries the negated protocol kind (forced exchanges offset by 8) so
// steal decisions never collide with data-message identities, Bundle the
// negated exchange id.
func stealMsgID(src, dst int, m StealMsg) fault.MsgID {
	kind := int32(m.Kind)
	if m.Forced {
		kind += 8
	}
	return fault.MsgID{Src: int32(src), Dst: int32(dst), Task: m.Task, Dep: -kind, Bundle: -int32(m.ID)}
}

// retained is the retransmit state of one timer-owned exchange: the last
// message sent, kept until the peer's answer retires it, its delivery
// attempt and its deadlines.
type retained struct {
	msg     StealMsg
	attempt int32
	firstAt time.Time
	nextAt  time.Time
}

// arm retains m as attempt 0 of a fresh exchange and transmits it to peer.
func (r *retained) arm(ag *stealAgent, peer int, m StealMsg, now time.Time) {
	*r = retained{msg: m, firstAt: now, nextAt: now.Add(ag.rec.TimeoutAt(0))}
	ag.transmit(peer, m, 0)
}

// resend transmits the retained message to peer as its next attempt.
func (r *retained) resend(ag *stealAgent, peer int) {
	r.attempt++
	ag.transmit(peer, r.msg, r.attempt)
}

// tick retransmits the message when its timer is due and re-arms the
// timer with the backed-off timeout. It reports true when the exchange
// outlived the recovery deadline instead, which has failed the run.
func (r *retained) tick(ag *stealAgent, peer int, now time.Time) (failed bool) {
	if !now.After(r.nextAt) {
		return false
	}
	if ag.expired(peer, r.firstAt, now, r.msg) {
		return true
	}
	ag.ex.fStats.retransmits.Add(1)
	r.resend(ag, peer)
	r.nextAt = now.Add(ag.rec.TimeoutAt(r.attempt))
	return false
}

// release recycles the retained message's payload.
func (r *retained) release() {
	if r.msg.Data != nil {
		PutBuf(r.msg.Data)
		r.msg.Data = nil
	}
}

// stealExch is the thief's single in-flight pull exchange: a probe awaiting
// an offer (task == -1), or an executed task awaiting its return ack.
type stealExch struct {
	victim int
	id     uint64
	task   int32
	retained
}

// victimPull is the victim side of one thief's pull stream.
type victimPull struct {
	rspID   uint64    // highest probe id answered
	rsp     *StealMsg // cached offer awaiting its return (nil after commit/empty)
	attempt int32
	doneID  uint64 // highest pull id committed
}

// victimForced is the victim side of the forced stream toward one thief: at
// most one offer in flight (the victim owns its retransmit timer), later
// pinned tasks queue behind it.
type victimForced struct {
	nextID   uint64
	doneID   uint64
	inFlight bool
	retained
	queue []int32
}

// thiefForced is the thief side of one victim's forced stream: the cached
// return awaiting its ack (re-sent on duplicated offers and on the timer).
type thiefForced struct {
	lastID uint64
	have   bool
	retained
}

// stealAgent is a rank's steal-protocol endpoint, one goroutine per
// executor. All fields below the channels are owned by that goroutine.
type stealAgent struct {
	ex  *executor
	sc  StealConduit
	rec fault.Recovery

	inbox   chan StealMsg // fed by the conduit's read goroutine, non-blocking
	forcedQ chan int32    // pinned tasks diverted at their readiness site
	starve  chan struct{} // starvation signal from parking workers

	// Thief state.
	victims   []int // remote ranks, most data-affine first
	vIdx      int
	pullID    uint64
	cur       *stealExch
	hungry    bool
	empties   int
	backoff   time.Duration
	nextProbe time.Time
	fIn       map[int]*thiefForced

	// Victim state.
	pull map[int]*victimPull
	fOut map[int]*victimForced
}

const (
	stealProbeBackoffMin = time.Millisecond
	stealProbeBackoffMax = 50 * time.Millisecond
)

// newStealAgent validates the policy against the run and builds the agent.
// Called from Run after the distribution state is set up.
func newStealAgent(ex *executor) (*stealAgent, error) {
	pol := ex.opts.Steal
	if ex.dist == nil {
		return nil, fmt.Errorf("runtime: Options.Steal requires a distributed run (Options.Dist)")
	}
	sc, ok := ex.dist.Net.(StealConduit)
	if !ok {
		return nil, fmt.Errorf("runtime: conduit %T does not support steal frames (StealConduit)", ex.dist.Net)
	}
	forced, err := ex.g.PinForced(pol.Force, ex.dist.Ranks, func(n int) int { return int(ex.nodeRank[n]) })
	if err != nil {
		return nil, err
	}
	if len(forced) > 0 {
		ex.forcedSteal = forced
	}
	rec := fault.DefaultRecovery().WithDefaults()
	if ex.reliable {
		rec = ex.rec
	}
	ag := &stealAgent{
		ex:      ex,
		sc:      sc,
		rec:     rec,
		inbox:   make(chan StealMsg, 256),
		forcedQ: make(chan int32, len(forced)+1),
		starve:  make(chan struct{}, 1),
		victims: ex.rankAffinity(),
		backoff: stealProbeBackoffMin,
		fIn:     make(map[int]*thiefForced),
		pull:    make(map[int]*victimPull),
		fOut:    make(map[int]*victimForced),
	}
	ex.stealAvg = make([]atomic.Int64, ex.g.NumNodes)
	return ag, nil
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

// inject is the conduit's steal-frame handler. It runs on the transport's
// read goroutine and must never block: an overflowing inbox drops the frame
// (recycling its payload) and lets the retransmit timers recover.
func (ag *stealAgent) inject(m StealMsg) {
	select {
	case ag.inbox <- m:
	default:
		if m.Data != nil {
			PutBuf(m.Data)
		}
	}
}

// run is the agent goroutine: victim and thief endpoints multiplexed over
// one select, alive until commStop (past local completion — peers may still
// be returning migrated work).
func (ag *stealAgent) run(wg *sync.WaitGroup) {
	defer wg.Done()
	ex := ag.ex
	iv := ag.rec.Timeout / 4
	if iv < time.Millisecond {
		iv = time.Millisecond
	}
	tick := time.NewTicker(iv)
	defer tick.Stop()
	for {
		select {
		case <-ex.commStop:
			ag.drain()
			return
		case idx := <-ag.forcedQ:
			ag.guard(func() { ag.forcedReady(idx) })
		case m := <-ag.inbox:
			ag.guard(func() { ag.handle(m) })
		case <-ag.starve:
			ag.hungry = true
			ag.empties = 0
			ag.backoff = stealProbeBackoffMin
			ag.guard(ag.maybeProbe)
		case <-tick.C:
			ag.guard(ag.tick)
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

// drain empties the inbox at shutdown, recycling payload buffers, and frees
// the retained retransmission caches.
func (ag *stealAgent) drain() {
	for {
		select {
		case m := <-ag.inbox:
			if m.Data != nil {
				PutBuf(m.Data)
			}
		default:
			if c := ag.cur; c != nil {
				c.release()
			}
			for _, vp := range ag.pull {
				if vp.rsp != nil && vp.rsp.Data != nil {
					PutBuf(vp.rsp.Data)
					vp.rsp = nil
				}
			}
			for _, vf := range ag.fOut {
				if vf.inFlight {
					vf.release()
				}
			}
			for _, tf := range ag.fIn {
				if tf.have {
					tf.release()
				}
			}
			return
		}
	}
}

// transmit ships one steal frame through the fault plan's wire: steal
// traffic is droppable like any other frame (identity via stealMsgID), and
// every drop is recovered by an owner's retransmit timer.
func (ag *stealAgent) transmit(dst int, m StealMsg, attempt int32) {
	ex := ag.ex
	m.Attempt = attempt
	if ex.fplan != nil && ex.fplan.ShouldDrop(stealMsgID(ex.dist.Rank, dst, m), attempt) {
		ex.fStats.dropped.Add(1)
		return
	}
	if err := ag.sc.SendSteal(dst, m); err != nil {
		ex.fail(err)
	}
}

// handle dispatches one inbound protocol message.
func (ag *stealAgent) handle(m StealMsg) {
	switch m.Kind {
	case StealReq:
		ag.onReq(m)
	case StealRsp:
		if m.Forced {
			ag.onForcedRsp(m)
		} else {
			ag.onPullRsp(m)
		}
	case StealRet:
		ag.onRet(m)
	case StealAck:
		if m.Forced {
			ag.onForcedAck(m)
		} else {
			ag.onPullAck(m)
		}
	}
}

// tick drives the retransmit timers (thief-owned probe/return, victim-owned
// forced offer) and the probe backoff. Runs until commStop: a rank keeps
// recovering peers' exchanges past its own local completion.
func (ag *stealAgent) tick() {
	now := time.Now()
	if c := ag.cur; c != nil && c.tick(ag, c.victim, now) {
		return
	}
	for thief, vf := range ag.fOut {
		if vf.inFlight && vf.tick(ag, thief, now) {
			return
		}
	}
	for victim, tf := range ag.fIn {
		if tf.have && tf.tick(ag, victim, now) {
			return
		}
	}
	if ag.hungry && ag.cur == nil && now.After(ag.nextProbe) {
		ag.maybeProbe()
	}
}

// expired fails the run with a structured report when an exchange has been
// retransmitting past the recovery deadline — the same graceful degradation
// the reliable data transport applies.
func (ag *stealAgent) expired(peer int, first, now time.Time, m StealMsg) bool {
	waited := now.Sub(first)
	if waited < ag.rec.Deadline {
		return false
	}
	ag.ex.fStats.timeouts.Add(1)
	ag.ex.fail(&fault.Report{
		ID:       stealMsgID(ag.ex.dist.Rank, peer, m),
		Seq:      m.ID,
		Attempts: m.Attempt + 1,
		Waited:   waited,
		Deadline: ag.rec.Deadline,
		Stats:    ag.ex.faultStats(),
	})
	return true
}

// --- thief: probing ---

// maybeProbe sends the next steal probe if the rank is hungry, idle-handed
// and actually out of local work. Dynamic pulling is what Mode enables;
// under StealOff a forced-only policy runs scripted migrations and nothing
// else, which is what keeps forced runs deterministic.
func (ag *stealAgent) maybeProbe() {
	ex := ag.ex
	if ex.opts.Steal.Mode == StealOff {
		return
	}
	if !ag.hungry || ag.cur != nil || len(ag.victims) == 0 || ex.done.Load() {
		return
	}
	now := time.Now()
	if now.Before(ag.nextProbe) {
		return
	}
	for _, nd := range ex.nodes {
		if !ex.localNode(nd.id) {
			continue
		}
		nd.mu.Lock()
		n := nd.queue.size()
		nd.mu.Unlock()
		if n > 0 {
			ag.hungry = false
			return
		}
	}
	v := ag.victims[ag.vIdx%len(ag.victims)]
	ag.vIdx++
	ag.pullID++
	ag.cur = &stealExch{victim: v, id: ag.pullID, task: -1}
	ag.cur.arm(ag, v, StealMsg{Kind: StealReq, From: ex.dist.Rank, ID: ag.pullID, Task: -1}, now)
}

// onPullRsp handles the victim's answer to this rank's probe: execute the
// offer and start the return exchange, or move on (next victim, or backed-off
// retry after a full empty round).
func (ag *stealAgent) onPullRsp(m StealMsg) {
	c := ag.cur
	if c == nil || c.task != -1 || m.ID != c.id || m.From != c.victim {
		if m.Data != nil {
			PutBuf(m.Data)
		}
		return
	}
	if m.Task < 0 {
		ag.cur = nil
		ag.empties++
		if ag.empties >= len(ag.victims) {
			// A full round of empty answers: everyone is as poor as we
			// are — back off before the next round.
			ag.empties = 0
			ag.backoff *= 2
			if ag.backoff > stealProbeBackoffMax {
				ag.backoff = stealProbeBackoffMax
			}
			ag.nextProbe = time.Now().Add(ag.backoff)
			return
		}
		ag.maybeProbe()
		return
	}
	ag.empties = 0
	ag.backoff = stealProbeBackoffMin
	out := ag.ex.execMigrated(m.Task, m.Data)
	if out == nil {
		ag.cur = nil
		return
	}
	c.task = m.Task
	c.arm(ag, c.victim, StealMsg{Kind: StealRet, From: ag.ex.dist.Rank, ID: c.id, Task: m.Task, Data: out}, time.Now())
}

// onPullAck retires the thief's completed pull exchange.
func (ag *stealAgent) onPullAck(m StealMsg) {
	c := ag.cur
	if c == nil || c.task < 0 || m.ID != c.id || m.From != c.victim {
		return
	}
	c.release()
	ag.cur = nil
	ag.maybeProbe()
}

// --- thief: forced offers from victims ---

// onForcedRsp executes an unsolicited pinned-task offer, deduplicating the
// victim's retransmissions against the per-victim id.
func (ag *stealAgent) onForcedRsp(m StealMsg) {
	tf := ag.fIn[m.From]
	if tf == nil {
		tf = &thiefForced{}
		ag.fIn[m.From] = tf
	}
	if tf.lastID != 0 && m.ID <= tf.lastID {
		if m.Data != nil {
			PutBuf(m.Data)
		}
		if tf.have && m.ID == tf.lastID {
			// Our return is still unacked — the duplicated offer doubles as
			// a retransmission prompt.
			tf.resend(ag, m.From)
		}
		return
	}
	out := ag.ex.execMigrated(m.Task, m.Data)
	if out == nil {
		return
	}
	tf.lastID = m.ID
	tf.have = true
	tf.arm(ag, m.From, StealMsg{Kind: StealRet, From: ag.ex.dist.Rank, ID: m.ID, Task: m.Task, Forced: true, Data: out}, time.Now())
}

// onForcedAck frees the thief's cached forced return.
func (ag *stealAgent) onForcedAck(m StealMsg) {
	tf := ag.fIn[m.From]
	if tf == nil || !tf.have || m.ID != tf.lastID {
		return
	}
	tf.release()
	tf.have = false
}

// --- victim: serving probes and returns ---

func (ag *stealAgent) pullState(thief int) *victimPull {
	vp := ag.pull[thief]
	if vp == nil {
		vp = &victimPull{}
		ag.pull[thief] = vp
	}
	return vp
}

// onReq answers a thief's probe: pop a migratable ready task and offer it
// with its packed input state, or answer empty. A retransmitted probe gets
// the cached answer — never a second pop for the same id, which could strand
// the first offer at a thief that moved on.
func (ag *stealAgent) onReq(m StealMsg) {
	ex := ag.ex
	vp := ag.pullState(m.From)
	if m.ID < vp.rspID || m.ID <= vp.doneID {
		return // stale duplicate of an exchange the thief completed
	}
	if m.ID == vp.rspID {
		vp.attempt++
		if vp.rsp != nil {
			ag.transmit(m.From, *vp.rsp, vp.attempt)
		} else {
			ag.transmit(m.From, StealMsg{Kind: StealRsp, From: ex.dist.Rank, ID: m.ID, Task: -1}, vp.attempt)
		}
		return
	}
	vp.rspID = m.ID
	vp.attempt = 0
	vp.rsp = nil
	rsp := StealMsg{Kind: StealRsp, From: ex.dist.Rank, ID: m.ID, Task: -1}
	if idx, ok := ex.stealPop(); ok {
		t := &ex.g.Tasks[idx]
		rsp.Task = idx
		rsp.Data = ex.g.Hooks(t).PackIn(ex.nodes[t.Node].store)
		cp := rsp
		vp.rsp = &cp
	}
	ag.transmit(m.From, rsp, 0)
}

// onRet commits a returned migration (forced or pulled) exactly once and
// acks it, then — on the forced stream — launches the next queued offer.
func (ag *stealAgent) onRet(m StealMsg) {
	ex := ag.ex
	if m.Forced {
		vf := ag.fOut[m.From]
		if vf == nil || m.ID <= vf.doneID || !vf.inFlight || m.ID != vf.msg.ID {
			// Duplicate (or unknown) return: the commit already happened;
			// re-ack so the thief stops retransmitting.
			if m.Data != nil {
				PutBuf(m.Data)
			}
			ag.transmit(m.From, StealMsg{Kind: StealAck, From: ex.dist.Rank, ID: m.ID, Task: m.Task, Forced: true}, 0)
			return
		}
		ex.commitMigrated(vf.msg.Task, m.Data)
		vf.doneID = m.ID
		vf.inFlight = false
		vf.release()
		ag.transmit(m.From, StealMsg{Kind: StealAck, From: ex.dist.Rank, ID: m.ID, Task: m.Task, Forced: true}, 0)
		if len(vf.queue) > 0 {
			idx := vf.queue[0]
			vf.queue = vf.queue[1:]
			ag.sendForced(m.From, vf, idx)
		}
		return
	}
	vp := ag.pullState(m.From)
	if m.ID <= vp.doneID || vp.rsp == nil || vp.rsp.ID != m.ID {
		if m.Data != nil {
			PutBuf(m.Data)
		}
		ag.transmit(m.From, StealMsg{Kind: StealAck, From: ex.dist.Rank, ID: m.ID, Task: m.Task}, 0)
		return
	}
	task := vp.rsp.Task
	if vp.rsp.Data != nil {
		PutBuf(vp.rsp.Data)
	}
	vp.rsp = nil
	vp.doneID = m.ID
	ex.commitMigrated(task, m.Data)
	ag.transmit(m.From, StealMsg{Kind: StealAck, From: ex.dist.Rank, ID: m.ID, Task: m.Task}, 0)
}

// --- victim: forced offers ---

// forcedReady starts (or queues) the forced migration of a pinned task that
// just became ready.
func (ag *stealAgent) forcedReady(idx int32) {
	thief := ag.ex.forcedSteal[idx]
	vf := ag.fOut[thief]
	if vf == nil {
		vf = &victimForced{}
		ag.fOut[thief] = vf
	}
	if vf.inFlight {
		vf.queue = append(vf.queue, idx)
		return
	}
	ag.sendForced(thief, vf, idx)
}

func (ag *stealAgent) sendForced(thief int, vf *victimForced, idx int32) {
	ex := ag.ex
	t := &ex.g.Tasks[idx]
	vf.nextID++
	vf.inFlight = true
	vf.arm(ag, thief, StealMsg{
		Kind: StealRsp, From: ex.dist.Rank, ID: vf.nextID,
		Task: idx, Forced: true, Data: ex.g.Hooks(t).PackIn(ex.nodes[t.Node].store),
	}, time.Now())
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
		if depth := nd.queue.size(); depth >= 2 {
			var kept [8]int32
			nk := 0
			found := int32(-1)
			for nk < len(kept) && nd.queue.size() > 1 {
				idx, ok := nd.queue.pop()
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
				nd.queue.push(kept[i], ex.g.Tasks[kept[i]].Priority)
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
			nd.queue.push(idx, t.Priority)
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
