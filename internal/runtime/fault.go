package runtime

import (
	"time"

	"castencil/internal/fault"
	"castencil/internal/ptg"
	"castencil/internal/trace"
)

// This file is the real engine's fault-injection and recovery layer.
//
// Injection sits between send accounting and delivery: every outgoing wire
// message consults the fault.Plan — keyed purely by the message's graph
// identity and delivery attempt, so every run of a plan injects the
// byte-identical schedule — and is then dropped, duplicated, delayed or
// passed through. The time-domain faults (slow cores, comm stall, node
// pause) hook the worker loop, the send path and the completion path.
//
// Recovery is a reliable transport layered over the same send/receive
// paths: every data message carries a per-(src,dst)-lane sequence number;
// the sender retains the payload until the receiver acknowledges it,
// retransmitting on an exponentially backed-off ack timeout; the receiver
// deduplicates by (src, seq) so task-level delivery stays exactly-once
// whatever the wire does. A message unacknowledged past the policy
// deadline fails the run fast with a structured *fault.Report instead of
// hanging on a dead node.
//
// Ownership follows the arena rule in pool.go: under recovery the sender
// owns the original payload in its pending table until the ack arrives, and
// every delivered copy (original transmission, duplicate, retransmit) is a
// buffer of its own, which its receiver ends. Without recovery the one
// payload passes through untouched.
//
// Acks are control traffic: they bypass fault injection and the
// Options.Intercept hook, and are not counted in Result.Messages/BytesSent,
// so those counters hold data traffic only.
//
// This is the runtime's only reliable-delivery layer. Steal-protocol
// messages (steal.go) ride it like halos, through their rank's endpoint
// node: they are sequenced, injected, acked, deduplicated and retransmitted
// by the same code and count in Result.Fault, but never in Messages,
// BytesSent or Dropped — migration traffic is accounted apart.

// laneSeq identifies one sequenced message on one ordered node pair: the
// peer node (destination for the sender's pending table, source for the
// receiver's dedup table) and the lane sequence number.
type laneSeq struct {
	peer int32
	seq  uint64
}

// pendingMsg is one unacknowledged sequenced message retained by its
// sender.
type pendingMsg struct {
	m         Message // Data is the retained original payload
	attempt   int32   // delivery attempts made so far, minus one
	firstSent time.Time
	nextRetry time.Time
}

// relState is a node's recovery state. Only the node's communication
// goroutine touches it (sends, acks, retransmit ticks and inbound dedup
// all run there), so no locking is needed.
type relState struct {
	nextSeq     []uint64 // per-destination next sequence number (0 = unused; first seq is 1)
	outstanding map[laneSeq]*pendingMsg
	seen        map[laneSeq]struct{}
}

func newRelState(nodes int) *relState {
	return &relState{
		nextSeq:     make([]uint64, nodes),
		outstanding: make(map[laneSeq]*pendingMsg),
		seen:        make(map[laneSeq]struct{}),
	}
}

// msgIDOf maps a wire message to its engine-independent fault identity.
func msgIDOf(m Message) fault.MsgID {
	return fault.MsgID{Src: m.Src, Dst: m.Dst, Task: m.Task, Dep: m.Dep, Bundle: m.Bundle}
}

// newMessage addresses a payload by its fault identity, the inverse of
// msgIDOf.
func newMessage(id fault.MsgID, data []byte) Message {
	return Message{Src: id.Src, Dst: id.Dst, Task: id.Task, Dep: id.Dep, Bundle: id.Bundle, Data: data}
}

// traceFault records one fault/recovery event when tracing is on: Class
// "fault:<what>", I/J the node pair, K the lane sequence number, on the
// comm pseudo-core of the node where the event happened.
func (ex *executor) traceFault(what string, node int32, m Message, span time.Duration) {
	if ex.opts.Trace == nil {
		return
	}
	start := time.Since(ex.t0)
	ex.opts.Trace.Record(trace.Event{
		ID:   ptg.TaskID{Class: "fault:" + what, I: int(m.Src), J: int(m.Dst), K: int(m.Seq)},
		Kind: ptg.KindFault, Node: node, Core: int32(ex.opts.Workers),
		Start: start, End: start + span, Msgs: 1, Bytes: len(m.Data),
	})
}

// track sequences a freshly packed message and retains its payload for
// retransmission. Returns the message stamped with its lane sequence
// number. Comm-goroutine only.
func (ex *executor) track(nd *execNode, m Message) Message {
	rel := nd.rel
	rel.nextSeq[m.Dst]++
	m.Seq = rel.nextSeq[m.Dst]
	now := time.Now()
	rel.outstanding[laneSeq{peer: m.Dst, seq: m.Seq}] = &pendingMsg{
		m:         m,
		firstSent: now,
		nextRetry: now.Add(ex.rec.TimeoutAt(0)),
	}
	nd.relPending.Add(1)
	return m
}

// copyPayload returns m with an independent pooled copy of its payload, so
// the retained original survives delivery (receivers consume and recycle
// what they are handed).
func copyPayload(m Message) Message {
	if m.Data != nil {
		cp := GetBuf(len(m.Data))
		copy(cp, m.Data)
		m.Data = cp
	}
	return m
}

// transmit hands a message to the interceptor (if any) or delivers it
// directly — the pre-fault-layer wire.
func (ex *executor) transmit(m Message) {
	if ex.opts.Intercept != nil {
		ex.opts.Intercept(m, ex.deliver)
	} else {
		ex.deliver(m)
	}
}

// transmitAfter delivers a message after an injected delay. The background
// goroutine is tracked so Run's final accounting sweep sees every copy.
func (ex *executor) transmitAfter(m Message, d time.Duration) {
	ex.bgWg.Add(1)
	go func() {
		defer ex.bgWg.Done()
		select {
		case <-time.After(d):
		case <-ex.finished:
		}
		ex.transmit(m)
	}()
}

// inject passes one outgoing message through the fault plan's wire. Under
// recovery m.Data is the sender-retained original and every delivered copy
// is its own arena buffer; otherwise the plan can only delay (drop and dup
// force recovery on), and the single payload passes through untouched.
func (ex *executor) inject(nd *execNode, m Message) {
	var delay time.Duration
	copies := 1
	if p := ex.fplan; p != nil {
		id := msgIDOf(m)
		if p.ShouldDrop(id, m.Attempt) {
			ex.fStats.dropped.Add(1)
			ex.traceFault("drop", nd.id, m, 0)
			return // the pending-table retransmit will retry
		}
		if delay = p.DelayOf(id, m.Attempt); delay > 0 {
			ex.fStats.delayed.Add(1)
			ex.traceFault("delay", nd.id, m, delay)
		}
		if p.ShouldDup(id, m.Attempt) {
			copies = 2
			ex.fStats.duplicated.Add(1)
			ex.traceFault("dup", nd.id, m, 0)
			// The duplicate is extra physical wire traffic.
			ex.countCopy(m)
		}
	}
	for ; copies > 0; copies-- {
		c := m
		if ex.reliable {
			c = copyPayload(m)
		}
		if delay > 0 {
			ex.transmitAfter(c, delay)
		} else {
			ex.transmit(c)
		}
	}
}

// dispatch is the send-side tail shared by sendOne and sendBundle: with
// recovery on, sequence and retain the message, then run the wire.
func (ex *executor) dispatch(nd *execNode, m Message) {
	if ex.reliable {
		m = ex.track(nd, m)
	}
	ex.inject(nd, m)
}

// countCopy counts a duplicated or retransmitted copy of m as wire traffic,
// unless m is a steal message (see the file comment).
func (ex *executor) countCopy(m Message) {
	if !m.IsSteal() {
		ex.messages.Add(1)
		ex.bytesSent.Add(int64(len(m.Data)))
	}
}

// ack sends the acknowledgement for a received sequenced message. Acks
// bypass fault injection and interception, and are not counted as wire
// messages (see the file comment). An ack keeps its message's Dep, so the
// ack of a steal message is steal traffic on the wire too.
func (ex *executor) ack(nd *execNode, m Message) {
	ex.deliver(Message{Src: nd.id, Dst: m.Src, Dep: m.Dep, Seq: m.Seq, Ack: true})
}

// handleAck retires the pending entry an ack settles. Comm-goroutine only.
func (ex *executor) handleAck(nd *execNode, m Message) {
	k := laneSeq{peer: m.Src, seq: m.Seq}
	if p, ok := nd.rel.outstanding[k]; ok {
		delete(nd.rel.outstanding, k)
		if nd.relPending.Add(-1) == 0 {
			ex.signalDrain()
		}
		PutBuf(p.m.Data) // the retained original
	}
}

// dedup returns true when a sequenced data message was already delivered
// once. Either way the receiver (re-)acks, so a sender whose ack was lost
// to timing still stops retransmitting. Comm-goroutine only.
func (ex *executor) dedup(nd *execNode, m Message) bool {
	k := laneSeq{peer: m.Src, seq: m.Seq}
	if _, dup := nd.rel.seen[k]; dup {
		ex.fStats.dupDrops.Add(1)
		ex.traceFault("dupdrop", nd.id, m, 0)
		ex.ack(nd, m)
		PutBuf(m.Data) // every reliable delivery is an independent pooled copy
		return true
	}
	nd.rel.seen[k] = struct{}{}
	ex.ack(nd, m)
	return false
}

// retransmitDue scans the node's pending table for expired ack timeouts:
// each one either retransmits with the next backed-off timeout or — past
// the recovery deadline — degrades gracefully by failing the run with a
// structured report. Comm-goroutine only (fires on the retransmit ticker).
func (ex *executor) retransmitDue(nd *execNode) {
	now := time.Now()
	for _, p := range nd.rel.outstanding {
		if now.Before(p.nextRetry) {
			continue
		}
		ex.fStats.timeouts.Add(1)
		if waited := now.Sub(p.firstSent); waited >= ex.rec.Deadline {
			ex.traceFault("deadline", nd.id, p.m, waited)
			ex.fail(&fault.Report{
				ID:       msgIDOf(p.m),
				Seq:      p.m.Seq,
				Attempts: p.attempt + 1,
				Waited:   waited,
				Deadline: ex.rec.Deadline,
				Stats:    ex.faultStats(),
			})
			return
		}
		p.attempt++
		p.nextRetry = now.Add(ex.rec.TimeoutAt(p.attempt))
		ex.fStats.retransmits.Add(1)
		m := p.m
		m.Attempt = p.attempt
		ex.traceFault("retransmit", nd.id, m, 0)
		// A retransmission is real wire traffic and counts as such.
		ex.countCopy(m)
		ex.inject(nd, m)
	}
}

// maybeStall injects the plan's comm-goroutine stall before the node's
// nth outgoing wire message (retransmissions do not advance the count).
func (ex *executor) maybeStall(nd *execNode) {
	if ex.fplan == nil {
		return
	}
	n := nd.outSeq
	nd.outSeq++
	if st := ex.fplan.StallAt(nd.id, n); st > 0 {
		ex.traceFault("stall", nd.id, Message{Src: nd.id, Dst: nd.id}, st)
		ex.sleepInterruptible(st)
	}
}

// notePauses arms a whole-node pause when the node's completed-task count
// crosses a plan threshold. Called from the completing worker.
func (ex *executor) notePause(nd *execNode, completed int) {
	if d := ex.fplan.PauseAt(nd.id, completed); d > 0 {
		nd.pauseUntil.Store(time.Now().Add(d).UnixNano())
		ex.traceFault("pause", nd.id, Message{Src: nd.id, Dst: nd.id}, d)
	}
}

// maybePause blocks the calling goroutine (worker or comm) while its node
// is inside a pause window. The wait is interruptible by run completion so
// a failed run never hangs on a long pause.
func (ex *executor) maybePause(nd *execNode) {
	if ex.fplan == nil {
		return
	}
	u := nd.pauseUntil.Load()
	if u == 0 {
		return
	}
	for {
		d := time.Until(time.Unix(0, u))
		if d <= 0 || ex.done.Load() {
			return
		}
		ex.sleepInterruptible(d)
		if ex.done.Load() {
			return
		}
	}
}

// sleepInterruptible sleeps d or until the run finishes, whichever is
// sooner.
func (ex *executor) sleepInterruptible(d time.Duration) {
	select {
	case <-time.After(d):
	case <-ex.finished:
	}
}

// slowCoreExtra returns (and advances) the slow-core penalty for the next
// task the given core of the node executes. Each (node, core) counter is
// only touched by the worker goroutine that owns the core.
func (ex *executor) slowCoreExtra(nd *execNode, core int32) time.Duration {
	if ex.fplan == nil || len(ex.fplan.SlowCores) == 0 {
		return 0
	}
	seq := nd.coreSeq[core]
	nd.coreSeq[core]++
	return ex.fplan.CoreExtra(nd.id, core, seq)
}

// faultStats snapshots the run's fault counters.
func (ex *executor) faultStats() fault.Stats {
	return fault.Stats{
		Dropped:     int(ex.fStats.dropped.Load()),
		Duplicated:  int(ex.fStats.duplicated.Load()),
		Delayed:     int(ex.fStats.delayed.Load()),
		Retransmits: int(ex.fStats.retransmits.Load()),
		DupDrops:    int(ex.fStats.dupDrops.Load()),
		Timeouts:    int(ex.fStats.timeouts.Load()),
	}
}
