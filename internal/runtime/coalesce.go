package runtime

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"castencil/internal/fault"
	"castencil/internal/ptg"
)

// This file implements the coalesced halo-exchange transport: instead of one
// message per cross-node dependency, all payloads a node produces in one
// epoch toward one destination travel as a single *halo bundle*. The
// bundles come from the run's ptg.Plan; the wire format is
//
//	[u32 count] [u32 len_0] ... [u32 len_{count-1}] [payload_0] ... [payload_{count-1}]
//
// (little-endian framing, segments in deterministic plan order). The sender
// packs every member into an arena buffer of the bundle's wire size once the
// last member is produced; the receiver fans segments out to their per-slot
// destinations in one inbox delivery, returns the wire buffer to the arena
// (see pool.go for the ownership rule) and releases all dependent tasks in
// one batched successor release.

// execBundle is the run state of one plan bundle: the countdown of members
// not yet produced. When it hits zero the producing node's comm goroutine
// packs and sends the bundle.
type execBundle struct {
	remaining atomic.Int32
}

// newExecBundles arms the plan's bundle countdowns, in bundles when it has
// the plan's length. It also sizes each node's fan-out scratch for its
// largest inbound bundle, so the batched release never grows it mid-run.
func newExecBundles(plan *ptg.Plan, nodes []*execNode, bundles []execBundle) []execBundle {
	if len(plan.Bundles) == 0 {
		return nil
	}
	if len(bundles) != len(plan.Bundles) {
		bundles = make([]execBundle, len(plan.Bundles))
	}
	for i := range plan.Bundles {
		b := &plan.Bundles[i]
		bundles[i].remaining.Store(int32(len(b.Members)))
		if nd := nodes[b.Dst]; cap(nd.commReady) < len(b.Members) {
			nd.commReady = make([]int32, 0, len(b.Members))
		}
	}
	return bundles
}

// packBundle serializes every member payload of a bundle into buf (which
// must be empty, with capacity preallocated to the bundle's wire size) using
// the length-prefixed segment format. Each member's Pack closure is drained
// and its returned buffer immediately recycled into the shared arena: under
// coalescing the wire carries a copy, so the producer-side payload buffer is
// free the moment it is packed (see Options.Coalesce for the ownership
// contract).
func packBundle(buf []byte, e ptg.Env, g *ptg.Graph, members []ptg.BundleMember) []byte {
	buf = buf[:4*(1+len(members))]
	binary.LittleEndian.PutUint32(buf, uint32(len(members)))
	for i, m := range members {
		var data []byte
		if pack := g.Dep(g.Tasks[m.Task].Deps[m.Dep]).Pack; pack != nil {
			data = pack(e)
		}
		binary.LittleEndian.PutUint32(buf[4+4*i:], uint32(len(data)))
		buf = append(buf, data...)
		PutBuf(data)
	}
	return buf
}

// fanOutBundle decodes a bundle payload and deposits every segment with its
// member's Unpack closure, in plan order. Each segment is first copied into
// a fresh pooled buffer: consumers own (and later recycle) their payloads
// individually, and a sub-slice of the wire buffer must never enter the
// arena — its capacity aliases the sibling segments. The wire buffer itself
// is untouched and returns to the arena at the caller.
func fanOutBundle(e ptg.Env, g *ptg.Graph, members []ptg.BundleMember, data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("runtime: bundle payload truncated (%d bytes)", len(data))
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n != len(members) {
		return fmt.Errorf("runtime: bundle carries %d segments, plan has %d members", n, len(members))
	}
	off := 4 * (1 + n)
	if off > len(data) {
		return fmt.Errorf("runtime: bundle segment table truncated")
	}
	for i, m := range members {
		l := int(binary.LittleEndian.Uint32(data[4+4*i:]))
		if off+l > len(data) {
			return fmt.Errorf("runtime: bundle segment %d overruns payload", i)
		}
		seg := data[off : off+l]
		off += l
		unpack := g.Dep(g.Tasks[m.Task].Deps[m.Dep]).Unpack
		if unpack == nil {
			continue
		}
		cp := GetBuf(l)
		copy(cp, seg)
		unpack(e, cp)
	}
	return nil
}

// sendBundle packs a completed bundle into an arena buffer and ships it as
// one wire message.
func (ex *executor) sendBundle(e ptg.Env, nd *execNode, bi int32) (id fault.MsgID, segs, bytes int) {
	b := &ex.plan.Bundles[bi]
	id = fault.BundleMsgID(b.Src, b.Dst, bi)
	defer func() {
		if r := recover(); r != nil {
			ex.fail(fmt.Errorf("runtime: packing bundle %d->%d panicked: %v", b.Src, b.Dst, r))
		}
	}()
	buf := packBundle(GetBuf(b.WireBytes())[:0], e, ex.g, b.Members)
	m := newMessage(id, buf)
	ex.messages.Add(1)
	ex.bytesSent.Add(int64(len(buf)))
	ex.bundlesSent.Add(1)
	ex.bundleSegments.Add(int64(len(b.Members)))
	ex.dispatch(nd, m)
	return id, len(b.Members), len(buf)
}

// receiveBundle fans a bundle's segments out on the destination node,
// returns the wire buffer to the arena, and releases every newly-ready
// consumer in one batched enqueue.
func (ex *executor) receiveBundle(nd *execNode, m Message, bi int32) (segs, bytes int) {
	defer func() {
		if r := recover(); r != nil {
			ex.fail(fmt.Errorf("runtime: unpacking bundle %d->%d panicked: %v", m.Src, m.Dst, r))
		}
	}()
	members := ex.plan.Bundles[bi].Members
	err := fanOutBundle(nd.store, ex.g, members, m.Data)
	// All segments are copied out: the wire buffer is done.
	PutBuf(m.Data)
	if err != nil {
		ex.fail(err)
		return len(members), len(m.Data)
	}
	ready := nd.commReady[:0]
	for _, mb := range members {
		if atomic.AddInt32(&ex.pending[mb.Task], -1) == 0 {
			ready = append(ready, mb.Task)
		}
	}
	if len(ready) > 0 {
		ex.enqueueBatch(nd, ready)
	}
	nd.commReady = ready[:0]
	return len(members), len(m.Data)
}

// transfers is the number of member payloads a send request or wire
// message for bundle bi (-1: point to point) stands for — the unit
// Result.Dropped counts.
func (ex *executor) transfers(bi int32) int64 {
	if bi < 0 {
		return 1
	}
	return int64(len(ex.plan.Bundles[bi].Members))
}

// msgTransfers is transfers for an in-flight message. Acks are control
// traffic, not data transfers, so a discarded one counts for nothing.
func (ex *executor) msgTransfers(m Message) int64 {
	if m.Ack {
		return 0
	}
	return ex.transfers(msgIDOf(m).BundleIndex())
}

// droppedTransfers is the Result.Dropped weight of an undeliverable
// physical message. Under the reliable transport a sequenced copy weighs
// nothing: the original, its duplicates and its retransmissions all carry
// the same sequence number, and whether the *logical* transfer was lost
// is decided once, by the pending-table scan at shutdown.
func (ex *executor) droppedTransfers(m Message) int64 {
	if ex.reliable && m.Seq != 0 {
		return 0
	}
	return ex.msgTransfers(m)
}
