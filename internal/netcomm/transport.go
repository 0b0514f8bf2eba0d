package netcomm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"castencil/internal/fault"
	"castencil/internal/metrics"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
	"castencil/internal/trace"
)

var (
	errClosed   = errors.New("netcomm: transport closed")
	errPeerGone = errors.New("netcomm: connection down past recovery deadline")
)

// AbortError is the failure a peer broadcast instead of finishing its run;
// it fails this rank's collectives and bound run so nobody hangs waiting for
// data that will never arrive.
type AbortError struct {
	Rank   int
	Reason string
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("netcomm: rank %d aborted the run: %s", e.Rank, e.Reason)
}

// Options configures Connect.
type Options struct {
	// Rank is this process's index into Addrs; Addrs is the full static
	// member list (host:port per rank), identical on every rank.
	Rank  int
	Addrs []string
	// Listener, when non-nil, is the pre-bound listener for this rank's
	// address (tests bind 127.0.0.1:0 themselves to dodge port races). When
	// nil, Connect listens on Addrs[Rank].
	Listener net.Listener
	// Recovery bounds reconnection: a lane down for longer than
	// Recovery.Deadline declares the peer dead. Zero value uses
	// fault.DefaultRecovery().
	Recovery fault.Recovery
	// ConnectTimeout bounds the initial mesh establishment (peers may start
	// seconds apart); default 30s.
	ConnectTimeout time.Duration
	// MaxFrame bounds an inbound frame body; 0 means DefaultMaxFrame.
	MaxFrame int
	// Trace, when non-nil, records wire:send / wire:recv events for the
	// traceview utilization rows. Metrics, when non-nil, registers the
	// stencild_net_* families.
	Trace   *trace.Trace
	Metrics *metrics.Registry
}

// binding is the run currently attached to the transport; swapped atomically
// so the readLoop hot path takes no lock.
type binding struct {
	numNodes int
	deliver  func(runtime.Message)
	fail     func(error)
}

// Stats is a snapshot of the transport's wire counters.
type Stats struct {
	FramesSent, FramesRecv int64
	BytesSent, BytesRecv   int64
	Reconnects             int64
	Dials                  int64
	StaleFrames            int64
}

// Transport implements runtime.Conduit over TCP. Construct with Connect; one
// Transport serves any number of sequential runs (epochs).
type Transport struct {
	rank  int
	addrs []string

	ln       net.Listener
	lanes    []*lane // indexed by rank; lanes[rank] == nil
	deadline time.Duration
	maxFrame int

	epoch atomic.Uint32
	bind  atomic.Pointer[binding]
	col   *collectives

	jobs    chan []byte
	closed  atomic.Bool
	closeCh chan struct{}
	// attached is signalled (without blocking) whenever a lane attaches a
	// connection, so Connect waits for its higher ranks without polling.
	attached chan struct{}
	wg       sync.WaitGroup

	t0 atomic.Int64 // run start, unix nanos (trace timestamps)
	tr *trace.Trace
	nm *netMetrics

	framesSent, framesRecv atomic.Int64
	bytesSent, bytesRecv   atomic.Int64
	reconnects, dials      atomic.Int64
	staleFrames            atomic.Int64
}

// Connect establishes the full mesh for Options.Rank: it listens on its own
// address, dials every lower rank, accepts every higher rank, and holds a
// hello barrier so no rank proceeds before the whole mesh is up. The
// returned Transport is ready to Bind a run.
func Connect(o Options) (*Transport, error) {
	if o.Rank < 0 || o.Rank >= len(o.Addrs) {
		return nil, fmt.Errorf("netcomm: rank %d out of range for %d addrs", o.Rank, len(o.Addrs))
	}
	if len(o.Addrs) < 2 {
		return nil, fmt.Errorf("netcomm: need at least 2 ranks, got %d", len(o.Addrs))
	}
	rec := o.Recovery
	if rec.Deadline <= 0 {
		rec = *fault.DefaultRecovery()
	}
	if o.ConnectTimeout <= 0 {
		o.ConnectTimeout = 30 * time.Second
	}
	t := &Transport{
		rank:     o.Rank,
		addrs:    o.Addrs,
		deadline: rec.Deadline,
		maxFrame: o.MaxFrame,
		jobs:     make(chan []byte, 8),
		closeCh:  make(chan struct{}),
		attached: make(chan struct{}, 1),
		tr:       o.Trace,
	}
	if t.maxFrame <= 0 {
		t.maxFrame = DefaultMaxFrame
	}
	if o.Metrics != nil {
		t.nm = newNetMetrics(o.Metrics, t)
	}
	t.col = newCollectives()
	t.t0.Store(time.Now().UnixNano())

	ln := o.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", o.Addrs[o.Rank])
		if err != nil {
			return nil, fmt.Errorf("netcomm: listen %s: %w", o.Addrs[o.Rank], err)
		}
	}
	t.ln = ln
	t.lanes = make([]*lane, len(o.Addrs))
	for p := range t.lanes {
		if p != t.rank {
			t.lanes[p] = newLane(t, p)
		}
	}

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.acceptLoop()
	}()

	// Dial every lower rank; higher ranks dial us and arrive via the accept
	// loop. Retry: peers may not be listening yet.
	start := time.Now()
	for p := 0; p < t.rank; p++ {
		backoff := 10 * time.Millisecond
		for {
			c, err := t.dialPeer(p)
			if err == nil {
				t.lanes[p].attach(c)
				break
			}
			if time.Since(start) > o.ConnectTimeout {
				t.Close()
				return nil, fmt.Errorf("netcomm: rank %d unreachable at %s: %w", p, o.Addrs[p], err)
			}
			if !t.pause(backoff) {
				return nil, errClosed
			}
			if backoff < 200*time.Millisecond {
				backoff *= 2
			}
		}
	}
	// Wait for every higher rank to have attached (they dial us).
	wait := time.NewTimer(time.Until(start.Add(o.ConnectTimeout)))
	defer wait.Stop()
	for p := t.rank + 1; p < len(o.Addrs); p++ {
		for !t.lanes[p].up() {
			select {
			case <-t.attached:
			case <-wait.C:
				t.Close()
				return nil, fmt.Errorf("netcomm: rank %d never connected within %v", p, o.ConnectTimeout)
			}
		}
	}
	// Hello barrier at epoch 0: nobody returns from Connect before every
	// pair of lanes is live in both directions.
	if err := t.Barrier("hello"); err != nil {
		t.Close()
		return nil, fmt.Errorf("netcomm: hello barrier: %w", err)
	}
	return t, nil
}

// pause waits d, or less if the transport closes first; it reports whether
// the transport is still open.
func (t *Transport) pause(d time.Duration) bool {
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-t.closeCh:
		return false
	}
}

// dialPeer opens one connection to peer and speaks the hello.
func (t *Transport) dialPeer(peer int) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", t.addrs[peer], 2*time.Second)
	if err != nil {
		return nil, err
	}
	t.dials.Add(1)
	hello := appendHelloFrame(nil, t.rank, len(t.addrs))
	if _, err := c.Write(hello); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// acceptLoop attaches inbound connections to their lanes by hello rank.
func (t *Transport) acceptLoop() {
	for {
		c, err := t.ln.Accept()
		if err != nil {
			if t.closed.Load() {
				return
			}
			select {
			case <-t.closeCh:
				return
			default:
			}
			continue
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.handleInbound(c)
		}()
	}
}

// handleInbound reads the hello and attaches the connection as the peer's
// lane; anything but a well-formed hello from a known rank is refused.
func (t *Transport) handleInbound(c net.Conn) {
	var st readState
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := readFrame(c, &st, t.maxFrame)
	c.SetReadDeadline(time.Time{})
	if err != nil || f.Kind != kindHello {
		runtime.PutBuf(f.Msg.Data)
		c.Close()
		return
	}
	h := f.Hello
	if h.Ranks != len(t.addrs) || h.Rank < 0 || h.Rank >= len(t.addrs) || h.Rank == t.rank {
		c.Close()
		return
	}
	t.lanes[h.Rank].attach(c)
}

// readLoop decodes and dispatches frames from lane l's connection until it
// drops. A read error of the connection, at a frame boundary or inside a
// frame, only drops the lane, which reconnects: the peer writes a frame
// whose write failed again on the next connection, the reliable layer
// retransmits lost data, and a gather stream's end count reports a lost
// record. A frame that arrived but does not decode is another matter: what
// it carried is lost, and badFrame fails its epoch. A frame over the limit
// is the one such error the stream survives.
func (t *Transport) readLoop(l *lane, c net.Conn) {
	var st readState
	fr := &frameReader{c: c, stamps: t.tr != nil}
	for {
		fr.armed = true
		f, err := readFrame(fr, &st, t.maxFrame)
		if err != nil {
			var big *oversizeError
			switch {
			case fr.err != nil || t.closed.Load():
			case errors.As(err, &big):
				// The frame is still delimited: fail its epoch, skip its
				// body and keep reading, so the lane stays up to carry the
				// abort and the runs after it.
				t.badFrame(l, f, err)
				if _, err = io.CopyN(io.Discard, fr, int64(big.body)); err == nil {
					continue
				}
			default:
				t.badFrame(l, f, err)
			}
			c.Close()
			if !t.closed.Load() {
				l.drop(c, err)
			}
			return
		}
		t.dispatch(l, f, fr.stamp)
	}
}

// badFrame fails, on every rank, the epoch of frame f from l's peer, which
// arrived but did not decode. The epoch is the frame's own when its kind is
// one that carries it, else the current one. Locally the epoch's pending and
// future collectives and its bound run fail with the cause; the abort to the
// peers is sent in the background, because the lane it came from may first
// have to reconnect.
func (t *Transport) badFrame(l *lane, f Frame, cause error) {
	epoch := f.Epoch
	if f.Kind != kindData && f.Kind != kindCtl {
		epoch = t.epoch.Load()
	}
	reason := fmt.Sprintf("bad frame from rank %d: %v", l.peer, cause)
	t.col.abort(epoch, &AbortError{Rank: t.rank, Reason: reason})
	if epoch == t.epoch.Load() {
		t.failRun(&AbortError{Rank: t.rank, Reason: reason})
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.broadcastAbort(epoch, reason)
	}()
}

// frameReader is readLoop's view of its connection. It keeps the
// connection's own read error apart from readFrame's decode errors, and,
// when the transport traces, it notes the arrival of each frame's first
// byte (the first read after readLoop arms it), so wire:recv trace events
// measure transfer time, not idle blocking.
type frameReader struct {
	c      net.Conn
	err    error // the connection's read error, once it failed
	stamps bool
	armed  bool
	stamp  time.Time
}

func (r *frameReader) Read(p []byte) (int, error) {
	n, err := r.c.Read(p)
	if r.stamps && r.armed && n > 0 {
		r.stamp = time.Now()
		r.armed = false
	}
	if err != nil {
		r.err = err
	}
	return n, err
}

// dispatch routes one decoded frame whose first byte arrived at stamp
// (set when the transport traces). Data frames from a stale epoch are
// dropped (their payload recycled); control frames feed the collectives.
func (t *Transport) dispatch(l *lane, f Frame, stamp time.Time) {
	wire := prefixLen + frameBodyLen(f)
	t.framesRecv.Add(1)
	t.bytesRecv.Add(int64(wire))
	if t.nm != nil {
		t.nm.framesRecv.Inc()
		t.nm.bytesRecv.Add(int64(wire))
	}
	switch f.Kind {
	case kindData:
		if t.tr != nil {
			t0 := t.runT0()
			t.tr.Record(trace.Event{
				ID:   ptg.TaskID{Class: "wire:recv", I: l.peer, J: t.rank, K: int(f.Msg.Bundle)},
				Kind: ptg.KindComm, Node: int32(t.rank), Core: 0,
				Start: stamp.Sub(t0), End: time.Since(t0), Msgs: 1, Bytes: wire,
			})
		}
		if f.Epoch != t.epoch.Load() {
			t.staleFrames.Add(1)
			runtime.PutBuf(f.Msg.Data)
			return
		}
		if f.Msg.Ack && t.nm != nil {
			l.noteRTTAck(f.Msg)
		}
		b := t.bind.Load()
		if b == nil {
			// No run bound for the current epoch (should not happen: Bind
			// precedes the start barrier). Drop, don't crash.
			t.staleFrames.Add(1)
			runtime.PutBuf(f.Msg.Data)
			return
		}
		b.deliver(f.Msg)
	case kindCtl:
		// The lane, not the frame, says who sent it: a peer cannot speak
		// for another rank.
		it := ctlItem{from: l.peer, op: f.Ctl.Op, payload: f.Ctl.Payload}
		switch f.Ctl.Op {
		case opJob:
			select {
			case t.jobs <- f.Ctl.Payload:
			case <-t.closeCh:
			}
		case opAbort:
			err := &AbortError{Rank: l.peer, Reason: string(f.Ctl.Payload)}
			runtime.PutBuf(f.Ctl.Payload)
			t.col.abort(f.Epoch, err)
			if f.Epoch == t.epoch.Load() {
				t.failRun(err)
			}
		case opGather, opGatherEnd:
			t.col.deposit(f.Epoch, opGather, f.Ctl.Tag, anyRank, it)
		default:
			t.col.deposit(f.Epoch, f.Ctl.Op, f.Ctl.Tag, l.peer, it)
		}
	case kindHello:
		// Late hello on an attached lane: ignore.
	}
}

// frameBodyLen reconstructs the body length of a decoded frame for byte
// accounting.
func frameBodyLen(f Frame) int {
	switch f.Kind {
	case kindData:
		return dataHdrLen + len(f.Msg.Data)
	case kindHello:
		return helloLen
	default:
		return 5 + len(f.Ctl.Tag) + len(f.Ctl.Payload)
	}
}

// failRun feeds a transport-level failure to the bound run, if any.
func (t *Transport) failRun(err error) {
	if b := t.bind.Load(); b != nil {
		b.fail(err)
	}
}

// peerDead declares a peer lost: its lane fails permanently with a
// *fault.Report naming the rank, collectives are poisoned transport-wide,
// and the bound run is failed.
func (t *Transport) peerDead(l *lane, cause error) {
	l.mu.Lock()
	if l.dead != nil {
		l.mu.Unlock()
		return
	}
	waited := time.Since(l.downSince)
	l.mu.Unlock()
	rep := &fault.Report{
		PeerLost: true,
		DeadRank: l.peer,
		Deadline: t.deadline,
		Waited:   waited,
	}
	_ = cause // the report is the user-facing error; cause is TCP noise
	l.die(rep)
	t.col.fatal(rep)
	t.failRun(rep)
}

// --- runtime.Conduit ---

// Rank reports this process's rank.
func (t *Transport) Rank() int { return t.rank }

// Ranks reports the member count.
func (t *Transport) Ranks() int { return len(t.addrs) }

// Begin opens the next run epoch: prior epochs' collective leftovers and
// poison are pruned, RTT tracking resets, and the trace clock re-zeroes so
// wire events line up with the run's own timeline.
func (t *Transport) Begin() {
	ep := t.epoch.Add(1)
	t.col.begin(ep)
	t.t0.Store(time.Now().UnixNano())
	for _, l := range t.lanes {
		if l != nil {
			l.clearRTT()
		}
	}
}

// Bind attaches a run (runtime.Conduit).
func (t *Transport) Bind(numNodes int, deliver func(runtime.Message), fail func(error)) error {
	if t.closed.Load() {
		return errClosed
	}
	if numNodes < len(t.addrs) {
		return fmt.Errorf("netcomm: %d ranks exceed %d virtual nodes", len(t.addrs), numNodes)
	}
	if err := t.col.fatalErr(); err != nil {
		return err
	}
	b := &binding{numNodes: numNodes, deliver: deliver, fail: fail}
	if !t.bind.CompareAndSwap(nil, b) {
		return fmt.Errorf("netcomm: a run is already bound")
	}
	return nil
}

// Unbind detaches the bound run.
func (t *Transport) Unbind() { t.bind.Store(nil) }

// Send ships m to the rank owning m.Dst (runtime.Conduit) over the pair's
// persistent lane; the path is allocation-free.
func (t *Transport) Send(m runtime.Message) error {
	b := t.bind.Load()
	if b == nil {
		return fmt.Errorf("netcomm: Send with no bound run")
	}
	r := runtime.RankOfNode(int(m.Dst), b.numNodes, len(t.addrs))
	if r == t.rank {
		return fmt.Errorf("netcomm: message for node %d routes to own rank %d", m.Dst, t.rank)
	}
	return t.lanes[r].sendData(t.epoch.Load(), m)
}

// Barrier blocks until every rank entered the barrier with this tag in the
// current epoch (runtime.Conduit). All-to-all marker exchange: because lanes
// are FIFO, a peer's marker arriving means every data frame that peer sent
// before entering the barrier has been received — the flush property the
// drain barrier relies on.
func (t *Transport) Barrier(tag string) error {
	ep := t.epoch.Load()
	for p, l := range t.lanes {
		if l == nil {
			continue
		}
		if err := l.sendBytes(appendCtlFrame(nil, ep, t.rank, opBarrier, tag, nil)); err != nil {
			return fmt.Errorf("netcomm: barrier %q to rank %d: %w", tag, p, err)
		}
	}
	for p, l := range t.lanes {
		if l == nil {
			continue
		}
		if _, err := t.col.take(ep, opBarrier, tag, p); err != nil {
			return fmt.Errorf("netcomm: barrier %q from rank %d: %w", tag, p, err)
		}
	}
	return nil
}

// Gather collects one payload per rank at rank 0: a GatherStream of one
// record per rank, which rank 0 copies out. On rank 0 it returns the
// payloads indexed by rank, its own included; on other ranks, nil.
func (t *Transport) Gather(tag string, payload []byte) ([][]byte, error) {
	var blobs [][]byte
	if t.rank == 0 {
		blobs = make([][]byte, len(t.addrs))
		blobs[0] = payload
	}
	err := t.GatherStream(tag, func(_ int, emit func([]byte) error) error {
		return emit(payload)
	}, func(from int, rec []byte) error {
		if blobs[from] != nil {
			return fmt.Errorf("second payload from rank %d", from)
		}
		blobs[from] = append([]byte{}, rec...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return blobs, nil
}

// GatherStream streams every other rank's records to rank 0
// (runtime.Conduit). A record travels as one ctl frame: its header and the
// record go out in one writev, so the record is never copied into a frame,
// and rank 0 reads it into an arena buffer that goes back once recv
// returns. Each sender closes its stream with a count of what it sent.
// Rank 0 answers each rank with one opGatherOK once every stream is
// complete.
func (t *Transport) GatherStream(tag string, send func(max int, emit func(rec []byte) error) error,
	recv func(from int, rec []byte) error) error {
	ep := t.epoch.Load()
	if prefixLen+ctlHdrLen+len(tag) > laneHdrLen {
		return fmt.Errorf("netcomm: gather tag %q longer than %d bytes", tag, laneHdrLen-prefixLen-ctlHdrLen)
	}
	if t.rank != 0 {
		return t.gatherSend(ep, tag, send)
	}
	sent := make([]int, len(t.addrs)) // records counted so far, per rank
	open := len(t.addrs) - 1
	for open > 0 {
		it, err := t.col.take(ep, opGather, tag, anyRank)
		if err != nil {
			return fmt.Errorf("netcomm: gather %q: %w", tag, err)
		}
		switch {
		case sent[it.from] < 0:
			err = fmt.Errorf("rank %d sent past the end of its stream", it.from)
		case it.op == opGatherEnd:
			if len(it.payload) != 4 || int(binary.LittleEndian.Uint32(it.payload)) != sent[it.from] {
				err = fmt.Errorf("rank %d ended its stream with %x after %d records", it.from, it.payload, sent[it.from])
			}
			sent[it.from] = -1
			open--
		default:
			sent[it.from]++
			err = recv(it.from, it.payload)
		}
		runtime.PutBuf(it.payload)
		if err != nil {
			reason := fmt.Sprintf("gather %q: %v", tag, err)
			t.abortEpoch(ep, reason)
			return fmt.Errorf("netcomm: %s", reason)
		}
	}
	for p := 1; p < len(t.addrs); p++ {
		if err := t.lanes[p].sendBytes(appendCtlFrame(nil, ep, 0, opGatherOK, tag, nil)); err != nil {
			return fmt.Errorf("netcomm: gather %q release to rank %d: %w", tag, p, err)
		}
	}
	return nil
}

// gatherSend is GatherStream on a rank other than 0: it streams send's
// records to rank 0, each as one frame no larger than this rank's own
// MaxFrame, then the count, and waits for rank 0's release. A record is
// refused once the epoch has failed, so a sender stops streaming into a
// dead gather.
func (t *Transport) gatherSend(ep uint32, tag string, send func(max int, emit func(rec []byte) error) error) error {
	l := t.lanes[0]
	limit := t.maxFrame - ctlHdrLen - len(tag)
	n := uint32(0)
	emit := func(rec []byte) error {
		if err := t.col.epochErr(ep); err != nil {
			return err
		}
		if len(rec) > limit {
			return fmt.Errorf("record of %d bytes exceeds the %d-byte limit", len(rec), limit)
		}
		var hdr [laneHdrLen]byte
		k := putCtlHeader(hdr[:], ep, t.rank, opGather, tag, len(rec))
		if _, err := l.write(hdr[:k], rec); err != nil {
			return err
		}
		n++
		return nil
	}
	if err := send(limit, emit); err != nil {
		reason := fmt.Sprintf("gather %q to rank 0: %v", tag, err)
		t.abortEpoch(ep, reason)
		return fmt.Errorf("netcomm: %s", reason)
	}
	var count [4]byte
	binary.LittleEndian.PutUint32(count[:], n)
	if err := l.sendBytes(appendCtlFrame(nil, ep, t.rank, opGatherEnd, tag, count[:])); err != nil {
		return fmt.Errorf("netcomm: gather %q to rank 0: %w", tag, err)
	}
	if _, err := t.col.take(ep, opGatherOK, tag, 0); err != nil {
		return fmt.Errorf("netcomm: gather %q ack from rank 0: %w", tag, err)
	}
	return nil
}

// Abort broadcasts a failure to all peers and poisons local collectives
// (runtime.Conduit). Best-effort: unreachable peers are already failing on
// their own.
func (t *Transport) Abort(reason string) { t.abortEpoch(t.epoch.Load(), reason) }

// abortEpoch poisons epoch's collectives here and on every peer.
func (t *Transport) abortEpoch(epoch uint32, reason string) {
	t.col.abort(epoch, &AbortError{Rank: t.rank, Reason: reason})
	t.broadcastAbort(epoch, reason)
}

// broadcastAbort sends an abort of epoch to every peer, waiting out any
// lane that is reconnecting.
func (t *Transport) broadcastAbort(epoch uint32, reason string) {
	for _, l := range t.lanes {
		if l != nil {
			_ = l.sendBytes(appendCtlFrame(nil, epoch, t.rank, opAbort, "", []byte(reason)))
		}
	}
}

// --- management plane ---

// SendJob broadcasts a job-spec payload from rank 0 to every peer's Jobs
// channel (the stencild manager's dispatch path).
func (t *Transport) SendJob(payload []byte) error {
	if t.rank != 0 {
		return fmt.Errorf("netcomm: SendJob is rank 0's")
	}
	for p, l := range t.lanes {
		if l == nil {
			continue
		}
		if err := l.sendBytes(appendCtlFrame(nil, t.epoch.Load(), 0, opJob, "", payload)); err != nil {
			return fmt.Errorf("netcomm: job to rank %d: %w", p, err)
		}
	}
	return nil
}

// Jobs delivers job-spec payloads broadcast by rank 0 (follower side).
func (t *Transport) Jobs() <-chan []byte { return t.jobs }

// Connected reports how many ranks are currently reachable (self included)
// and how many the mesh expects — stencild's /healthz line.
func (t *Transport) Connected() (up, want int) {
	up = 1
	for _, l := range t.lanes {
		if l != nil && l.up() {
			up++
		}
	}
	return up, len(t.addrs)
}

// Stats snapshots the wire counters.
func (t *Transport) Stats() Stats {
	return Stats{
		FramesSent:  t.framesSent.Load(),
		FramesRecv:  t.framesRecv.Load(),
		BytesSent:   t.bytesSent.Load(),
		BytesRecv:   t.bytesRecv.Load(),
		Reconnects:  t.reconnects.Load(),
		Dials:       t.dials.Load(),
		StaleFrames: t.staleFrames.Load(),
	}
}

// Addr reports the transport's bound listen address (useful when Addrs held
// a ":0" port).
func (t *Transport) Addr() net.Addr { return t.ln.Addr() }

// runT0 is the run-relative trace origin.
func (t *Transport) runT0() time.Time { return time.Unix(0, t.t0.Load()) }

// Close tears the transport down: the listener and every lane close, blocked
// collective calls fail, and all reader goroutines exit.
func (t *Transport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(t.closeCh)
	t.ln.Close()
	for _, l := range t.lanes {
		if l != nil {
			l.close()
		}
	}
	t.col.fatal(errClosed)
	t.wg.Wait()
	return nil
}
