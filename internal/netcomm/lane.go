package netcomm

import (
	"net"
	"sync"
	"time"

	"castencil/internal/fault"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
	"castencil/internal/trace"
)

// lane is the persistent connection between this rank and one peer,
// carrying both directions of every (src-node, dst-node) pair the two ranks
// own. The send side is mutex-serialized (several comm goroutines may route
// onto one lane) and allocation-free in the steady state: the frame header
// is encoded into a lane-owned array and the payload rides the same writev
// as the header (net.Buffers), so payload bytes are handed to the kernel
// without a copy. The lane never owns a payload buffer: the runtime ends a
// sent message after Send returns, and a received one belongs to the run it
// is delivered to.
//
// Lifecycle: a dropped connection does not fail the run immediately — the
// dialing side redials with backoff, the accepting side waits for the peer
// to redial, and senders block until the lane is back. Only when the lane
// stays down past the recovery deadline is the peer declared dead: the lane
// turns into a sticky *fault.Report naming the dead rank, every pending and
// future operation on it fails, and the bound run is failed instead of
// hanging (see transport.go).
type lane struct {
	t    *Transport
	peer int

	mu   sync.Mutex
	cond *sync.Cond
	conn net.Conn
	// gen counts attachments: a drop only applies to the connection that
	// suffered it, and a re-accept deadline only fires if no newer
	// connection arrived in the meantime.
	gen       uint64
	downSince time.Time
	dead      *fault.Report

	// Steady-state send scratch, guarded by mu. bufs must be re-sliced
	// from bufArr on every send: net.Buffers.WriteTo consumes the slice
	// (advances it past its backing array), so appending to the leftover
	// would reallocate per send.
	hdr    [laneHdrLen]byte
	bufArr [2][]byte
	bufs   net.Buffers

	// rtt maps an in-flight sequenced message to its send stamp for the ack
	// RTT histogram; only maintained when metrics are on (rttMu guards it
	// against the reader goroutine).
	rttMu sync.Mutex
	rtt   map[rttKey]time.Time
}

type rttKey struct {
	src, dst int32
	seq      uint64
}

// rttCap bounds the RTT tracking table; past it new sends simply go
// unmeasured (the histogram is observability, not accounting).
const rttCap = 4096

func newLane(t *Transport, peer int) *lane {
	l := &lane{t: t, peer: peer}
	l.cond = sync.NewCond(&l.mu)
	if t.nm != nil {
		l.rtt = make(map[rttKey]time.Time, 64)
	}
	return l
}

// attach installs a fresh connection (initial dial, accept, or reconnect)
// and spawns its reader. An existing connection is displaced — the peer only
// dials anew after losing the old one, so the newest connection wins.
func (l *lane) attach(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	l.mu.Lock()
	if l.dead != nil || l.t.closed.Load() {
		l.mu.Unlock()
		c.Close()
		return
	}
	if old := l.conn; old != nil {
		old.Close()
	}
	l.conn = c
	l.gen++
	l.downSince = time.Time{}
	l.cond.Broadcast()
	// Added under mu, which Close's lane teardown takes after marking the
	// transport closed: the reader is either counted before Close waits or
	// never started.
	l.t.wg.Add(1)
	l.mu.Unlock()
	select {
	case l.t.attached <- struct{}{}:
	default:
	}
	go func() {
		defer l.t.wg.Done()
		l.t.readLoop(l, c)
	}()
}

// drop reacts to a read or write error on connection c: if c is still the
// lane's current connection, the lane goes down and recovery starts — the
// dialing side (peer rank below ours) redials, the accepting side arms the
// deadline and waits for the peer to come back.
func (l *lane) drop(c net.Conn, cause error) {
	l.mu.Lock()
	if l.conn != c || l.dead != nil || l.t.closed.Load() {
		l.mu.Unlock()
		c.Close()
		return
	}
	l.conn = nil
	l.gen++
	gen := l.gen
	l.downSince = time.Now()
	redial := l.peer < l.t.rank
	if redial {
		// Counted under mu for the reason attach gives: Close waits for
		// the redial goroutine, which a closed transport stops promptly.
		l.t.wg.Add(1)
	}
	l.mu.Unlock()
	c.Close()
	l.t.reconnects.Add(1)
	if l.t.nm != nil {
		l.t.nm.reconnects.Inc()
	}
	if redial {
		go func() {
			defer l.t.wg.Done()
			l.redial(gen)
		}()
	} else {
		deadline := l.t.deadline
		time.AfterFunc(deadline, func() {
			l.mu.Lock()
			lost := l.gen == gen && l.conn == nil && l.dead == nil
			l.mu.Unlock()
			if lost {
				l.t.peerDead(l, cause)
			}
		})
	}
}

// redial re-establishes a dropped connection from the dialing side, backing
// off between attempts, until the recovery deadline declares the peer dead
// or the transport closes.
func (l *lane) redial(gen uint64) {
	backoff := 5 * time.Millisecond
	for {
		l.mu.Lock()
		stale := l.gen != gen || l.conn != nil || l.dead != nil
		since := l.downSince
		l.mu.Unlock()
		if stale || l.t.closed.Load() {
			return
		}
		if time.Since(since) > l.t.deadline {
			l.t.peerDead(l, errPeerGone)
			return
		}
		c, err := l.t.dialPeer(l.peer)
		if err == nil {
			l.mu.Lock()
			stale = l.gen != gen
			l.mu.Unlock()
			if stale {
				c.Close()
				return
			}
			l.attach(c)
			return
		}
		if !l.t.pause(backoff) {
			return
		}
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// die makes the lane's failure sticky and wakes every blocked sender.
func (l *lane) die(rep *fault.Report) {
	l.mu.Lock()
	if l.dead == nil {
		l.dead = rep
	}
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// close tears the lane down on transport shutdown.
func (l *lane) close() {
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// sendData ships one runtime.Message as a data frame on the persistent
// connection — the zero-alloc hot path. If the lane is down it blocks until
// reconnection (or the peer's death report); a frame whose write fails is
// retried on the next connection, so a transparent reconnect loses at most
// what the kernel already buffered (which the runtime's reliable transport
// recovers — see DESIGN.md on failure semantics).
func (l *lane) sendData(epoch uint32, m runtime.Message) error {
	var hdr [laneHdrLen]byte
	n := putDataHeader(hdr[:], epoch, m)
	start, err := l.write(hdr[:n], m.Data)
	if err != nil {
		return err
	}
	if l.t.nm != nil && m.Seq != 0 && !m.Ack {
		l.noteRTTSend(m)
	}
	l.traceSend(start, "wire:send", int(m.Bundle), n+len(m.Data))
	return nil
}

// sendBytes writes a pre-encoded frame (hello/ctl — cold path) with the same
// block-until-up discipline as sendData.
func (l *lane) sendBytes(b []byte) error {
	_, err := l.write(nil, b)
	return err
}

// laneHdrLen sizes the lane's header scratch: the largest header a lane
// encodes (data frames).
const laneHdrLen = prefixLen + dataHdrLen

// write is the lane's one send path: it waits for a live connection (or the
// lane's death report, or transport shutdown), writes hdr followed by
// payload — one writev when both are present, so the payload reaches the
// kernel without a copy — and on a write error starts drop recovery and
// retries on the next connection. Callers encode hdr into scratch of their
// own: it is copied into the lane's header array only after the wait,
// because another sender may reuse that array while this one is blocked.
// The general frame and byte counters are kept here; start is when the
// successful attempt began (set only when the transport traces).
func (l *lane) write(hdr, payload []byte) (start time.Time, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.dead != nil {
			return start, l.dead
		}
		if l.t.closed.Load() {
			return start, errClosed
		}
		c := l.conn
		if c == nil {
			l.cond.Wait()
			continue
		}
		if l.t.tr != nil {
			start = time.Now()
		}
		n := copy(l.hdr[:], hdr)
		switch {
		case len(payload) == 0:
			_, err = c.Write(l.hdr[:n])
		case n == 0:
			_, err = c.Write(payload)
		default:
			l.bufArr[0] = l.hdr[:n]
			l.bufArr[1] = payload
			l.bufs = net.Buffers(l.bufArr[:])
			_, err = l.bufs.WriteTo(c)
			l.bufArr[1] = nil // do not retain the payload past the send
		}
		if err != nil {
			l.noteDropLocked(c, err)
			continue
		}
		wire := int64(n + len(payload))
		l.t.framesSent.Add(1)
		l.t.bytesSent.Add(wire)
		if nm := l.t.nm; nm != nil {
			nm.framesSent.Inc()
			nm.bytesSent.Add(wire)
		}
		return start, nil
	}
}

// traceSend records one sent frame as a wire event of the given class when
// the transport traces.
func (l *lane) traceSend(start time.Time, class string, k, wire int) {
	tr := l.t.tr
	if tr == nil {
		return
	}
	t0 := l.t.runT0()
	tr.Record(trace.Event{
		ID:   ptg.TaskID{Class: class, I: l.t.rank, J: l.peer, K: k},
		Kind: ptg.KindComm, Node: int32(l.t.rank), Core: 0,
		Start: start.Sub(t0), End: time.Since(t0), Msgs: 1, Bytes: wire,
	})
}

// noteDropLocked starts drop recovery from the send path (mu held): the
// lock is released around drop, whose work re-acquires it.
func (l *lane) noteDropLocked(c net.Conn, err error) {
	l.mu.Unlock()
	l.drop(c, err)
	l.mu.Lock()
}

// noteRTTSend stamps a sequenced outgoing message for the ack RTT histogram.
func (l *lane) noteRTTSend(m runtime.Message) {
	l.rttMu.Lock()
	if len(l.rtt) < rttCap {
		l.rtt[rttKey{src: m.Src, dst: m.Dst, seq: m.Seq}] = time.Now()
	}
	l.rttMu.Unlock()
}

// noteRTTAck resolves an inbound ack against the send stamp; the ack's
// Src/Dst are the reverse of the data message's.
func (l *lane) noteRTTAck(m runtime.Message) {
	k := rttKey{src: m.Dst, dst: m.Src, seq: m.Seq}
	l.rttMu.Lock()
	sent, ok := l.rtt[k]
	if ok {
		delete(l.rtt, k)
	}
	l.rttMu.Unlock()
	if ok {
		l.t.nm.ackRTT.Observe(time.Since(sent).Seconds())
	}
}

// clearRTT resets the tracking table between runs.
func (l *lane) clearRTT() {
	if l.rtt == nil {
		return
	}
	l.rttMu.Lock()
	clear(l.rtt)
	l.rttMu.Unlock()
}

// up reports whether the lane currently holds a live connection.
func (l *lane) up() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn != nil
}
