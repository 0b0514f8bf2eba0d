package netcomm

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"castencil/internal/fault"
	"castencil/internal/runtime"
)

// newMesh connects n loopback transports on pre-bound listeners.
func newMesh(t testing.TB, n int, mut func(r int, o *Options)) []*Transport {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	ts := make([]*Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := Options{Rank: r, Addrs: addrs, Listener: lns[r]}
			if mut != nil {
				mut(r, &o)
			}
			ts[r], errs[r] = Connect(o)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			if tr != nil {
				tr.Close()
			}
		}
	})
	return ts
}

// bindSink binds a run that collects every delivery into a channel.
func bindSink(t testing.TB, tr *Transport, numNodes int) (<-chan runtime.Message, <-chan error) {
	t.Helper()
	msgs := make(chan runtime.Message, 1024)
	fails := make(chan error, 8)
	err := tr.Bind(numNodes, func(m runtime.Message) { msgs <- m },
		func(err error) {
			select {
			case fails <- err:
			default:
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Unbind)
	return msgs, fails
}

// TestBarrierAndGather exercises the control plane across three ranks and
// two epochs.
func TestBarrierAndGather(t *testing.T) {
	ts := newMesh(t, 3, nil)
	for epoch := 0; epoch < 2; epoch++ {
		var wg sync.WaitGroup
		for _, tr := range ts {
			wg.Add(1)
			go func(tr *Transport) {
				defer wg.Done()
				tr.Begin()
				if err := tr.Barrier("start"); err != nil {
					t.Errorf("rank %d barrier: %v", tr.Rank(), err)
					return
				}
				blobs, err := tr.Gather("stats", []byte(fmt.Sprintf("rank-%d", tr.Rank())))
				if err != nil {
					t.Errorf("rank %d gather: %v", tr.Rank(), err)
					return
				}
				if tr.Rank() == 0 {
					if len(blobs) != 3 {
						t.Errorf("gather returned %d blobs, want 3", len(blobs))
						return
					}
					for r, b := range blobs {
						if want := fmt.Sprintf("rank-%d", r); string(b) != want {
							t.Errorf("blob[%d] = %q, want %q", r, b, want)
						}
					}
				} else if blobs != nil {
					t.Errorf("rank %d gather returned blobs", tr.Rank())
				}
			}(tr)
		}
		wg.Wait()
	}
}

// TestSendDeliver routes messages by destination node across a 2-rank mesh
// (4 virtual nodes, block placement: nodes 0-1 on rank 0, nodes 2-3 on
// rank 1) and checks exactly-once, payload-intact delivery.
func TestSendDeliver(t *testing.T) {
	ts := newMesh(t, 2, nil)
	const numNodes = 4
	for _, tr := range ts {
		tr.Begin()
	}
	got0, _ := bindSink(t, ts[0], numNodes)
	got1, _ := bindSink(t, ts[1], numNodes)
	const per = 100
	for i := 0; i < per; i++ {
		m := runtime.Message{Src: 0, Dst: 2, Task: int32(i), Data: []byte(fmt.Sprintf("payload-%d", i))}
		if err := ts[0].Send(m); err != nil {
			t.Fatal(err)
		}
		back := runtime.Message{Src: 3, Dst: 1, Task: int32(i)}
		if err := ts[1].Send(back); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < per; i++ {
		select {
		case m := <-got1:
			if m.Dst != 2 || string(m.Data) != fmt.Sprintf("payload-%d", m.Task) {
				t.Fatalf("rank 1 delivery mutated: %+v %q", m, m.Data)
			}
			runtime.PutBuf(m.Data)
		case <-time.After(5 * time.Second):
			t.Fatalf("rank 1 missing delivery %d of %d", i, per)
		}
		select {
		case m := <-got0:
			if m.Dst != 1 || m.Data != nil {
				t.Fatalf("rank 0 delivery mutated: %+v", m)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("rank 0 missing delivery %d of %d", i, per)
		}
	}
	select {
	case m := <-got1:
		t.Fatalf("rank 1 got an extra delivery: %+v", m)
	case m := <-got0:
		t.Fatalf("rank 0 got an extra delivery: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestTransientHelloRefused dials a live transport with a hello carrying the
// retired transient flag followed by a data frame: the connection must be
// closed like any other bad hello, and the frame must not reach the run.
func TestTransientHelloRefused(t *testing.T) {
	ts := newMesh(t, 2, nil)
	for _, tr := range ts {
		tr.Begin()
	}
	_, _ = bindSink(t, ts[0], 2)
	got1, _ := bindSink(t, ts[1], 2)

	c, err := net.Dial("tcp", ts[1].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := appendHelloFrame(nil, 0, 2)
	buf[len(buf)-1] = 1 // the old helloTransient bit
	buf = appendDataFrame(buf, ts[1].epoch.Load(), runtime.Message{Src: 0, Dst: 1, Task: 666, Data: []byte("x")})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ne net.Error
	if _, err := c.Read(make([]byte, 1)); err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("transient-bit hello not refused: read err = %v", err)
	}

	// The refused connection is closed, so nothing more is read from it; the
	// next delivery must be the lane's own frame.
	if err := ts[0].Send(runtime.Message{Src: 0, Dst: 1, Task: 1, Data: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got1:
		if m.Task != 1 {
			t.Fatalf("frame behind a refused hello was delivered: %+v", m)
		}
		runtime.PutBuf(m.Data)
	case <-time.After(5 * time.Second):
		t.Fatal("lane delivery missing after a refused hello")
	}
}

// TestZeroAllocLaneRoundTrip is the lane's steady-state allocation budget:
// after warm-up, sending a payload-bearing message and receiving one back
// performs zero heap allocations on the persistent lane (header array +
// writev on the way out, pooled size-classed buffer on the way in) — for
// data frames and for steal frames alike.
func TestZeroAllocLaneRoundTrip(t *testing.T) {
	ts := newMesh(t, 2, nil)
	for _, tr := range ts {
		tr.Begin()
	}
	got0, _ := bindSink(t, ts[0], 2)
	got1, _ := bindSink(t, ts[1], 2)

	const payloadLen = 512
	roundTrip := func() {
		out := runtime.GetBuf(payloadLen)
		if err := ts[0].Send(runtime.Message{Src: 0, Dst: 1, Task: 1, Data: out}); err != nil {
			t.Fatal(err)
		}
		runtime.PutBuf(out)
		in := <-got1
		echo := runtime.GetBuf(payloadLen)
		copy(echo, in.Data)
		runtime.PutBuf(in.Data)
		if err := ts[1].Send(runtime.Message{Src: 1, Dst: 0, Task: 2, Data: echo}); err != nil {
			t.Fatal(err)
		}
		runtime.PutBuf(echo)
		back := <-got0
		runtime.PutBuf(back.Data)
	}
	// Warm up: first sends populate the kernel iovec cache and the buffer
	// pool's size classes.
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Errorf("lane round trip allocates %.1f times per message pair, want 0", allocs)
	}

	// The same budget for a migration round trip: an offer carrying task
	// inputs out, a return carrying results back.
	steals0 := make(chan runtime.StealMsg, 1)
	steals1 := make(chan runtime.StealMsg, 1)
	ts[0].BindSteal(func(m runtime.StealMsg) { steals0 <- m })
	ts[1].BindSteal(func(m runtime.StealMsg) { steals1 <- m })
	defer ts[0].BindSteal(nil)
	defer ts[1].BindSteal(nil)
	stealTrip := func() {
		out := runtime.GetBuf(payloadLen)
		if err := ts[0].SendSteal(1, runtime.StealMsg{Kind: runtime.StealRsp, From: 0, ID: 1, Task: 3, Data: out}); err != nil {
			t.Fatal(err)
		}
		runtime.PutBuf(out)
		in := <-steals1
		ret := runtime.GetBuf(payloadLen)
		copy(ret, in.Data)
		runtime.PutBuf(in.Data)
		if err := ts[1].SendSteal(0, runtime.StealMsg{Kind: runtime.StealRet, From: 1, ID: 1, Task: 3, Data: ret}); err != nil {
			t.Fatal(err)
		}
		runtime.PutBuf(ret)
		back := <-steals0
		runtime.PutBuf(back.Data)
	}
	for i := 0; i < 100; i++ {
		stealTrip()
	}
	if allocs := testing.AllocsPerRun(200, stealTrip); allocs != 0 {
		t.Errorf("lane steal round trip allocates %.1f times per frame pair, want 0", allocs)
	}
}

// TestPeerLoss kills one side of the mesh and checks the survivor degrades
// gracefully: past the recovery deadline the bound run receives a structured
// *fault.Report naming the dead rank, and pending collective calls fail with
// it instead of hanging.
func TestPeerLoss(t *testing.T) {
	deadline := 150 * time.Millisecond
	ts := newMesh(t, 2, func(r int, o *Options) {
		o.Recovery = fault.Recovery{Deadline: deadline}
	})
	for _, tr := range ts {
		tr.Begin()
	}
	_, fails := bindSink(t, ts[0], 2)
	// Rank 1 dies mid-run: its process is gone, sockets reset.
	ts[1].Close()

	barrierErr := make(chan error, 1)
	go func() { barrierErr <- ts[0].Barrier("drain") }()

	wantReport := func(err error) *fault.Report {
		t.Helper()
		var rep *fault.Report
		if !errors.As(err, &rep) {
			t.Fatalf("got %T (%v), want *fault.Report", err, err)
		}
		if !rep.PeerLost || rep.DeadRank != 1 {
			t.Fatalf("report does not name the dead rank: %+v", rep)
		}
		return rep
	}
	select {
	case err := <-fails:
		wantReport(err)
	case <-time.After(10 * deadline):
		t.Fatal("bound run never notified of the dead peer")
	}
	select {
	case err := <-barrierErr:
		rep := wantReport(err)
		if rep.Waited < deadline {
			t.Errorf("peer declared dead after %v, before the %v deadline", rep.Waited, deadline)
		}
	case <-time.After(10 * deadline):
		t.Fatal("barrier hung on the dead peer")
	}
	// Sends to the dead rank fail fast now.
	if err := ts[0].Send(runtime.Message{Src: 0, Dst: 1}); err == nil {
		t.Error("send to a dead rank succeeded")
	}
	up, want := ts[0].Connected()
	if up != 1 || want != 2 {
		t.Errorf("Connected() = %d/%d, want 1/2", up, want)
	}
}

// TestReconnectMasksDrop severs the lane's TCP connection without killing
// the peer: the dialing side re-establishes it within the deadline and a
// blocked send completes — the drop is invisible to the caller.
func TestReconnectMasksDrop(t *testing.T) {
	ts := newMesh(t, 2, func(r int, o *Options) {
		o.Recovery = fault.Recovery{Deadline: 5 * time.Second}
	})
	for _, tr := range ts {
		tr.Begin()
	}
	_, _ = bindSink(t, ts[0], 2)
	got1, _ := bindSink(t, ts[1], 2)
	if err := ts[0].Send(runtime.Message{Src: 0, Dst: 1, Task: 1}); err != nil {
		t.Fatal(err)
	}
	m := <-got1
	if m.Task != 1 {
		t.Fatalf("delivery mutated: %+v", m)
	}
	// Sever the established lane from rank 1's side (rank 1 is the dialer:
	// peer 0 < rank 1, so it redials).
	ts[1].severLane(0)
	// A frame the kernel accepted just before the drop is lost by design
	// (the runtime's reliable layer recovers such losses); the raw
	// transport contract is only that a *later* send lands once the lane is
	// back. So: send, wait briefly, resend until one arrives.
	deadlineAt := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadlineAt) {
		if err := ts[0].Send(runtime.Message{Src: 0, Dst: 1, Task: 2}); err != nil {
			t.Fatalf("send after drop: %v", err)
		}
		select {
		case m = <-got1:
			if m.Task == 2 {
				if ts[0].Stats().Reconnects == 0 && ts[1].Stats().Reconnects == 0 {
					t.Error("delivery resumed but no reconnect was recorded")
				}
				return // reconnect masked the drop
			}
		case <-time.After(100 * time.Millisecond):
		}
	}
	t.Fatal("no delivery after reconnect")
}

// severLane force-closes the current connection to peer, simulating a
// network-level drop (test hook).
func (t *Transport) severLane(peer int) {
	l := t.lanes[peer]
	l.mu.Lock()
	c := l.conn
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// TestAbortPropagates checks a rank's abort fails the peers' pending
// collectives and bound runs with the structured cause.
func TestAbortPropagates(t *testing.T) {
	ts := newMesh(t, 2, nil)
	for _, tr := range ts {
		tr.Begin()
	}
	_, fails := bindSink(t, ts[0], 2)
	barrierErr := make(chan error, 1)
	go func() { barrierErr <- ts[0].Barrier("drain") }()
	ts[1].Abort("task panic: boom")

	var abortErr *AbortError
	select {
	case err := <-barrierErr:
		if !errors.As(err, &abortErr) || abortErr.Rank != 1 {
			t.Fatalf("barrier got %v, want *AbortError from rank 1", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("barrier hung across the abort")
	}
	select {
	case err := <-fails:
		if !errors.As(err, &abortErr) {
			t.Fatalf("bound run got %v, want *AbortError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bound run never failed after abort")
	}
	// The next epoch starts clean on both ranks.
	var wg sync.WaitGroup
	for _, tr := range ts {
		wg.Add(1)
		go func(tr *Transport) {
			defer wg.Done()
			tr.Begin()
			if err := tr.Barrier("start"); err != nil {
				t.Errorf("rank %d post-abort barrier: %v", tr.Rank(), err)
			}
		}(tr)
	}
	wg.Wait()
}

// TestJobBroadcast covers the management plane stencild rides on: rank 0
// pushes a job spec, followers receive it on Jobs().
func TestJobBroadcast(t *testing.T) {
	ts := newMesh(t, 3, nil)
	if err := ts[0].SendJob([]byte(`{"n":64}`)); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 3; r++ {
		select {
		case b := <-ts[r].Jobs():
			if string(b) != `{"n":64}` {
				t.Errorf("rank %d job payload %q", r, b)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("rank %d never received the job", r)
		}
	}
	if err := ts[1].SendJob([]byte("x")); err == nil {
		t.Error("SendJob from a follower succeeded")
	}
}
