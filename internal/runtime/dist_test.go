package runtime

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"castencil/internal/fault"
)

// TestRankOfNodeBalanced pins the placement over every mesh up to 64 nodes:
// each rank owns one non-empty contiguous block, block sizes differ by at
// most one, and an even split keeps its blocks of nodes/ranks.
func TestRankOfNodeBalanced(t *testing.T) {
	for nodes := 2; nodes <= 64; nodes++ {
		for ranks := 2; ranks <= nodes; ranks++ {
			size := make([]int, ranks)
			prev := 0
			for n := 0; n < nodes; n++ {
				r := RankOfNode(n, nodes, ranks)
				// Ranks rise from 0 in steps of at most one: contiguous blocks.
				if r < prev || r > prev+1 || (n == 0 && r != 0) {
					t.Fatalf("%d nodes on %d ranks: node %d on rank %d after rank %d", nodes, ranks, n, r, prev)
				}
				if nodes%ranks == 0 && r != n/(nodes/ranks) {
					t.Errorf("%d nodes on %d ranks: node %d on rank %d, even split wants %d", nodes, ranks, n, r, n/(nodes/ranks))
				}
				size[r]++
				prev = r
			}
			if prev != ranks-1 {
				t.Fatalf("%d nodes on %d ranks: ranks %d.. own no node", nodes, ranks, prev+1)
			}
			lo, hi := size[0], size[0]
			for _, s := range size {
				lo, hi = min(lo, s), max(hi, s)
			}
			if hi-lo > 1 {
				t.Errorf("%d nodes on %d ranks: block sizes %v differ by more than one", nodes, ranks, size)
			}
		}
	}
}

// wireStub is a Conduit whose one peer is the test: once the bound run
// passes its start barrier, the stub delivers in to it from a goroutine of
// its own, as a transport's read loop would. A panic on that goroutine is
// recovered into panicked and fails the run, so the test reports it instead
// of crashing.
type wireStub struct {
	in       Message
	deliver  func(Message)
	fail     func(error)
	fed      chan struct{}
	panicked any
	aborted  string
}

func (s *wireStub) Rank() int           { return 1 }
func (s *wireStub) Ranks() int          { return 2 }
func (s *wireStub) Begin()              {}
func (s *wireStub) Unbind()             {}
func (s *wireStub) Send(Message) error  { return nil }
func (s *wireStub) Abort(reason string) { s.aborted = reason }

func (s *wireStub) GatherStream(_ string, send func(int, func([]byte) error) error, _ func(int, []byte) error) error {
	return send(1<<20, func([]byte) error { return nil })
}

func (s *wireStub) Bind(_ int, deliver func(Message), fail func(error)) error {
	s.deliver, s.fail = deliver, fail
	return nil
}

func (s *wireStub) Barrier(tag string) error {
	if tag == "start" {
		go func() {
			defer close(s.fed)
			defer func() {
				if r := recover(); r != nil {
					s.panicked = r
					s.fail(fmt.Errorf("delivery panicked: %v", r))
				}
			}()
			s.deliver(s.in)
		}()
	}
	return nil
}

// TestHostileWireMessage feeds rank 1 of a two-rank run one wire message
// with a single bad addressing field per row. The rank owns node 1 of a
// three-step chain (node 0 -> 1 -> 0), whose one task waits for the payload
// of dependency 0 from node 0. Every bad row must fail the run with
// errBadMessage and broadcast the abort, never panic or hang (a deadline
// bounds each run); the well-formed row completes the rank's slice.
func TestHostileWireMessage(t *testing.T) {
	g := buildChain(t, 3, 2)
	valid := Message{Src: 0, Dst: 1, Task: 1, Dep: 0}
	for _, c := range []struct {
		name string
		mod  func(m *Message)
	}{
		{"valid", func(*Message) {}},
		{"src out of range", func(m *Message) { m.Src = 99 }},
		{"negative src", func(m *Message) { m.Src = -1 }},
		{"dst out of range", func(m *Message) { m.Dst = 99 }},
		{"negative dst", func(m *Message) { m.Dst = -1 }},
		{"dst on another rank", func(m *Message) { m.Dst = 0 }},
		{"task out of range", func(m *Message) { m.Task = 7 }},
		{"negative task", func(m *Message) { m.Task = -1 }},
		{"task on another node", func(m *Message) { m.Task = 2 }},
		{"dep out of range", func(m *Message) { m.Dep = 5 }},
		{"negative dep", func(m *Message) { m.Dep = -2 }},
		{"dep not produced on src", func(m *Message) { m.Src = 1 }},
		{"bundle out of range", func(m *Message) { m.Bundle = 1 }},
		{"negative bundle", func(m *Message) { m.Bundle = -1 }},
		{"ack without reliable transport", func(m *Message) { m.Ack = true }},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := valid
			m.Data = binary.LittleEndian.AppendUint64(GetBuf(8)[:0], 1)
			c.mod(&m)
			stub := &wireStub{in: m, fed: make(chan struct{})}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			res, err := Run(g, Options{Workers: 1, Ctx: ctx, Dist: &Dist{Rank: 1, Ranks: 2, Net: stub}})
			<-stub.fed
			if stub.panicked != nil {
				t.Fatalf("delivery panicked: %v", stub.panicked)
			}
			if c.name == "valid" {
				if err != nil || res.Completed != 1 {
					t.Fatalf("well-formed message: completed %d, error %v", res.Completed, err)
				}
				return
			}
			if !errors.Is(err, errBadMessage) {
				t.Fatalf("got error %v, want errBadMessage", err)
			}
			if stub.aborted == "" {
				t.Error("the failed run broadcast no abort")
			}
		})
	}
}

// lateWire is a wireStub for a reliable run whose feeder races the run's
// end, as a transport's read loop can: the stub acks every sequenced message
// the rank sends, and in the drain barrier it starts a feeder whose stray
// ack passes deliver's open check and is then held there (see
// testDeliverOpen) while the run closes. Once the run unbinds, the feeder
// delivers one more, as a reader that loaded the binding just before Unbind
// would.
type lateWire struct {
	*wireStub
	feeder  sync.WaitGroup
	held    chan struct{} // receives once the stray ack is held
	unbound chan struct{}
}

// strayAck is an ack for a sequence number the run never sent.
var strayAck = Message{Src: 0, Dst: 1, Seq: 1 << 40, Ack: true}

func (s *lateWire) Send(m Message) error {
	if m.Seq != 0 && !m.Ack {
		s.deliver(Message{Src: m.Dst, Dst: m.Src, Seq: m.Seq, Ack: true})
	}
	return nil
}

func (s *lateWire) Barrier(tag string) error {
	if tag == "drain" {
		s.feeder.Add(1)
		go func() {
			defer s.feeder.Done()
			s.deliver(strayAck)
			<-s.unbound
			s.deliver(strayAck)
		}()
		<-s.held
	}
	return s.wireStub.Barrier(tag)
}

func (s *lateWire) Unbind() { close(s.unbound) }

// TestLateWireDeliveryLeavesArraysEmpty runs rank 1 of a two-rank chain
// several times on one Arrays while a wire message races the end of every
// run. A delivery that found the run open must land before the run sweeps
// its channels, and one that comes after the run must be dropped, so every
// run that ends cleanly hands back empty inboxes and send queues: the next
// run must not consume a message of the last one.
func TestLateWireDeliveryLeavesArraysEmpty(t *testing.T) {
	held := make(chan struct{}, 1)
	testDeliverOpen = func(m Message) {
		if m.Seq == strayAck.Seq {
			held <- struct{}{}
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Cleanup(func() { testDeliverOpen = nil })
	g := buildChain(t, 3, 2)
	var a Arrays
	for i := 0; i < 5; i++ {
		in := Message{Src: 0, Dst: 1, Task: 1, Dep: 0, Seq: 1}
		in.Data = binary.LittleEndian.AppendUint64(GetBuf(8)[:0], 1)
		stub := &lateWire{wireStub: &wireStub{in: in, fed: make(chan struct{})}, held: held, unbound: make(chan struct{})}
		res, err := RunWith(g, Options{Workers: 1, Recovery: fault.DefaultRecovery(),
			Dist: &Dist{Rank: 1, Ranks: 2, Net: stub}}, &a)
		<-stub.fed
		stub.feeder.Wait()
		if err != nil || res.Completed != 1 {
			t.Fatalf("run %d: completed %v, error %v", i, res, err)
		}
		if a.inbox == nil {
			t.Fatalf("run %d ended cleanly but handed back no arrays", i)
		}
		for n := range a.inbox {
			if len(a.inbox[n]) != 0 || len(a.sendQ[n]) != 0 {
				t.Fatalf("run %d left node %d with %d inbox and %d send-queue entries",
					i, n, len(a.inbox[n]), len(a.sendQ[n]))
			}
		}
	}
}
