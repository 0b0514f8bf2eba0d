package runtime

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"
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

func (s *wireStub) Rank() int                               { return 1 }
func (s *wireStub) Ranks() int                              { return 2 }
func (s *wireStub) Begin()                                  {}
func (s *wireStub) Unbind()                                 {}
func (s *wireStub) Send(Message) error                      { return nil }
func (s *wireStub) Abort(reason string)                     { s.aborted = reason }
func (s *wireStub) Gather(string, []byte) ([][]byte, error) { return nil, nil }

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
