package netcomm

import (
	"testing"

	"castencil/internal/runtime"
)

// TestTransportStealExchange sends steal messages and halo messages over
// the same mesh as ordinary data frames and checks the two are accounted
// apart: steal messages, and the acks of steal messages, appear in both the
// general totals and the Steal* breakdown, so the halo-only view
// (FramesSent - StealFramesSent) is unpolluted.
func TestTransportStealExchange(t *testing.T) {
	ts := newMesh(t, 2, nil)
	for _, tr := range ts {
		tr.Begin()
	}
	bindSink(t, ts[0], 2)
	got1, _ := bindSink(t, ts[1], 2)
	base := ts[0].Stats() // mesh bring-up already cost hello frames

	sent := []runtime.Message{
		{Src: 0, Dst: 1, Task: -1, Dep: -1, Bundle: -1},                                     // probe
		{Src: 0, Dst: 1, Task: 9, Data: []byte("halo")},                                     // halo
		{Src: 0, Dst: 1, Task: 9, Dep: -10, Bundle: -1, Seq: 4, Data: []byte("tile bytes")}, // forced offer
		{Src: 0, Dst: 1, Dep: -3, Seq: 2, Ack: true},                                        // ack of a return
	}
	for _, m := range sent {
		if err := ts[0].Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range sent {
		if m := <-got1; m.Dep != want.Dep || m.IsSteal() != want.IsSteal() || string(m.Data) != string(want.Data) {
			t.Errorf("delivery %d: got %+v, want %+v", i, m, want)
		}
	}

	s := ts[0].Stats()
	if got := s.StealFramesSent - base.StealFramesSent; got != 3 {
		t.Errorf("StealFramesSent = %d, want 3", got)
	}
	halo := (s.FramesSent - base.FramesSent) - (s.StealFramesSent - base.StealFramesSent)
	if halo != 1 {
		t.Errorf("halo-only frames = %d, want the 1 halo", halo)
	}
	stealB, totalB := s.StealBytesSent-base.StealBytesSent, s.BytesSent-base.BytesSent
	if want := totalB - int64(prefixLen+dataHdrLen+len("halo")); stealB != want {
		t.Errorf("steal bytes %d, want total %d minus the halo frame = %d", stealB, totalB, want)
	}
	r := ts[1].Stats()
	if r.StealFramesRecv != 3 || r.StealBytesRecv != stealB {
		t.Errorf("receiver steal frames/bytes = %d/%d, want 3/%d", r.StealFramesRecv, r.StealBytesRecv, stealB)
	}
}
