package netcomm

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"unsafe"

	"castencil/internal/runtime"
)

// mustFrame decodes one frame from raw or fails the test.
func mustFrame(t *testing.T, raw []byte) Frame {
	t.Helper()
	var st readState
	f, err := readFrame(bytes.NewReader(raw), &st, 0)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return f
}

func sameMsg(a, b runtime.Message) bool {
	return a.Src == b.Src && a.Dst == b.Dst && a.Task == b.Task && a.Dep == b.Dep &&
		a.Bundle == b.Bundle && a.Seq == b.Seq && a.Ack == b.Ack && a.Attempt == b.Attempt &&
		bytes.Equal(a.Data, b.Data)
}

// FuzzFrameRoundTrip encodes a data frame from fuzzed message fields and
// checks the decode returns the identical message; it also feeds the raw
// fuzz bytes straight to the decoder, which must reject garbage with an
// error, never a panic or an over-allocation.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint32(1), int32(0), int32(1), int32(7), int32(-1), int32(0), uint64(42), false, int32(0), []byte("halo"))
	f.Add(uint32(0), int32(3), int32(2), int32(0), int32(9), int32(5), uint64(0), true, int32(3), []byte{})
	f.Add(uint32(7), int32(-2), int32(-3), int32(1<<20), int32(99), int32(-5), uint64(1<<63), false, int32(-1), bytes.Repeat([]byte{0xAB}, 300))
	// Negative addressing fields: the transport carries them as they come
	// (the runtime, not the frame codec, refuses them).
	f.Add(uint32(2), int32(0), int32(2), int32(-1), int32(-1), int32(-4), uint64(3), false, int32(1), []byte{})
	f.Add(uint32(2), int32(2), int32(0), int32(17), int32(-10), int32(-2), uint64(5), false, int32(0), []byte("tile inputs"))
	f.Fuzz(func(t *testing.T, epoch uint32, src, dst, task, dep, bundle int32, seq uint64, ack bool, attempt int32, payload []byte) {
		m := runtime.Message{
			Src: src, Dst: dst, Task: task, Dep: dep, Bundle: bundle,
			Seq: seq, Ack: ack, Attempt: attempt,
		}
		if len(payload) > 0 {
			m.Data = payload
		}
		raw := appendDataFrame(nil, epoch, m)
		var st readState
		got, err := readFrame(bytes.NewReader(raw), &st, 0)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if got.Kind != kindData || got.Epoch != epoch || !sameMsg(m, got.Msg) {
			t.Fatalf("round trip mutated the frame: sent %+v epoch %d, got %+v epoch %d", m, epoch, got.Msg, got.Epoch)
		}
		// Adversarial decode: the raw fuzz payload as a wire stream. Cap the
		// frame size so a fuzzed length prefix cannot make ReadFull allocate
		// wildly; any outcome but a panic is acceptable.
		var st2 readState
		for r := bytes.NewReader(payload); ; {
			if _, err := readFrame(r, &st2, 1<<20); err != nil {
				break
			}
		}
	})
}

// TestFrameRoundTripHelloCtl pins the cold-path codecs.
func TestFrameRoundTripHelloCtl(t *testing.T) {
	h := mustFrame(t, appendHelloFrame(nil, 3, 8))
	if h.Kind != kindHello || h.Hello.Rank != 3 || h.Hello.Ranks != 8 {
		t.Fatalf("hello round trip: %+v", h.Hello)
	}
	c := mustFrame(t, appendCtlFrame(nil, 9, 2, opGather, "stats", []byte("payload")))
	if c.Kind != kindCtl || c.Epoch != 9 || c.Ctl.From != 2 || c.Ctl.Op != opGather ||
		c.Ctl.Tag != "stats" || string(c.Ctl.Payload) != "payload" {
		t.Fatalf("ctl round trip: %+v", c.Ctl)
	}
	c = mustFrame(t, appendCtlFrame(nil, 1, 0, opBarrier, "", nil))
	if c.Ctl.Tag != "" || len(c.Ctl.Payload) != 0 {
		t.Fatalf("empty ctl round trip: %+v", c.Ctl)
	}
}

// TestTornFrames feeds a multi-frame stream through a net.Pipe one byte at a
// time — every frame boundary and every intra-frame boundary becomes a short
// read — and checks the reader reassembles all frames intact.
func TestTornFrames(t *testing.T) {
	msgs := []runtime.Message{
		{Src: 0, Dst: 1, Task: 5, Dep: 2, Data: []byte("north halo row")},
		{Src: 1, Dst: 0, Task: 6, Seq: 9, Ack: true},
		{Src: 0, Dst: 1, Bundle: 3, Data: bytes.Repeat([]byte{7}, 129)},
	}
	var stream []byte
	stream = appendHelloFrame(stream, 1, 2)
	for _, m := range msgs {
		stream = appendDataFrame(stream, 4, m)
	}
	stream = appendCtlFrame(stream, 4, 1, opBarrier, "drain", nil)

	client, server := net.Pipe()
	go func() {
		defer client.Close()
		for _, b := range stream {
			if _, err := client.Write([]byte{b}); err != nil {
				return
			}
		}
	}()

	var st readState
	var got []Frame
	for {
		f, err := readFrame(server, &st, 0)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("torn stream: %v", err)
		}
		got = append(got, f)
	}
	if len(got) != len(msgs)+2 {
		t.Fatalf("decoded %d frames, want %d", len(got), len(msgs)+2)
	}
	if got[0].Kind != kindHello || got[0].Hello.Rank != 1 {
		t.Errorf("first frame: %+v", got[0])
	}
	for i, m := range msgs {
		if !sameMsg(m, got[i+1].Msg) {
			t.Errorf("frame %d mutated: sent %+v got %+v", i, m, got[i+1].Msg)
		}
	}
	if last := got[len(got)-1]; last.Kind != kindCtl || last.Ctl.Tag != "drain" {
		t.Errorf("last frame: %+v", last)
	}
}

// TestShortRead truncates a valid frame at every byte offset: a stream
// ending at offset 0 is a clean io.EOF, anywhere inside a frame it must be
// io.ErrUnexpectedEOF — never a hang, never a partial frame.
func TestShortRead(t *testing.T) {
	raw := appendDataFrame(nil, 2, runtime.Message{Src: 0, Dst: 1, Task: 3, Data: []byte("0123456789abcdef")})
	for cut := 0; cut < len(raw); cut++ {
		var st readState
		_, err := readFrame(bytes.NewReader(raw[:cut]), &st, 0)
		switch {
		case cut == 0:
			if err != io.EOF {
				t.Fatalf("cut at 0: got %v, want io.EOF", err)
			}
		default:
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
			}
		}
	}
}

// TestBadFrames pins rejection of malformed input.
func TestBadFrames(t *testing.T) {
	decode := func(raw []byte, maxFrame int) error {
		var st readState
		_, err := readFrame(bytes.NewReader(raw), &st, maxFrame)
		return err
	}
	// Oversized length prefix.
	huge := appendDataFrame(nil, 0, runtime.Message{Data: bytes.Repeat([]byte{1}, 100)})
	if err := decode(huge, 50); err == nil {
		t.Error("oversized frame accepted")
	}
	// Unknown kinds, including the steal kinds version 1 had.
	raw := appendDataFrame(nil, 0, runtime.Message{})
	for _, kind := range []byte{4, 99} {
		raw[4] = kind
		if err := decode(raw, 0); err == nil {
			t.Errorf("unknown kind %d accepted", kind)
		}
	}
	// Bad hello magic.
	raw = appendHelloFrame(nil, 0, 2)
	raw[prefixLen] ^= 0xFF
	if err := decode(raw, 0); err == nil {
		t.Error("bad magic accepted")
	}
	// Wrong protocol version, including version 1.
	raw = appendHelloFrame(nil, 0, 2)
	for _, v := range []byte{1, 0xFF} {
		raw[prefixLen+4] = v
		if err := decode(raw, 0); err == nil {
			t.Errorf("protocol version %d accepted", v)
		}
	}
	// Ctl tag length overrunning the body.
	raw = appendCtlFrame(nil, 0, 1, opBarrier, "tag", nil)
	raw[prefixLen+3] = 0xFF
	if err := decode(raw, 0); err == nil {
		t.Error("tag overrun accepted")
	}
	// Data frame shorter than its fixed header.
	raw = appendCtlFrame(nil, 0, 1, opBarrier, "", nil)
	raw[4] = kindData
	if err := decode(raw, 0); err == nil {
		t.Error("undersized data frame accepted")
	}
	// A clean close must not be reported as a torn frame.
	if err := decode(nil, 0); !errors.Is(err, io.EOF) {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
}

// TestDepositedPayloadsOwnTheirStorage pins the buffer-slot ownership rule
// (ptg.Env.PutBufSlot) on the TCP receive path: each data frame's payload
// is read into a whole arena buffer of its own, never into a sub-slice of
// the stream's bytes, so its full capacity is the consumer's to repack into.
// (runtime pins the same rule for bundle fan-out and fault-layer copies.)
func TestDepositedPayloadsOwnTheirStorage(t *testing.T) {
	type storage struct{ lo, hi uintptr }
	storageOf := func(b []byte) storage {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		return storage{lo, lo + uintptr(cap(b))}
	}
	overlap := func(a, b storage) bool { return a.lo < b.hi && b.lo < a.hi }
	var wire []byte
	sizes := []int{8, 120, 64, 2000, 8}
	for i, n := range sizes {
		wire = appendDataFrame(wire, 1, runtime.Message{Task: int32(i), Data: bytes.Repeat([]byte{byte(i + 1)}, n)})
	}
	r := bytes.NewReader(wire)
	var st readState
	var got []storage
	for i, n := range sizes {
		f, err := readFrame(r, &st, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(f.Msg.Data, bytes.Repeat([]byte{byte(i + 1)}, n)) {
			t.Errorf("frame %d: payload differs from the %d bytes sent", i, n)
		}
		s := storageOf(f.Msg.Data)
		if overlap(s, storageOf(wire)) {
			t.Errorf("frame %d: payload storage overlaps the wire buffer", i)
		}
		for j, o := range got {
			if overlap(s, o) {
				t.Errorf("frames %d and %d share payload storage", j, i)
			}
		}
		got = append(got, s)
	}
}
