package netcomm

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"castencil/internal/runtime"
)

// mustFrame decodes one frame from raw or fails the test.
func mustFrame(t *testing.T, raw []byte) Frame {
	t.Helper()
	var st readState
	f, err := readFrame(bytes.NewReader(raw), &st, nil, 0)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return f
}

func sameMsg(a, b runtime.Message) bool {
	return a.Src == b.Src && a.Dst == b.Dst && a.Task == b.Task && a.Dep == b.Dep &&
		a.Bundle == b.Bundle && a.Seq == b.Seq && a.Ack == b.Ack && a.Attempt == b.Attempt &&
		a.SentNanos == b.SentNanos && bytes.Equal(a.Data, b.Data)
}

// FuzzFrameRoundTrip encodes a data frame from fuzzed message fields and
// checks the decode returns the identical message; it also feeds the raw
// fuzz bytes straight to the decoder, which must reject garbage with an
// error, never a panic or an over-allocation.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint32(1), int32(0), int32(1), int32(7), int32(-1), int32(0), uint64(42), false, int32(0), int64(12345), []byte("halo"))
	f.Add(uint32(0), int32(3), int32(2), int32(0), int32(9), int32(5), uint64(0), true, int32(3), int64(-1), []byte{})
	f.Add(uint32(7), int32(-2), int32(-3), int32(1<<20), int32(99), int32(-5), uint64(1<<63), false, int32(-1), int64(1<<40), bytes.Repeat([]byte{0xAB}, 300))
	f.Fuzz(func(t *testing.T, epoch uint32, src, dst, task, dep, bundle int32, seq uint64, ack bool, attempt int32, sentNanos int64, payload []byte) {
		m := runtime.Message{
			Src: src, Dst: dst, Task: task, Dep: dep, Bundle: bundle,
			Seq: seq, Ack: ack, Attempt: attempt, SentNanos: sentNanos,
		}
		if len(payload) > 0 {
			m.Data = payload
		}
		raw := appendDataFrame(nil, epoch, m)
		var st readState
		got, err := readFrame(bytes.NewReader(raw), &st, nil, 0)
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
			if _, err := readFrame(r, &st2, nil, 1<<20); err != nil {
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
		f, err := readFrame(server, &st, nil, 0)
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
		_, err := readFrame(bytes.NewReader(raw[:cut]), &st, nil, 0)
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
		_, err := readFrame(bytes.NewReader(raw), &st, nil, maxFrame)
		return err
	}
	// Oversized length prefix.
	huge := appendDataFrame(nil, 0, runtime.Message{Data: bytes.Repeat([]byte{1}, 100)})
	if err := decode(huge, 50); err == nil {
		t.Error("oversized frame accepted")
	}
	// Unknown kind.
	raw := appendDataFrame(nil, 0, runtime.Message{})
	raw[4] = 99
	if err := decode(raw, 0); err == nil {
		t.Error("unknown kind accepted")
	}
	// Bad hello magic.
	raw = appendHelloFrame(nil, 0, 2)
	raw[prefixLen] ^= 0xFF
	if err := decode(raw, 0); err == nil {
		t.Error("bad magic accepted")
	}
	// Wrong protocol version.
	raw = appendHelloFrame(nil, 0, 2)
	raw[prefixLen+4] = 0xFF
	if err := decode(raw, 0); err == nil {
		t.Error("wrong version accepted")
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
