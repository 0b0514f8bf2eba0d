// Package netcomm is the TCP transport of a distributed run: the socket
// analogue of the runtime's in-process message delivery. It implements
// runtime.Conduit — one long-lived connection per rank pair established at
// startup, length-prefixed frames carrying the exact bytes the in-process
// path produces, data payloads received into the runtime's byte arena, and
// a writev-based send path that stays allocation-free in the steady state.
// The runtime's reliable ack/retransmit/dedup layer rides on top unchanged:
// acks are ordinary messages routed by destination node, so fault injection
// and recovery work identically over sockets, and one frame kind carries
// every runtime.Message.
package netcomm

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"castencil/internal/runtime"
)

// Wire framing: every frame is
//
//	[u32 bodyLen] [u8 kind] [u32 epoch] [body ...]
//
// (little-endian). Epoch is the run counter collectives and data frames are
// scoped to (see transport.go); hello frames carry epoch 0.
//
// kindData body — a runtime.Message:
//
//	[u8 flags] [i32 src] [i32 dst] [i32 task] [i32 dep] [i32 bundle]
//	[u64 seq] [i32 attempt] [u64 reserved] [payload ...]
//
// The reserved word keeps the version-2 header layout: it is written as
// zero and ignored on receipt.
//
// The payload bytes are exactly what the in-process path would hand the
// destination inbox: a packed dependency payload, or a coalesced bundle in
// the [u32 count][u32 len_i...][payload_i...] format of coalesce.go. The
// transport decodes the header fields as they come; the runtime checks them
// against its graph before it delivers the message.
//
// kindHello body (handshake, one per fresh connection, dialer speaks first):
//
//	[u32 magic] [u16 version] [u16 rank] [u16 ranks] [u8 flags]
//
// No hello flag is defined; a hello with any flag bit set is refused.
//
// kindCtl body (membership/collective control plane):
//
//	[u16 fromRank] [u8 op] [u16 tagLen] [tag ...] [payload ...]
//
// A ctl payload is read into a runtime.GetBuf buffer of its own. A gather
// travels as a stream: each rank other than 0 sends one opGather frame per
// record, then one opGatherEnd frame whose payload is the [u32 count] of
// records it sent; rank 0 answers each rank with one payload-less
// opGatherOK.
//
// Version 1 had four more frame kinds (4-7); version 2 retired them, and a
// decoder rejects them as unknown. Version 3 replaced the one-frame gather,
// which carried a rank's whole payload, with the stream above.
const (
	prefixLen  = 9
	dataHdrLen = 1 + 5*4 + 8 + 4 + 8
	helloLen   = 4 + 2 + 2 + 2 + 1

	kindHello = byte(1)
	kindData  = byte(2)
	kindCtl   = byte(3)

	flagAck = byte(1 << 0)

	helloMagic   = uint32(0x43415354) // "CAST"
	protoVersion = uint16(3)

	// DefaultMaxFrame bounds a frame body so a corrupt or hostile length
	// prefix cannot ask the receiver to allocate unbounded memory. Large
	// enough for any coalesced halo bundle the stencil shapes produce.
	DefaultMaxFrame = 1 << 28
)

// Control-plane opcodes.
const (
	opBarrier  = byte(1)
	opGather   = byte(2)
	opGatherOK = byte(3)
	opAbort    = byte(4)
	opJob      = byte(5)
	// opGatherEnd closes a rank's gather stream (see kindCtl above).
	opGatherEnd = byte(6)
)

// ctlHdrLen is a ctl body's fixed part before the tag: from, op, tag length.
const ctlHdrLen = 2 + 1 + 2

// Hello is a decoded handshake frame.
type Hello struct {
	Rank, Ranks int
	Version     uint16
}

// Ctl is a decoded control frame.
type Ctl struct {
	From    int
	Op      byte
	Tag     string
	Payload []byte
}

// Frame is one decoded wire frame.
type Frame struct {
	Kind  byte
	Epoch uint32
	Msg   runtime.Message // valid when Kind == kindData
	Hello Hello           // valid when Kind == kindHello
	Ctl   Ctl             // valid when Kind == kindCtl
}

// putDataHeader encodes the frame prefix and fixed message header for m into
// b (which must have room for prefixLen+dataHdrLen bytes) and returns the
// header length. The payload travels separately (writev), so the steady-
// state send path never copies it.
func putDataHeader(b []byte, epoch uint32, m runtime.Message) int {
	le := binary.LittleEndian
	le.PutUint32(b, uint32(dataHdrLen+len(m.Data)))
	b[4] = kindData
	le.PutUint32(b[5:], epoch)
	flags := byte(0)
	if m.Ack {
		flags |= flagAck
	}
	b[9] = flags
	le.PutUint32(b[10:], uint32(m.Src))
	le.PutUint32(b[14:], uint32(m.Dst))
	le.PutUint32(b[18:], uint32(m.Task))
	le.PutUint32(b[22:], uint32(m.Dep))
	le.PutUint32(b[26:], uint32(m.Bundle))
	le.PutUint64(b[30:], m.Seq)
	le.PutUint32(b[38:], uint32(m.Attempt))
	le.PutUint64(b[42:], 0) // reserved
	return prefixLen + dataHdrLen
}

// parseDataHeader decodes the fixed message header (without payload) from b,
// the inverse of putDataHeader's body part.
func parseDataHeader(b []byte) runtime.Message {
	le := binary.LittleEndian
	return runtime.Message{
		Ack:     b[0]&flagAck != 0,
		Src:     int32(le.Uint32(b[1:])),
		Dst:     int32(le.Uint32(b[5:])),
		Task:    int32(le.Uint32(b[9:])),
		Dep:     int32(le.Uint32(b[13:])),
		Bundle:  int32(le.Uint32(b[17:])),
		Seq:     le.Uint64(b[21:]),
		Attempt: int32(le.Uint32(b[29:])),
	}
}

// appendDataFrame appends the complete wire frame for m (header and payload)
// to dst — the contiguous-encode used by the per-message connection mode and
// the codec tests; the persistent-lane hot path uses putDataHeader plus
// writev instead.
func appendDataFrame(dst []byte, epoch uint32, m runtime.Message) []byte {
	var hdr [prefixLen + dataHdrLen]byte
	n := putDataHeader(hdr[:], epoch, m)
	dst = append(dst, hdr[:n]...)
	return append(dst, m.Data...)
}

// appendHelloFrame appends a handshake frame.
func appendHelloFrame(dst []byte, rank, ranks int) []byte {
	le := binary.LittleEndian
	var b [prefixLen + helloLen]byte
	le.PutUint32(b[:], helloLen)
	b[4] = kindHello
	le.PutUint32(b[5:], 0)
	le.PutUint32(b[9:], helloMagic)
	le.PutUint16(b[13:], protoVersion)
	le.PutUint16(b[15:], uint16(rank))
	le.PutUint16(b[17:], uint16(ranks))
	return append(dst, b[:]...)
}

// appendCtlFrame appends a control frame.
func appendCtlFrame(dst []byte, epoch uint32, from int, op byte, tag string, payload []byte) []byte {
	n := len(dst)
	hdr := prefixLen + ctlHdrLen + len(tag)
	dst = slices.Grow(dst, hdr+len(payload))[:n+hdr]
	putCtlHeader(dst[n:], epoch, from, op, tag, len(payload))
	return append(dst, payload...)
}

// putCtlHeader encodes the frame prefix, the fixed ctl header and tag of a
// control frame carrying n payload bytes into b (which must have room for
// them) and returns the header length, so the payload can ride a writev of
// its own.
func putCtlHeader(b []byte, epoch uint32, from int, op byte, tag string, n int) int {
	le := binary.LittleEndian
	le.PutUint32(b, uint32(ctlHdrLen+len(tag)+n))
	b[4] = kindCtl
	le.PutUint32(b[5:], epoch)
	le.PutUint16(b[9:], uint16(from))
	b[11] = op
	le.PutUint16(b[12:], uint16(len(tag)))
	return prefixLen + ctlHdrLen + copy(b[prefixLen+ctlHdrLen:], tag)
}

// readState is the per-connection scratch a frame reader reuses across
// frames, keeping the steady-state receive path allocation-free.
type readState struct {
	prefix [prefixLen]byte
	hdr    [dataHdrLen]byte
}

// errShort maps mid-frame EOF to ErrUnexpectedEOF: a stream that ends at a
// frame boundary is a clean close, inside a frame it is a torn frame.
func errShort(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// oversizeError is readFrame's error for a frame whose body exceeds the
// reader's limit. Nothing of the body has been read: the frame is still
// delimited, so a reader that skips the body keeps the stream in step.
type oversizeError struct{ body, limit int }

func (e *oversizeError) Error() string {
	return fmt.Sprintf("netcomm: frame body %d exceeds limit %d", e.body, e.limit)
}

// readFrame reads and decodes one frame from r. A data frame's payload, and
// a control frame's, is read into a runtime.GetBuf buffer that the caller
// owns, exactly like an in-process inbox delivery (see the ownership rule
// in runtime/pool.go). maxFrame <= 0 means DefaultMaxFrame. A clean EOF at
// a frame boundary returns io.EOF; a truncation inside a frame returns
// io.ErrUnexpectedEOF. Once the prefix is read, the returned Frame carries
// its Kind and Epoch even alongside an error; nothing else of it is valid
// then.
func readFrame(r io.Reader, st *readState, maxFrame int) (Frame, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if _, err := io.ReadFull(r, st.prefix[:]); err != nil {
		return Frame{}, err // io.EOF here is a clean close
	}
	le := binary.LittleEndian
	body := int(le.Uint32(st.prefix[:]))
	f := Frame{Kind: st.prefix[4], Epoch: le.Uint32(st.prefix[5:])}
	if body > maxFrame {
		return f, &oversizeError{body: body, limit: maxFrame}
	}
	switch f.Kind {
	case kindData:
		if body < dataHdrLen {
			return f, fmt.Errorf("netcomm: data frame body %d shorter than header %d", body, dataHdrLen)
		}
		if _, err := io.ReadFull(r, st.hdr[:]); err != nil {
			return f, errShort(err)
		}
		f.Msg = parseDataHeader(st.hdr[:])
		if pl := body - dataHdrLen; pl > 0 {
			buf, err := readPayload(r, pl)
			if err != nil {
				return f, err
			}
			f.Msg.Data = buf
		}
	case kindHello:
		if body != helloLen {
			return f, fmt.Errorf("netcomm: hello frame body %d, want %d", body, helloLen)
		}
		b := st.hdr[:helloLen]
		if _, err := io.ReadFull(r, b); err != nil {
			return f, errShort(err)
		}
		if m := le.Uint32(b); m != helloMagic {
			return f, fmt.Errorf("netcomm: bad hello magic %#x", m)
		}
		f.Hello = Hello{
			Version: le.Uint16(b[4:]),
			Rank:    int(le.Uint16(b[6:])),
			Ranks:   int(le.Uint16(b[8:])),
		}
		if f.Hello.Version != protoVersion {
			return f, fmt.Errorf("netcomm: protocol version %d, want %d", f.Hello.Version, protoVersion)
		}
		if b[10] != 0 {
			return f, fmt.Errorf("netcomm: hello flags %#x, want 0", b[10])
		}
	case kindCtl:
		if body < ctlHdrLen {
			return f, fmt.Errorf("netcomm: ctl frame body %d too short", body)
		}
		b := st.hdr[:ctlHdrLen]
		if _, err := io.ReadFull(r, b); err != nil {
			return f, errShort(err)
		}
		tagLen := int(le.Uint16(b[3:]))
		if ctlHdrLen+tagLen > body {
			return f, fmt.Errorf("netcomm: ctl tag length %d overruns body %d", tagLen, body)
		}
		f.Ctl = Ctl{From: int(le.Uint16(b)), Op: b[2]}
		tag := st.hdr[:0]
		if tagLen > len(st.hdr) {
			tag = make([]byte, 0, tagLen)
		}
		tag = tag[:tagLen]
		if _, err := io.ReadFull(r, tag); err != nil {
			return f, errShort(err)
		}
		f.Ctl.Tag = string(tag)
		if pl := body - ctlHdrLen - tagLen; pl > 0 {
			buf, err := readPayload(r, pl)
			if err != nil {
				return f, err
			}
			f.Ctl.Payload = buf
		}
	default:
		return f, fmt.Errorf("netcomm: unknown frame kind %d", f.Kind)
	}
	return f, nil
}

// readPayload reads the next n bytes of r into a runtime.GetBuf buffer.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := runtime.GetBuf(n)
	if _, err := io.ReadFull(r, buf); err != nil {
		runtime.PutBuf(buf)
		return nil, errShort(err)
	}
	return buf, nil
}
