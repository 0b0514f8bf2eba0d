// Package netcomm is the TCP transport of a distributed run: the socket
// analogue of the runtime's in-process comm lanes. It implements
// runtime.Conduit — one long-lived connection per rank pair established at
// startup, length-prefixed frames carrying the exact bytes the in-process
// path produces, pre-negotiated size-classed receive buffers, and a
// writev-based send path that stays allocation-free in the steady state.
// The runtime's reliable ack/retransmit/dedup layer rides on top unchanged:
// acks are ordinary messages routed by destination node, so fault injection
// and recovery work identically over sockets.
package netcomm

import (
	"encoding/binary"
	"fmt"
	"io"

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
//	[u64 seq] [i32 attempt] [i64 sentNanos] [payload ...]
//
// The payload bytes are exactly what the in-process path would hand the
// destination inbox: a packed dependency payload or a coalesced bundle in
// the [u32 count][u32 len_i...][payload_i...] format of coalesce.go.
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
// kindStealReq/Rsp/Ret/Ack body — a runtime.StealMsg (the steal kind itself
// travels in the frame kind byte, so the body layout is shared):
//
//	[u8 flags] [u16 from] [u64 id] [i32 task] [i32 attempt] [payload ...]
//
// flags bit 0 marks a forced (policy-scripted) migration; the payload is the
// migration blob (task inputs on Rsp, results on Ret), empty on Req/Ack and
// on an empty Rsp.
const (
	prefixLen   = 9
	dataHdrLen  = 1 + 5*4 + 8 + 4 + 8
	helloLen    = 4 + 2 + 2 + 2 + 1
	stealHdrLen = 1 + 2 + 8 + 4 + 4

	kindHello = byte(1)
	kindData  = byte(2)
	kindCtl   = byte(3)
	// The four steal frame kinds map 1:1 onto runtime.StealReq..StealAck:
	// frame kind = kindStealReq + (StealMsg.Kind - runtime.StealReq).
	kindStealReq = byte(4)
	kindStealRsp = byte(5)
	kindStealRet = byte(6)
	kindStealAck = byte(7)

	flagAck = byte(1 << 0)
	// stealForced marks a steal frame whose StealMsg.Forced flag is set.
	stealForced = byte(1 << 0)

	helloMagic   = uint32(0x43415354) // "CAST"
	protoVersion = uint16(1)

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
)

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
	Msg   runtime.Message  // valid when Kind == kindData
	Hello Hello            // valid when Kind == kindHello
	Ctl   Ctl              // valid when Kind == kindCtl
	Steal runtime.StealMsg // valid when kindStealReq <= Kind <= kindStealAck
}

// stealFrame reports whether a frame kind carries a steal-protocol message.
func stealFrame(kind byte) bool { return kind >= kindStealReq && kind <= kindStealAck }

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
	le.PutUint64(b[42:], uint64(m.SentNanos))
	return prefixLen + dataHdrLen
}

// parseDataHeader decodes the fixed message header (without payload) from b,
// the inverse of putDataHeader's body part.
func parseDataHeader(b []byte) runtime.Message {
	le := binary.LittleEndian
	return runtime.Message{
		Ack:       b[0]&flagAck != 0,
		Src:       int32(le.Uint32(b[1:])),
		Dst:       int32(le.Uint32(b[5:])),
		Task:      int32(le.Uint32(b[9:])),
		Dep:       int32(le.Uint32(b[13:])),
		Bundle:    int32(le.Uint32(b[17:])),
		Seq:       le.Uint64(b[21:]),
		Attempt:   int32(le.Uint32(b[29:])),
		SentNanos: int64(le.Uint64(b[33:])),
	}
}

// putStealHeader encodes the frame prefix and fixed steal header for m into
// b (which must have room for prefixLen+stealHdrLen bytes) and returns the
// header length; the payload travels separately (writev), like putDataHeader.
func putStealHeader(b []byte, epoch uint32, m runtime.StealMsg) int {
	le := binary.LittleEndian
	le.PutUint32(b, uint32(stealHdrLen+len(m.Data)))
	b[4] = kindStealReq + (m.Kind - runtime.StealReq)
	le.PutUint32(b[5:], epoch)
	flags := byte(0)
	if m.Forced {
		flags |= stealForced
	}
	b[9] = flags
	le.PutUint16(b[10:], uint16(m.From))
	le.PutUint64(b[12:], m.ID)
	le.PutUint32(b[20:], uint32(m.Task))
	le.PutUint32(b[24:], uint32(m.Attempt))
	return prefixLen + stealHdrLen
}

// parseStealHeader decodes the fixed steal header (without payload), the
// inverse of putStealHeader's body part. frameKind selects which of the four
// steal frame kinds the body belongs to.
func parseStealHeader(frameKind byte, b []byte) runtime.StealMsg {
	le := binary.LittleEndian
	return runtime.StealMsg{
		Kind:    runtime.StealReq + (frameKind - kindStealReq),
		Forced:  b[0]&stealForced != 0,
		From:    int(le.Uint16(b[1:])),
		ID:      le.Uint64(b[3:]),
		Task:    int32(le.Uint32(b[11:])),
		Attempt: int32(le.Uint32(b[15:])),
	}
}

// appendStealFrame appends the complete wire frame for a steal message
// (codec tests; the persistent-lane path uses putStealHeader plus writev).
func appendStealFrame(dst []byte, epoch uint32, m runtime.StealMsg) []byte {
	var hdr [prefixLen + stealHdrLen]byte
	n := putStealHeader(hdr[:], epoch, m)
	dst = append(dst, hdr[:n]...)
	return append(dst, m.Data...)
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
	le := binary.LittleEndian
	body := 2 + 1 + 2 + len(tag) + len(payload)
	var b [prefixLen + 5]byte
	le.PutUint32(b[:], uint32(body))
	b[4] = kindCtl
	le.PutUint32(b[5:], epoch)
	le.PutUint16(b[9:], uint16(from))
	b[11] = op
	le.PutUint16(b[12:], uint16(len(tag)))
	dst = append(dst, b[:]...)
	dst = append(dst, tag...)
	return append(dst, payload...)
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

// readFrame reads and decodes one frame from r. getBuf supplies the payload
// buffer for data frames (nil falls back to make); the returned
// Frame.Msg.Data is owned by the caller, exactly like an in-process inbox
// delivery. Control and hello frames allocate — they are cold-path.
// maxFrame <= 0 means DefaultMaxFrame. A clean EOF at a frame boundary
// returns io.EOF; a truncation inside a frame returns io.ErrUnexpectedEOF.
func readFrame(r io.Reader, st *readState, getBuf func(int) []byte, maxFrame int) (Frame, error) {
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
		return Frame{}, fmt.Errorf("netcomm: frame body %d exceeds limit %d", body, maxFrame)
	}
	switch f.Kind {
	case kindData:
		if body < dataHdrLen {
			return Frame{}, fmt.Errorf("netcomm: data frame body %d shorter than header %d", body, dataHdrLen)
		}
		if _, err := io.ReadFull(r, st.hdr[:]); err != nil {
			return Frame{}, errShort(err)
		}
		f.Msg = parseDataHeader(st.hdr[:])
		if pl := body - dataHdrLen; pl > 0 {
			var buf []byte
			if getBuf != nil {
				buf = getBuf(pl)[:pl]
			} else {
				buf = make([]byte, pl)
			}
			if _, err := io.ReadFull(r, buf); err != nil {
				if getBuf != nil {
					runtime.PutBuf(buf)
				}
				return Frame{}, errShort(err)
			}
			f.Msg.Data = buf
		}
	case kindStealReq, kindStealRsp, kindStealRet, kindStealAck:
		if body < stealHdrLen {
			return Frame{}, fmt.Errorf("netcomm: steal frame body %d shorter than header %d", body, stealHdrLen)
		}
		if _, err := io.ReadFull(r, st.hdr[:stealHdrLen]); err != nil {
			return Frame{}, errShort(err)
		}
		f.Steal = parseStealHeader(f.Kind, st.hdr[:stealHdrLen])
		if pl := body - stealHdrLen; pl > 0 {
			var buf []byte
			if getBuf != nil {
				buf = getBuf(pl)[:pl]
			} else {
				buf = make([]byte, pl)
			}
			if _, err := io.ReadFull(r, buf); err != nil {
				if getBuf != nil {
					runtime.PutBuf(buf)
				}
				return Frame{}, errShort(err)
			}
			f.Steal.Data = buf
		}
	case kindHello:
		if body != helloLen {
			return Frame{}, fmt.Errorf("netcomm: hello frame body %d, want %d", body, helloLen)
		}
		b := st.hdr[:helloLen]
		if _, err := io.ReadFull(r, b); err != nil {
			return Frame{}, errShort(err)
		}
		if m := le.Uint32(b); m != helloMagic {
			return Frame{}, fmt.Errorf("netcomm: bad hello magic %#x", m)
		}
		f.Hello = Hello{
			Version: le.Uint16(b[4:]),
			Rank:    int(le.Uint16(b[6:])),
			Ranks:   int(le.Uint16(b[8:])),
		}
		if f.Hello.Version != protoVersion {
			return Frame{}, fmt.Errorf("netcomm: protocol version %d, want %d", f.Hello.Version, protoVersion)
		}
		if b[10] != 0 {
			return Frame{}, fmt.Errorf("netcomm: hello flags %#x, want 0", b[10])
		}
	case kindCtl:
		if body < 5 {
			return Frame{}, fmt.Errorf("netcomm: ctl frame body %d too short", body)
		}
		b := make([]byte, body)
		if _, err := io.ReadFull(r, b); err != nil {
			return Frame{}, errShort(err)
		}
		tagLen := int(le.Uint16(b[3:]))
		if 5+tagLen > body {
			return Frame{}, fmt.Errorf("netcomm: ctl tag length %d overruns body %d", tagLen, body)
		}
		f.Ctl = Ctl{
			From:    int(le.Uint16(b)),
			Op:      b[2],
			Tag:     string(b[5 : 5+tagLen]),
			Payload: b[5+tagLen:],
		}
	default:
		return Frame{}, fmt.Errorf("netcomm: unknown frame kind %d", f.Kind)
	}
	return f, nil
}
