package runtime

import (
	"bytes"
	"testing"
	"unsafe"

	"castencil/internal/ptg"
)

// mustPanic reports an error unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestStorePutDuplicatePanics pins the write-once guard of both slot kinds:
// a dataflow value is produced exactly once.
func TestStorePutDuplicatePanics(t *testing.T) {
	s := NewStoreWithSlots(1, 1)
	s.PutSlot(0, "x")
	mustPanic(t, "double PutSlot", func() { s.PutSlot(0, "y") })
	s.PutBufSlot(0, []byte{1})
	mustPanic(t, "double PutBufSlot", func() { s.PutBufSlot(0, []byte{2}) })
}

// TestStoreTakeMissingPanics pins the guard against consuming a payload
// before it was produced, or twice.
func TestStoreTakeMissingPanics(t *testing.T) {
	s := NewStoreWithSlots(0, 1)
	mustPanic(t, "TakeBufSlot of an empty slot", func() { s.TakeBufSlot(0) })
	s.PutBufSlot(0, []byte{1})
	s.TakeBufSlot(0)
	mustPanic(t, "second TakeBufSlot", func() { s.TakeBufSlot(0) })
}

// storage is the address range a slice's backing array covers up to its
// capacity: everything a holder of the slice may write.
type storage struct{ lo, hi uintptr }

func storageOf(b []byte) storage {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return storage{lo, lo + uintptr(cap(b))}
}

// assertOwnStorage fails unless every deposited payload's storage is
// disjoint from the wire buffer's and from every other payload's.
func assertOwnStorage(t *testing.T, label string, wire []byte, deposits [][]byte) {
	t.Helper()
	w := storageOf(wire)
	for i, d := range deposits {
		s := storageOf(d)
		if s.lo < w.hi && w.lo < s.hi {
			t.Errorf("%s: payload %d storage [%#x, %#x) overlaps the wire buffer [%#x, %#x)", label, i, s.lo, s.hi, w.lo, w.hi)
		}
		for j, o := range deposits[:i] {
			if so := storageOf(o); s.lo < so.hi && so.lo < s.hi {
				t.Errorf("%s: payloads %d and %d share storage", label, j, i)
			}
		}
	}
}

// TestDepositedPayloadsOwnTheirStorage pins the buffer-slot ownership rule
// (ptg.Env.PutBufSlot) on the receive paths that do not hand the sender's
// buffer over whole: a coalesced bundle's fan-out and the fault layer's
// delivery copies deposit buffers whose full capacity belongs to the slot,
// so a consumer may repack into them. (netcomm pins the same rule for a
// TCP data frame.)
func TestDepositedPayloadsOwnTheirStorage(t *testing.T) {
	t.Run("fanOutBundle", func(t *testing.T) {
		sizes := []int{8, 24, 64, 200, 1000, 8}
		store := NewStoreWithSlots(0, len(sizes))
		deps := make([]ptg.Dep, len(sizes))
		want := make([][]byte, len(sizes))
		wireLen := 4 * (1 + len(sizes))
		for i, n := range sizes {
			slot := int32(i)
			want[i] = bytes.Repeat([]byte{byte(i + 1)}, n)
			deps[i] = ptg.Dep{
				Bytes:  n,
				Pack:   func(ptg.Env) []byte { return append(GetBuf(n)[:0], want[slot]...) },
				Unpack: func(e ptg.Env, data []byte) { e.PutBufSlot(slot, data) },
			}
			wireLen += n
		}
		g, members := bundleGraph(t, deps)
		wire := packBundle(make([]byte, 0, wireLen), nil, g, members)
		if err := fanOutBundle(store, g, members, wire); err != nil {
			t.Fatal(err)
		}
		deposits := make([][]byte, len(sizes))
		for i := range deposits {
			deposits[i] = store.TakeBufSlot(int32(i))
			if !bytes.Equal(deposits[i], want[i]) {
				t.Errorf("segment %d deposited %d bytes, not the %d packed", i, len(deposits[i]), sizes[i])
			}
		}
		assertOwnStorage(t, "bundle fan-out", wire, deposits)
	})
	t.Run("copyPayload", func(t *testing.T) {
		orig := Message{Data: append(GetBuf(300)[:0], bytes.Repeat([]byte{7}, 300)...)}
		// A duplicated delivery: two copies of one retained original.
		deposits := [][]byte{copyPayload(orig).Data, copyPayload(orig).Data}
		for i, d := range deposits {
			if !bytes.Equal(d, orig.Data) {
				t.Errorf("copy %d differs from the original", i)
			}
		}
		assertOwnStorage(t, "fault-layer copy", orig.Data, deposits)
	})
}
