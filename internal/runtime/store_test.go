package runtime

import "testing"

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

func TestPolicyString(t *testing.T) {
	if FIFO.String() != "fifo" || LIFO.String() != "lifo" || PriorityOrder.String() != "priority" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() != "unknown" {
		t.Error("unknown policy name")
	}
}

func TestQueues(t *testing.T) {
	f := newReadyQueue(FIFO)
	f.push(1, 0)
	f.push(2, 0)
	if v, _ := f.pop(); v != 1 {
		t.Error("fifo must pop oldest")
	}
	l := newReadyQueue(LIFO)
	l.push(1, 0)
	l.push(2, 0)
	if v, _ := l.pop(); v != 2 {
		t.Error("lifo must pop newest")
	}
	p := newReadyQueue(PriorityOrder)
	p.push(1, 5)
	p.push(2, 9)
	p.push(3, 9)
	if v, _ := p.pop(); v != 2 {
		t.Error("priority must pop highest, FIFO among ties")
	}
	if v, _ := p.pop(); v != 3 {
		t.Error("tie must go to earlier push")
	}
	if v, _ := p.pop(); v != 1 {
		t.Error("lowest priority last")
	}
	if _, ok := p.pop(); ok {
		t.Error("empty pop must report false")
	}
	if f.size() != 1 { // 2 still queued
		t.Errorf("fifo size = %d", f.size())
	}
}
