package runtime

import "testing"

// TestFifoQueueCompactsUnderStreaming pins the fix for unbounded growth: a
// queue that never fully drains used to retain every task ever pushed
// (head only reset on empty). Steady-state push/pop must keep the backing
// slice near the live size.
func TestFifoQueueCompactsUnderStreaming(t *testing.T) {
	q := &fifoQueue{}
	for i := int32(0); i < 4; i++ {
		q.push(i, 0)
	}
	next := int32(4)
	expect := int32(0)
	for i := 0; i < 100000; i++ {
		q.push(next, 0)
		next++
		v, ok := q.pop()
		if !ok {
			t.Fatal("pop failed with non-empty queue")
		}
		if v != expect {
			t.Fatalf("FIFO order broken: got %d, want %d", v, expect)
		}
		expect++
	}
	if q.size() != 4 {
		t.Fatalf("size = %d, want 4", q.size())
	}
	if len(q.items) > 16 {
		t.Fatalf("backing slice holds %d items for a live size of 4", len(q.items))
	}
}

func TestFifoQueueDrainResets(t *testing.T) {
	q := &fifoQueue{}
	for i := int32(0); i < 10; i++ {
		q.push(i, 0)
	}
	for i := int32(0); i < 10; i++ {
		if v, ok := q.pop(); !ok || v != i {
			t.Fatalf("pop = %d,%v, want %d", v, ok, i)
		}
	}
	if q.head != 0 || len(q.items) != 0 {
		t.Fatalf("drained queue not reset: head=%d len=%d", q.head, len(q.items))
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

// TestPrioQueueShrinksAfterBurst pins the heap-capacity fix: after a large
// burst drains, the backing array must shrink instead of pinning the peak
// footprint forever.
func TestPrioQueueShrinksAfterBurst(t *testing.T) {
	q := &prioQueue{}
	const burst = 16384
	for i := int32(0); i < burst; i++ {
		q.push(i, i%7)
	}
	peak := cap(q.h)
	for q.size() > 100 {
		if _, ok := q.pop(); !ok {
			t.Fatal("pop failed with non-empty heap")
		}
	}
	if c := cap(q.h); c > peak/8 {
		t.Fatalf("heap capacity %d after draining to 100 items (peak %d): backing array never shrank", c, peak)
	}
	// The survivors must still come out in priority order.
	last := int32(6)
	for q.size() > 0 {
		v, ok := q.pop()
		if !ok {
			t.Fatal("pop failed")
		}
		if p := v % 7; p > last {
			t.Fatalf("priority order broken after shrink: %d after %d", p, last)
		} else {
			last = p
		}
	}
}

// FuzzParsePolicy checks the -sched parser never panics and that every
// accepted name's canonical String re-parses to the same policy.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range []string{"fifo", "LIFO", "priority", "", "prio", "Fifo\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		p, err := ParsePolicy(name)
		if err != nil {
			return
		}
		if back, err := ParsePolicy(p.String()); err != nil || back != p {
			t.Fatalf("ParsePolicy(%q) = %v, but its String %q re-parses to %v, %v", name, p, p.String(), back, err)
		}
	})
}

// FuzzParseSteal checks the steal-mode parser never panics and that every
// accepted spelling's canonical String re-parses to the same mode.
func FuzzParseSteal(f *testing.F) {
	for _, s := range []string{"", "off", "greedy", "gated", "Greedy", "gated "} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		m, err := ParseSteal(name)
		if err != nil {
			return
		}
		if back, err := ParseSteal(m.String()); err != nil || back != m {
			t.Fatalf("ParseSteal(%q) = %v, but its String %q re-parses to %v, %v", name, m, m.String(), back, err)
		}
	})
}
