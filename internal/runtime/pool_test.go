package runtime

import "testing"

// TestSizeClasses checks the 32-per-octave classes: every request above
// the smallest class gets a capacity within 1/32 of it, and every class's
// capacity returns home to that same class, so a recycled buffer serves the
// next request of its size.
func TestSizeClasses(t *testing.T) {
	for n := 1; n <= 1<<poolMinBits; n++ {
		if got := sizeClass(n); got != 0 {
			t.Fatalf("sizeClass(%d) = %d, want 0", n, got)
		}
	}
	for n := 1<<poolMinBits + 1; n <= 1<<22; n++ {
		c := sizeClass(n)
		if c < 0 || classCap(c) < n || 32*classCap(c) > 33*n {
			t.Fatalf("sizeClass(%d) = %d with capacity %d, want a capacity in [n, 1.03125n]", n, c, classCap(c))
		}
	}
	for c := 0; c <= poolMaxClass; c++ {
		if got := homeClass(classCap(c)); got != c {
			t.Errorf("homeClass(classCap(%d) = %d) = %d, want %d", c, classCap(c), got, c)
		}
		if c > 0 && homeClass(classCap(c)-1) != c-1 {
			t.Errorf("homeClass(%d) = %d, want %d (round down)", classCap(c)-1, homeClass(classCap(c)-1), c-1)
		}
	}
	if got := classCap(poolMaxClass); got != 1<<poolMaxBits {
		t.Errorf("largest class holds %d elements, want %d", got, 1<<poolMaxBits)
	}
	if got := homeClass(63); got != -1 {
		t.Errorf("homeClass(63) = %d, want -1 (below smallest class)", got)
	}
	if got := homeClass(1 << 40); got != -1 {
		t.Errorf("homeClass(1<<40) = %d, want -1 (beyond largest class)", got)
	}
}

func TestPoolReuse(t *testing.T) {
	var p slicePool[byte]
	a := p.get(100)
	if len(a) != 100 {
		t.Fatalf("Get(100) returned len %d", len(a))
	}
	p.put(a)
	b := p.get(99) // same class (99..100): must reuse a's backing array
	if &a[0] != &b[0] {
		t.Error("pool did not reuse the recycled buffer for a same-class Get")
	}
	if len(b) != 99 {
		t.Errorf("reused Get(99) has len %d", len(b))
	}
}

// TestPoolOversizedBypass checks the two class functions get and put branch
// on: a size beyond the largest class maps to no class, so get allocates it
// directly and put drops it. (Materialising such a buffer costs 2 GiB.)
func TestPoolOversizedBypass(t *testing.T) {
	if c := sizeClass(1<<poolMaxBits + 1); c != -1 {
		t.Errorf("sizeClass(%d) = %d, want -1 (bypass the pool)", 1<<poolMaxBits+1, c)
	}
	huge := 1 << poolMaxBits << 1
	if c := sizeClass(huge); c != -1 {
		t.Errorf("sizeClass(%d) = %d, want -1 (bypass the pool)", huge, c)
	}
	if c := homeClass(huge); c != -1 {
		t.Errorf("homeClass(%d) = %d, want -1 (never retained)", huge, c)
	}
}

// TestPoolRetainedCap checks the arena's retention bound: a put that would
// take the free lists past poolMaxRetained bytes drops the buffer, and one
// that fits is kept. The accounting starts just below the cap, so the test
// needs no half-gigabyte of real buffers.
func TestPoolRetainedCap(t *testing.T) {
	var p slicePool[float64]
	small, big := p.get(100), p.get(1000) // capacities 100 and 1008
	p.retained.Store(poolMaxRetained - 8*200)
	p.put(big)
	if got := p.retained.Load(); got != poolMaxRetained-8*200 {
		t.Errorf("put past the cap: retained %d bytes, want %d", got, poolMaxRetained-8*200)
	}
	if b := p.get(1000); &b[0] == &big[0] {
		t.Error("a buffer put past the cap was retained")
	}
	p.put(small)
	if got := p.retained.Load(); got != poolMaxRetained-8*200+8*100 {
		t.Errorf("put under the cap: retained %d bytes, want %d", got, poolMaxRetained-8*200+8*100)
	}
	if b := p.get(100); &b[0] != &small[0] {
		t.Error("a buffer put under the cap was not retained")
	}
	if got := p.retained.Load(); got != poolMaxRetained-8*200 {
		t.Errorf("get: retained %d bytes, want %d", got, poolMaxRetained-8*200)
	}
}

func TestPoolSteadyStateZeroAlloc(t *testing.T) {
	var p slicePool[byte]
	p.put(p.get(3000)) // warm up the class
	if n := testing.AllocsPerRun(50, func() { p.put(p.get(3000)) }); n != 0 {
		t.Errorf("steady-state Get/Put: %v allocs per run, want 0", n)
	}
	var fp slicePool[float64]
	fp.put(fp.get(500))
	if n := testing.AllocsPerRun(50, func() { fp.put(fp.get(500)) }); n != 0 {
		t.Errorf("steady-state float Get/Put: %v allocs per run, want 0", n)
	}
}

func TestStoreSlots(t *testing.T) {
	s := NewStoreWithSlots(2, 3)
	if got := s.GetSlot(0); got != nil {
		t.Errorf("empty slot = %v", got)
	}
	s.PutSlot(0, "x")
	if got := s.GetSlot(0).(string); got != "x" {
		t.Errorf("GetSlot = %q", got)
	}

	buf := []byte{1, 2, 3}
	s.PutBufSlot(1, buf)
	if s.LiveBufSlots() != 1 {
		t.Errorf("LiveBufSlots = %d, want 1", s.LiveBufSlots())
	}
	if got := s.TakeBufSlot(1); &got[0] != &buf[0] {
		t.Error("TakeBufSlot returned a different buffer")
	}
	if s.LiveBufSlots() != 0 {
		t.Errorf("LiveBufSlots after take = %d, want 0", s.LiveBufSlots())
	}
}

// TestSlotRoundTripZeroAlloc pins the full slot-based message hop — pooled
// buffer in, slot deposit, slot take, pool return — at zero allocations.
func TestSlotRoundTripZeroAlloc(t *testing.T) {
	s := NewStoreWithSlots(0, 1)
	PutBuf(GetBuf(1024)) // warm the shared arena
	f := func() {
		b := GetBuf(1024)
		s.PutBufSlot(0, b)
		PutBuf(s.TakeBufSlot(0))
	}
	if n := testing.AllocsPerRun(50, f); n != 0 {
		t.Errorf("slot round trip: %v allocs per run, want 0", n)
	}
}

// TestPoolBundleClasses pins the arena extension that backs coalesced halo
// bundles: wire buffers aggregating a whole epoch's payloads toward one
// neighbor land well above the old 128 MiB ceiling, and must be pooled —
// not silently bypassed — or every bundle send would reallocate. The
// regression is steady-state Get/Put of a bundle-sized buffer at zero
// allocations.
func TestPoolBundleClasses(t *testing.T) {
	bundleSized := 200 << 20 // 200 MiB: above the pre-coalescing top class
	if c := sizeClass(bundleSized); c < 0 {
		t.Fatalf("sizeClass(%d) = %d: bundle-sized buffers bypass the pool", bundleSized, c)
	}
	var p slicePool[byte]
	p.put(p.get(bundleSized)) // warm the class
	if n := testing.AllocsPerRun(10, func() { p.put(p.get(bundleSized)) }); n != 0 {
		t.Errorf("bundle-sized Get/Put: %v allocs per run, want 0", n)
	}
}
