package runtime

import "testing"

func TestSizeClasses(t *testing.T) {
	cases := []struct{ n, class int }{
		{1, 0}, {63, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << poolMinBits << poolMaxClass, poolMaxClass},
		{(1 << poolMinBits << poolMaxClass) + 1, -1},
	}
	for _, c := range cases {
		if got := sizeClass(c.n); got != c.class {
			t.Errorf("sizeClass(%d) = %d, want %d", c.n, got, c.class)
		}
	}
	if got := homeClass(63); got != -1 {
		t.Errorf("homeClass(63) = %d, want -1 (below smallest class)", got)
	}
	if got := homeClass(64); got != 0 {
		t.Errorf("homeClass(64) = %d, want 0", got)
	}
	if got := homeClass(127); got != 0 {
		t.Errorf("homeClass(127) = %d, want 0 (round down)", got)
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
	b := p.get(80) // same class (65..128): must reuse a's backing array
	if &a[0] != &b[0] {
		t.Error("pool did not reuse the recycled buffer for a same-class Get")
	}
	if len(b) != 80 {
		t.Errorf("reused Get(80) has len %d", len(b))
	}
}

// TestPoolOversizedBypass checks the two class functions get and put branch
// on: a size beyond the largest class maps to no class, so get allocates it
// directly and put drops it. (Materialising such a buffer costs 2 GiB.)
func TestPoolOversizedBypass(t *testing.T) {
	huge := 1 << poolMinBits << poolMaxClass << 1
	if c := sizeClass(huge); c != -1 {
		t.Errorf("sizeClass(%d) = %d, want -1 (bypass the pool)", huge, c)
	}
	if c := homeClass(huge); c != -1 {
		t.Errorf("homeClass(%d) = %d, want -1 (never retained)", huge, c)
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
