package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTileSetAtIncludingGhosts(t *testing.T) {
	tl := NewTile(4, 5, 2)
	val := 0.0
	for r := -2; r < 6; r++ {
		for c := -2; c < 7; c++ {
			val++
			tl.Set(r, c, val)
		}
	}
	val = 0.0
	for r := -2; r < 6; r++ {
		for c := -2; c < 7; c++ {
			val++
			if got := tl.At(r, c); got != val {
				t.Fatalf("At(%d,%d) = %v, want %v", r, c, got, val)
			}
		}
	}
}

func TestNewTilePanicsOnInvalid(t *testing.T) {
	for _, dims := range [][3]int{{0, 3, 1}, {3, 0, 1}, {3, 3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTile(%v) should panic", dims)
				}
			}()
			NewTile(dims[0], dims[1], dims[2])
		}()
	}
}

func TestPackUnpackRoundtrip(t *testing.T) {
	// Property: for any tile shape and in-bounds rect, Unpack(Pack(x)) is
	// the identity on that rect and leaves the rest untouched.
	rng := rand.New(rand.NewSource(7))
	f := func(rows, cols, halo, r0, c0, h, w uint8) bool {
		R, C, H := int(rows)%8+1, int(cols)%8+1, int(halo)%4
		tl := NewTile(R, C, H)
		for i := range tl.data {
			tl.data[i] = rng.Float64()
		}
		rc := Rect{
			R0: -H + int(r0)%(R+2*H),
			C0: -H + int(c0)%(C+2*H),
			H:  int(h), W: int(w),
		}
		if rc.R0+rc.H > R+H {
			rc.H = R + H - rc.R0
		}
		if rc.C0+rc.W > C+H {
			rc.W = C + H - rc.C0
		}
		before := tl.Clone()
		buf := tl.Pack(rc, nil)
		// Scramble the rect, then restore it via Unpack.
		for r := 0; r < rc.H; r++ {
			for c := 0; c < rc.W; c++ {
				tl.Set(rc.R0+r, rc.C0+c, -1)
			}
		}
		tl.Unpack(rc, buf)
		for r := -H; r < R+H; r++ {
			for c := -H; c < C+H; c++ {
				if tl.At(r, c) != before.At(r, c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPackPanicsOutOfBounds(t *testing.T) {
	tl := NewTile(3, 3, 1)
	defer func() {
		if recover() == nil {
			t.Error("Pack outside the tile should panic")
		}
	}()
	tl.Pack(Rect{R0: -2, C0: 0, H: 1, W: 1}, nil)
}

func TestUnpackPanicsOnSizeMismatch(t *testing.T) {
	tl := NewTile(3, 3, 1)
	defer func() {
		if recover() == nil {
			t.Error("Unpack with wrong payload size should panic")
		}
	}()
	tl.Unpack(Rect{R0: 0, C0: 0, H: 2, W: 2}, []float64{1})
}

func TestEdgeHaloGeometry(t *testing.T) {
	tl := NewTile(6, 4, 3)
	for _, d := range CardinalDirs {
		for depth := 1; depth <= 3; depth++ {
			e := tl.EdgeRect(d, depth)
			h := tl.HaloRect(d, depth)
			if e.Size() != h.Size() {
				t.Errorf("%v depth %d: edge %v and halo %v sizes differ", d, depth, e, h)
			}
			if !tl.contains(e) || !tl.contains(h) {
				t.Errorf("%v depth %d: rects out of bounds", d, depth)
			}
		}
	}
	for _, d := range DiagonalDirs {
		c := tl.CornerRect(d, 2)
		hc := tl.HaloCornerRect(d, 2)
		if c.Size() != 4 || hc.Size() != 4 {
			t.Errorf("%v: corner rects must be 2x2", d)
		}
		if !tl.contains(c) || !tl.contains(hc) {
			t.Errorf("%v: corner rects out of bounds", d)
		}
	}
}

func TestHaloExchangePairing(t *testing.T) {
	// Simulate an exchange between two neighboring tiles: what A sends
	// toward East must land exactly in B's West halo, for all directions.
	depth := 2
	a := NewTile(5, 5, depth)
	b := NewTile(5, 5, depth)
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			a.Set(r, c, float64(100+r*10+c))
		}
	}
	for _, d := range AllDirs {
		send := a.SendRect(d, depth)
		recv := b.RecvRect(d.Opposite(), depth)
		if send.Size() != recv.Size() {
			t.Fatalf("%v: send %v and recv %v sizes differ", d, send, recv)
		}
		b.Unpack(recv, a.Pack(send, nil))
	}
	// Spot-check: A's East edge (col 3,4) landed in B's West halo (-2,-1).
	for r := 0; r < 5; r++ {
		if b.At(r, -1) != a.At(r, 4) || b.At(r, -2) != a.At(r, 3) {
			t.Fatalf("row %d: west halo %v,%v want %v,%v",
				r, b.At(r, -2), b.At(r, -1), a.At(r, 3), a.At(r, 4))
		}
	}
	// A's SE corner landed in B's NW halo corner.
	if b.At(-1, -1) != a.At(4, 4) || b.At(-2, -2) != a.At(3, 3) {
		t.Fatal("corner exchange misplaced")
	}
}

func TestOppositeIsInvolution(t *testing.T) {
	for _, d := range AllDirs {
		if d.Opposite().Opposite() != d {
			t.Errorf("%v: Opposite is not an involution", d)
		}
		dr1, dc1 := d.Delta()
		dr2, dc2 := d.Opposite().Delta()
		if dr1+dr2 != 0 || dc1+dc2 != 0 {
			t.Errorf("%v: deltas do not cancel", d)
		}
	}
}

func TestSendRecvRectDualityProperty(t *testing.T) {
	// Property: for any tile shape, depth, and direction, the sender's
	// SendRect and the receiver's RecvRect (opposite direction) have
	// identical extents — the invariant every halo exchange relies on.
	f := func(rows8, cols8, depth8, dir8 uint8) bool {
		rows := int(rows8)%12 + 1
		cols := int(cols8)%12 + 1
		maxDepth := rows
		if cols < maxDepth {
			maxDepth = cols
		}
		depth := int(depth8)%maxDepth + 1
		d := AllDirs[int(dir8)%len(AllDirs)]
		a := NewTile(rows, cols, depth)
		b := NewTile(rows, cols, depth)
		send := a.SendRect(d, depth)
		recv := b.RecvRect(d.Opposite(), depth)
		return send.H == recv.H && send.W == recv.W && send.Size() == recv.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
