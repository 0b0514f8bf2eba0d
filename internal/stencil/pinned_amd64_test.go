package stencil

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"castencil/internal/grid"
)

// interiorSHA256 hashes a tile's interior row by row as little-endian
// float64 bits.
func interiorSHA256(t *grid.Tile) string {
	h := sha256.New()
	buf := make([]byte, 8*t.Cols)
	for r := 0; r < t.Rows; r++ {
		for c, v := range t.Row(r, 0, t.Cols) {
			binary.LittleEndian.PutUint64(buf[8*c:], math.Float64bits(v))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReferenceSHA256Pinned pins the oracle's numerics, not just the
// engines' agreement with it: every "bitwise equal to the oracle" suite
// shares the kernel with the oracle, so a kernel that reordered or fused its
// terms would move both sides together and still pass. The hashes hold on
// amd64 only (arm64 fuses x*y+z into one rounding), hence the file suffix.
func TestReferenceSHA256Pinned(t *testing.T) {
	const n, steps = 97, 10
	init, b := HashInit(7), ConstBoundary(0)
	for _, c := range []struct {
		name string
		w    Weights
		want string
	}{
		{"jacobi", Jacobi(), "47690ec6fcd3ea896689102a1b0ac32845fb6ae296dd75c3497e49d34d2531b3"},
		{"heat", Heat(0.2), "924619f131b0356de07f285019403ba61ff8c4a138ed13e27b23c86a8b793a06"},
	} {
		ref := NewReference(n, c.w, init, b)
		ref.Run(steps)
		if got := interiorSHA256(ref.Grid()); got != c.want {
			t.Errorf("%s: sha256 after %d steps = %s, want %s", c.name, steps, got, c.want)
		}
	}
	ref9 := NewReference9(n, Jacobi9(), init, b)
	ref9.Run(steps)
	if got, want := interiorSHA256(ref9.cur), "4f7758322ebc8512c4bd4db74650abe60ccc3874ffd57a64f5db9fc9929bd0dc"; got != want {
		t.Errorf("jacobi9: sha256 after %d steps = %s, want %s", steps, got, want)
	}
}
