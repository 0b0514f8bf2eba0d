package castencil_test

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	castencil "castencil"
)

// hashTile is an n x n grid holding HashInit(seed).
func hashTile(n int, seed uint64) *castencil.Tile {
	g := castencil.NewGridTile(n, n, 1)
	init := castencil.HashInit(seed)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			g.Set(r, c, init(r, c))
		}
	}
	return g
}

// TestGridSHA256Pinned: the row-by-row encoder hashes the same bytes the
// grid's canonical form always had, and GridBytes is that form.
func TestGridSHA256Pinned(t *testing.T) {
	const want = "7a25881f70ab7e8028eb42e5351cb310dafef3fe5617335df72a136e0a7eab9b"
	g := hashTile(512, 7)
	if got := castencil.GridSHA256(g); got != want {
		t.Fatalf("GridSHA256 = %s, want %s", got, want)
	}
	raw := castencil.GridBytes(g)
	if len(raw) != 512*512*8 {
		t.Fatalf("GridBytes: %d bytes, want %d", len(raw), 512*512*8)
	}
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != want {
		t.Fatal("sha256(GridBytes) differs from GridSHA256")
	}
}

// TestGridSHA256Allocs: fingerprinting a grid costs one row buffer and the
// hash state, never a copy of the grid.
func TestGridSHA256Allocs(t *testing.T) {
	g := hashTile(512, 7)
	if n := testing.AllocsPerRun(20, func() { castencil.GridSHA256(g) }); n > 4 {
		t.Errorf("GridSHA256: %v allocs per call, want <= 4", n)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		castencil.GridSHA256(g)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 16<<10 {
		t.Errorf("GridSHA256: %d bytes allocated per call, want < 16 KiB", per)
	}
}
