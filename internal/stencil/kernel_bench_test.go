package stencil

import (
	"math/rand"
	"testing"

	"castencil/internal/grid"
)

// The kernel microbenchmarks compare the scalar oracle against the row
// kernels on square tiles that fit in L2 (128 wide) or L1 (16 wide), so they
// measure instruction throughput and per-row overhead rather than memory
// bandwidth. points/sec = n*n / (ns/op * 1e-9).
func benchKernel(b *testing.B, n int, kern func(dst, src *grid.Tile, rc grid.Rect)) {
	rng := rand.New(rand.NewSource(1))
	src := randTile(rng, n, n, 1)
	dst := grid.NewTile(n, n, 1)
	rc := grid.Rect{R0: 0, C0: 0, H: n, W: n}
	b.SetBytes(int64(n * n * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern(dst, src, rc)
	}
	b.ReportMetric(float64(n*n)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

func BenchmarkKernel(b *testing.B) {
	five := func(w Weights, kern func(Weights, *grid.Tile, *grid.Tile, grid.Rect)) func(dst, src *grid.Tile, rc grid.Rect) {
		return func(dst, src *grid.Tile, rc grid.Rect) { kern(w, dst, src, rc) }
	}
	nine := func(w Weights9, kern func(Weights9, *grid.Tile, *grid.Tile, grid.Rect)) func(dst, src *grid.Tile, rc grid.Rect) {
		return func(dst, src *grid.Tile, rc grid.Rect) { kern(w, dst, src, rc) }
	}
	generic := Heat(0.2) // C != 0: takes the generic row kernel
	cases := []struct {
		name string
		n    int
		kern func(dst, src *grid.Tile, rc grid.Rect)
	}{
		{"scalar/generic", 128, five(generic, applyScalar)},
		{"scalar/jacobi-weights", 128, five(Jacobi(), applyScalar)},
		{"dispatch/generic", 128, five(generic, Apply)},
		{"dispatch/jacobi-weights", 128, five(Jacobi(), Apply)},
		{"dispatch/jacobi-weights/16-wide", 16, five(Jacobi(), Apply)},
		{"scalar/nine-point", 128, nine(Jacobi9(), apply9Scalar)},
		{"nine-point", 128, nine(Jacobi9(), Apply9)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) { benchKernel(b, c.n, c.kern) })
	}
}
