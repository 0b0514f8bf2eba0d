package stencil

import (
	"math"
	"testing"

	"castencil/internal/grid"
)

func TestApply9SinglePoint(t *testing.T) {
	src := grid.NewTile(1, 1, 1)
	dst := grid.NewTile(1, 1, 1)
	vals := map[[2]int]float64{
		{0, 0}: 1, {-1, 0}: 2, {1, 0}: 3, {0, -1}: 4, {0, 1}: 5,
		{-1, -1}: 6, {-1, 1}: 7, {1, -1}: 8, {1, 1}: 9,
	}
	for k, v := range vals {
		src.Set(k[0], k[1], v)
	}
	w := Weights9{C: 1, N: 10, S: 100, W: 1e3, E: 1e4, NW: 1e5, NE: 1e6, SW: 1e7, SE: 1e8}
	Apply9(w, dst, src, Interior(src))
	want := 1 + 10*2 + 100*3 + 1e3*4 + 1e4*5 + 1e5*6 + 1e6*7 + 1e7*8 + 1e8*9
	if got := dst.At(0, 0); got != want {
		t.Errorf("9-point update = %v, want %v", got, want)
	}
}

func TestJacobi9PreservesConstant(t *testing.T) {
	w := Jacobi9()
	src := grid.NewTile(4, 4, 1)
	dst := grid.NewTile(4, 4, 1)
	for r := -1; r <= 4; r++ {
		for c := -1; c <= 4; c++ {
			src.Set(r, c, 2.5)
		}
	}
	Apply9(w, dst, src, Interior(src))
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if math.Abs(dst.At(r, c)-2.5) > 1e-15 {
				t.Fatalf("(%d,%d) = %v, want 2.5", r, c, dst.At(r, c))
			}
		}
	}
}
