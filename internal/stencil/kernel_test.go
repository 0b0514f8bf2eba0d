package stencil

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"castencil/internal/grid"
)

func TestApplySinglePoint(t *testing.T) {
	src := grid.NewTile(1, 1, 1)
	dst := grid.NewTile(1, 1, 1)
	src.Set(0, 0, 2)  // center
	src.Set(-1, 0, 3) // north
	src.Set(1, 0, 5)  // south
	src.Set(0, -1, 7) // west
	src.Set(0, 1, 11) // east
	w := Weights{C: 1, N: 10, S: 100, W: 1000, E: 10000}
	Step(w, dst, src)
	want := 2.0 + 10*3 + 100*5 + 1000*7 + 10000*11
	if got := dst.At(0, 0); got != want {
		t.Errorf("update = %v, want %v", got, want)
	}
}

func TestJacobiWeightsAverage(t *testing.T) {
	w := Jacobi()
	if sum := w.C + w.N + w.S + w.W + w.E; sum != 1 {
		t.Errorf("Jacobi weights sum to %v, want 1", sum)
	}
	src := grid.NewTile(3, 3, 1)
	dst := grid.NewTile(3, 3, 1)
	fillGhost(src, 0)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			src.Set(r, c, 4)
		}
	}
	Step(w, dst, src)
	if got := dst.At(1, 1); got != 4 {
		t.Errorf("interior average of constant grid = %v, want 4", got)
	}
	if got := dst.At(0, 0); got != 2 { // two zero boundary neighbors
		t.Errorf("corner = %v, want 2", got)
	}
}

func TestHeatWeightsStable(t *testing.T) {
	// For alpha <= 0.25 every weight is non-negative and they sum to 1, so
	// a step is a convex combination: max-norm non-expansive.
	for _, alpha := range []float64{0.1, 0.25} {
		w := Heat(alpha)
		for _, v := range []float64{w.C, w.N, w.S, w.W, w.E} {
			if v < 0 {
				t.Errorf("Heat(%v) has negative weight %v", alpha, v)
			}
		}
		if sum := w.C + w.N + w.S + w.W + w.E; math.Abs(sum-1) > 1e-15 {
			t.Errorf("Heat(%v) weights sum to %v, want 1", alpha, sum)
		}
	}
}

func TestApplyLinearity(t *testing.T) {
	// Property: the update is linear — Apply(a+b) == Apply(a) + Apply(b),
	// pointwise, up to float addition being exact here (we use values that
	// are exactly representable sums? no — compare with tolerance).
	rng := rand.New(rand.NewSource(3))
	w := Weights{C: 0.5, N: -0.25, S: 0.125, W: 0.3, E: -0.7}
	mk := func() *grid.Tile {
		tl := grid.NewTile(6, 7, 1)
		for r := -1; r <= 6; r++ {
			for c := -1; c <= 7; c++ {
				tl.Set(r, c, rng.NormFloat64())
			}
		}
		return tl
	}
	a, b := mk(), mk()
	sum := grid.NewTile(6, 7, 1)
	for r := -1; r <= 6; r++ {
		for c := -1; c <= 7; c++ {
			sum.Set(r, c, a.At(r, c)+b.At(r, c))
		}
	}
	da, db, ds := grid.NewTile(6, 7, 1), grid.NewTile(6, 7, 1), grid.NewTile(6, 7, 1)
	Step(w, da, a)
	Step(w, db, b)
	Step(w, ds, sum)
	for r := 0; r < 6; r++ {
		for c := 0; c < 7; c++ {
			got := ds.At(r, c)
			want := da.At(r, c) + db.At(r, c)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("linearity violated at (%d,%d): %v vs %v", r, c, got, want)
			}
		}
	}
}

func TestApplySubRect(t *testing.T) {
	// Applying to a sub-rectangle must leave everything else in dst alone.
	src := grid.NewTile(5, 5, 2)
	dst := grid.NewTile(5, 5, 2)
	for r := -2; r < 7; r++ {
		for c := -2; c < 7; c++ {
			src.Set(r, c, 1)
			dst.Set(r, c, -9)
		}
	}
	rc := grid.Rect{R0: 1, C0: 2, H: 2, W: 2}
	Apply(Jacobi(), dst, src, rc)
	for r := -2; r < 7; r++ {
		for c := -2; c < 7; c++ {
			inside := r >= 1 && r < 3 && c >= 2 && c < 4
			if inside && dst.At(r, c) != 1 {
				t.Fatalf("(%d,%d) = %v, want 1", r, c, dst.At(r, c))
			}
			if !inside && dst.At(r, c) != -9 {
				t.Fatalf("(%d,%d) = %v, want untouched -9", r, c, dst.At(r, c))
			}
		}
	}
}

func TestApplyGhostRect(t *testing.T) {
	// The CA trapezoid updates ghost cells; Apply must accept rects that
	// lie (partly) in the ghost region.
	src := grid.NewTile(4, 4, 3)
	dst := grid.NewTile(4, 4, 3)
	for r := -3; r < 7; r++ {
		for c := -3; c < 7; c++ {
			src.Set(r, c, float64(r+c))
		}
	}
	rc := grid.Rect{R0: -2, C0: -2, H: 8, W: 8}
	Apply(Jacobi(), dst, src, rc)
	// Interior of an affine field is preserved by averaging.
	if got := dst.At(-2, -2); math.Abs(got-(-4)) > 1e-15 {
		t.Errorf("ghost update = %v, want -4", got)
	}
}

func TestHashInitDeterministicAndSpread(t *testing.T) {
	f := HashInit(42)
	g := HashInit(42)
	h := HashInit(43)
	same, diff := 0, 0
	for i := 0; i < 100; i++ {
		a, b, c := f(i, 2*i+1), g(i, 2*i+1), h(i, 2*i+1)
		if a != b {
			t.Fatal("HashInit not deterministic")
		}
		if a < 0 || a >= 1 {
			t.Fatalf("HashInit out of [0,1): %v", a)
		}
		if a == c {
			same++
		} else {
			diff++
		}
	}
	if diff < 95 {
		t.Errorf("different seeds should give different values (%d/%d same)", same, same+diff)
	}
}

func TestReferenceConstantFixedPoint(t *testing.T) {
	// With Jacobi weights and boundary == interior == k, the grid is a
	// fixed point.
	ref := NewReference(8, Jacobi(), func(int, int) float64 { return 3 }, ConstBoundary(3))
	ref.Run(10)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			if ref.At(r, c) != 3 {
				t.Fatalf("(%d,%d) = %v, want 3", r, c, ref.At(r, c))
			}
		}
	}
}

func TestReferenceConvergesToBoundary(t *testing.T) {
	// Laplace with boundary 1 and zero init converges to 1 everywhere.
	ref := NewReference(6, Jacobi(), func(int, int) float64 { return 0 }, ConstBoundary(1))
	ref.Run(500)
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			if math.Abs(ref.At(r, c)-1) > 1e-6 {
				t.Fatalf("(%d,%d) = %v, want ~1", r, c, ref.At(r, c))
			}
		}
	}
}

func TestReferenceMaxNormContraction(t *testing.T) {
	// Property: with |w|_1 <= 1 and zero boundary, the max norm never grows.
	f := func(seed uint16, n8 uint8) bool {
		n := int(n8)%10 + 2
		ref := NewReference(n, Jacobi(), HashInit(uint64(seed)), ConstBoundary(0))
		norm := func() float64 {
			m := 0.0
			for r := 0; r < n; r++ {
				for c := 0; c < n; c++ {
					if a := math.Abs(ref.At(r, c)); a > m {
						m = a
					}
				}
			}
			return m
		}
		before := norm()
		ref.Step()
		return norm() <= before+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReferenceMaxAbsDiff(t *testing.T) {
	ref := NewReference(4, Jacobi(), HashInit(1), ConstBoundary(0))
	if d := ref.MaxAbsDiff(func(r, c int) float64 { return ref.At(r, c) }); d != 0 {
		t.Errorf("self-diff = %v", d)
	}
	if d := ref.MaxAbsDiff(func(r, c int) float64 { return ref.At(r, c) + 0.5 }); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("shifted diff = %v, want 0.5", d)
	}
}

func TestFillBoundaryOnlyOutsideDomain(t *testing.T) {
	// A tile in the middle of the domain gets no boundary values at all; a
	// corner tile gets them only on its outside faces.
	mid := grid.NewTile(4, 4, 2)
	fillGhost(mid, 5)
	FillBoundary(mid, 10, 10, 100, ConstBoundary(-1))
	if mid.At(-1, 0) != 5 || mid.At(4, 4) != 5 {
		t.Error("interior tile ghosts must be untouched by FillBoundary")
	}
	corner := grid.NewTile(4, 4, 2)
	fillGhost(corner, 5)
	FillBoundary(corner, 0, 0, 100, ConstBoundary(-1))
	if corner.At(-1, 2) != -1 || corner.At(2, -2) != -1 {
		t.Error("out-of-domain ghosts must hold boundary values")
	}
	if corner.At(4, 2) != 5 || corner.At(2, 4) != 5 {
		t.Error("in-domain ghosts must be untouched")
	}
}

func TestNewReferencePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewReference(0) should panic")
		}
	}()
	NewReference(0, Jacobi(), HashInit(0), ConstBoundary(0))
}
