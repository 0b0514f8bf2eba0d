package stencil

import (
	"math"
	"math/rand"
	"testing"

	"castencil/internal/grid"
)

// randTile fills an interior-plus-ghost tile with signed values so the
// bitwise comparisons exercise negative operands and uneven magnitudes.
func randTile(rng *rand.Rand, rows, cols, halo int) *grid.Tile {
	t := grid.NewTile(rows, cols, halo)
	for r := -halo; r < rows+halo; r++ {
		row := t.Row(r, -halo, cols+2*halo)
		for c := range row {
			row[c] = (rng.Float64() - 0.5) * 16
		}
	}
	return t
}

// fillGhost sets every ghost cell (all cells outside the interior) to v.
func fillGhost(t *grid.Tile, v float64) {
	for r := -t.Halo; r < t.Rows+t.Halo; r++ {
		for c := -t.Halo; c < t.Cols+t.Halo; c++ {
			if r < 0 || r >= t.Rows || c < 0 || c >= t.Cols {
				t.Set(r, c, v)
			}
		}
	}
}

// sameBits reports the first cell, ghosts included, where two tiles of one
// shape differ bit for bit.
func sameBits(a, b *grid.Tile) (r, c int, ok bool) {
	h := a.Halo
	for r := -h; r < a.Rows+h; r++ {
		ar, br := a.Row(r, -h, a.Cols+2*h), b.Row(r, -h, b.Cols+2*h)
		for c := range ar {
			if math.Float64bits(ar[c]) != math.Float64bits(br[c]) {
				return r, c - h, false
			}
		}
	}
	return 0, 0, true
}

// applyScalar is the plain generic five-point kernel, indexed point by
// point: the oracle every row kernel must match bitwise, and the "before"
// baseline of the kernel microbenchmarks.
func applyScalar(w Weights, dst, src *grid.Tile, rc grid.Rect) {
	for r := rc.R0; r < rc.R0+rc.H; r++ {
		for c := rc.C0; c < rc.C0+rc.W; c++ {
			dst.Set(r, c, w.C*src.At(r, c)+w.W*src.At(r, c-1)+w.E*src.At(r, c+1)+
				w.N*src.At(r-1, c)+w.S*src.At(r+1, c))
		}
	}
}

// apply9Scalar is applyScalar for the nine-point stencil.
func apply9Scalar(w Weights9, dst, src *grid.Tile, rc grid.Rect) {
	for r := rc.R0; r < rc.R0+rc.H; r++ {
		for c := rc.C0; c < rc.C0+rc.W; c++ {
			dst.Set(r, c, w.C*src.At(r, c)+w.W*src.At(r, c-1)+w.E*src.At(r, c+1)+
				w.N*src.At(r-1, c)+w.S*src.At(r+1, c)+
				w.NW*src.At(r-1, c-1)+w.NE*src.At(r-1, c+1)+
				w.SW*src.At(r+1, c-1)+w.SE*src.At(r+1, c+1))
		}
	}
}

// The weight sets of the bitwise tests, in a fixed order so a seeded run
// draws the same tiles for the same weights every time.
var (
	fiveWeights = []struct {
		name string
		w    Weights
	}{
		{"jacobi", Jacobi()},
		{"heat", Heat(0.2)},
		{"generic", Weights{C: -0.3, N: 0.7, S: -0.11, W: 1.9, E: 0.05}},
		{"centerless-asym", Weights{C: 0, N: 0.6, S: -0.25, W: 0.125, E: -1.5}},
	}
	nineWeights = []struct {
		name string
		w    Weights9
	}{
		{"jacobi9", Jacobi9()},
		{"generic9", Weights9{C: 0.3, N: -0.7, S: 0.11, W: 1.9, E: -0.05, NW: 0.6, NE: -0.25, SW: 0.125, SE: 1.5}},
	}
)

// TestFastPathsBitwiseIdentical checks Apply against the scalar oracle on
// random tiles: identical bits, not just identical up to rounding. Sizes
// cover the fused sweep tail (odd height).
func TestFastPathsBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range [][2]int{{1, 1}, {2, 5}, {3, 4}, {5, 3}, {7, 7}, {8, 16}, {13, 9}} {
		rows, cols := dim[0], dim[1]
		for _, ws := range fiveWeights {
			wname, w := ws.name, ws.w
			src := randTile(rng, rows, cols, 1)
			rc := grid.Rect{R0: 0, C0: 0, H: rows, W: cols}
			want, got := grid.NewTile(rows, cols, 1), grid.NewTile(rows, cols, 1)
			applyScalar(w, want, src, rc)
			Apply(w, got, src, rc)
			if r, c, ok := sameBits(got, want); !ok {
				t.Errorf("%dx%d %s: (%d,%d) not bitwise equal to scalar kernel", rows, cols, wname, r, c)
			}
		}
	}
}

// TestFastPathsOnTrapezoidRect exercises the CA-style rect that extends into
// the ghost region (deep halo), where row slices start at negative indices.
func TestFastPathsOnTrapezoidRect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const rows, cols, halo = 6, 10, 3
	rc := grid.Rect{R0: -2, C0: -2, H: rows + 4, W: cols + 4}
	for _, w := range []Weights{Jacobi(), {C: 0.4, N: 0.15, S: 0.15, W: 0.15, E: 0.15}} {
		src := randTile(rng, rows, cols, halo)
		want := grid.NewTile(rows, cols, halo)
		applyScalar(w, want, src, rc)
		got := grid.NewTile(rows, cols, halo)
		Apply(w, got, src, rc)
		for r := rc.R0; r < rc.R0+rc.H; r++ {
			wr := want.Row(r, rc.C0, rc.W)
			gr := got.Row(r, rc.C0, rc.W)
			for c := range wr {
				if wr[c] != gr[c] {
					t.Fatalf("weights %+v: row %d col %d: %v != %v", w, r, rc.C0+c, gr[c], wr[c])
				}
			}
		}
	}
}

// TestRowKernelsMatchScalarOracle is the property test of the row kernels:
// for every row width 0..67 (each remainder of any unroll the compiler might
// pick, and the empty row), Apply and Apply9 on a random rect anywhere in a
// deep-halo tile, ghost coordinates included, and on the CA trapezoid rects
// of a random neighbor set, plus Wavefront and Wavefront9 over those
// trapezoids, must write exactly what the scalar oracle writes, bit for bit,
// and nothing outside the rect.
func TestRowKernelsMatchScalarOracle(t *testing.T) {
	const halo = 3
	rng := rand.New(rand.NewSource(44))
	for width := 0; width <= 67; width++ {
		rows := 1 + rng.Intn(6)
		cols := max(width, 1) + rng.Intn(3)
		h := rng.Intn(rows + 2*halo - 1)
		rect := grid.Rect{
			R0: 1 - halo + rng.Intn(rows+2*halo-1-h),
			C0: 1 - halo + rng.Intn(cols+2*halo-1-width),
			H:  h,
			W:  width,
		}
		hasNeighbor := func(grid.Dir) bool { return rng.Intn(2) == 0 }
		var trapezoid []grid.Rect
		if width > 0 {
			trapezoid = WavefrontRegions(rows, width, halo, hasNeighbor)
		}
		check := func(what string, got, want *grid.Tile) {
			t.Helper()
			if r, c, ok := sameBits(got, want); !ok {
				t.Errorf("width %d, %s: (%d,%d) = %v, scalar oracle %v", width, what, r, c, got.At(r, c), want.At(r, c))
			}
		}

		for _, ws := range fiveWeights {
			name, w := ws.name, ws.w
			src := randTile(rng, rows, cols, halo)
			want, got := grid.NewTile(rows, cols, halo), grid.NewTile(rows, cols, halo)
			applyScalar(w, want, src, rect)
			Apply(w, got, src, rect)
			check("Apply "+name+" "+rect.String(), got, want)
			if width == 0 {
				continue
			}
			src = randTile(rng, rows, width, halo)
			for _, rc := range trapezoid {
				want, got := grid.NewTile(rows, width, halo), grid.NewTile(rows, width, halo)
				applyScalar(w, want, src, rc)
				Apply(w, got, src, rc)
				check("Apply "+name+" "+rc.String(), got, want)
			}
			cur, next := randTile(rng, rows, width, halo), randTile(rng, rows, width, halo)
			wantCur, wantNext := cur.Clone(), next.Clone()
			bufs := [2]*grid.Tile{wantCur, wantNext}
			for k, rc := range trapezoid {
				applyScalar(w, bufs[(k+1)%2], bufs[k%2], rc)
			}
			Wavefront(w, cur, next, trapezoid)
			check("Wavefront "+name+" cur", cur, wantCur)
			check("Wavefront "+name+" next", next, wantNext)
		}

		for _, ws := range nineWeights {
			name, w := ws.name, ws.w
			src := randTile(rng, rows, cols, halo)
			want, got := grid.NewTile(rows, cols, halo), grid.NewTile(rows, cols, halo)
			apply9Scalar(w, want, src, rect)
			Apply9(w, got, src, rect)
			check("Apply9 "+name+" "+rect.String(), got, want)
			if width == 0 {
				continue
			}
			src = randTile(rng, rows, width, halo)
			for _, rc := range trapezoid {
				want, got := grid.NewTile(rows, width, halo), grid.NewTile(rows, width, halo)
				apply9Scalar(w, want, src, rc)
				Apply9(w, got, src, rc)
				check("Apply9 "+name+" "+rc.String(), got, want)
			}
			cur, next := randTile(rng, rows, width, halo), randTile(rng, rows, width, halo)
			wantCur, wantNext := cur.Clone(), next.Clone()
			bufs := [2]*grid.Tile{wantCur, wantNext}
			for k, rc := range trapezoid {
				apply9Scalar(w, bufs[(k+1)%2], bufs[k%2], rc)
			}
			Wavefront9(w, cur, next, trapezoid)
			check("Wavefront9 "+name+" cur", cur, wantCur)
			check("Wavefront9 "+name+" next", next, wantNext)
		}
	}
}

// TestFillBoundaryMatchesFullWalk checks the ghost-ring walk of
// fillBoundary against the obvious walk over every cell of the tile, for
// random tile shapes, halos and origins inside, across and outside the
// domain's edges.
func TestFillBoundaryMatchesFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := func(gr, gc int) float64 { return float64(1000*gr + gc) }
	for trial := 0; trial < 200; trial++ {
		rows, cols, halo := 1+rng.Intn(7), 1+rng.Intn(7), rng.Intn(4)
		n := 1 + rng.Intn(12)
		r0, c0 := rng.Intn(n+2)-1, rng.Intn(n+2)-1
		want := randTile(rng, rows, cols, halo)
		got := want.Clone()
		for r := -halo; r < rows+halo; r++ {
			for c := -halo; c < cols+halo; c++ {
				gr, gc := r0+r, c0+c
				ghost := r < 0 || r >= rows || c < 0 || c >= cols
				if ghost && (gr < 0 || gr >= n || gc < 0 || gc >= n) {
					want.Set(r, c, b(gr, gc))
				}
			}
		}
		FillBoundary(got, r0, c0, n, b)
		if r, c, ok := sameBits(got, want); !ok {
			t.Fatalf("%dx%d halo %d at (%d,%d) of n=%d: (%d,%d) = %v, want %v",
				rows, cols, halo, r0, c0, n, r, c, got.At(r, c), want.At(r, c))
		}
	}
}

// TestApplyZeroAlloc pins the kernel hot path at zero heap allocations.
func TestApplyZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := randTile(rng, 64, 64, 1)
	dst := grid.NewTile(64, 64, 1)
	rc := grid.Rect{R0: 0, C0: 0, H: 64, W: 64}
	for name, w := range map[string]Weights{"jacobi": Jacobi(), "generic": Heat(0.2)} {
		w := w
		if n := testing.AllocsPerRun(20, func() { Apply(w, dst, src, rc) }); n != 0 {
			t.Errorf("Apply(%s): %v allocs per run, want 0", name, n)
		}
	}
}
