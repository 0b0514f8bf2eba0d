// Package stencil implements the five-point Jacobi kernels of the paper —
// the generic-weight update of equation (1), which costs 9 flops per point
// (5 multiplications + 4 additions) — plus a sequential whole-grid reference
// solver used as the correctness oracle, and two extensions (nine-point and
// variable-coefficient kernels).
package stencil

import (
	"fmt"
	"math"

	"castencil/internal/grid"
)

// Weights holds the five stencil coefficients of the paper's equation (1):
//
//	x'[i][j] = C*x[i][j] + N*x[i-1][j] + S*x[i+1][j] + W*x[i][j-1] + E*x[i][j+1]
//
// The general form is used deliberately so every implementation performs the
// same 9 flops per update.
type Weights struct {
	C, N, S, W, E float64
}

// Jacobi returns the classic Jacobi weights for Laplace's equation: the
// average of the four neighbors.
func Jacobi() Weights {
	return Weights{C: 0, N: 0.25, S: 0.25, W: 0.25, E: 0.25}
}

// Heat returns weights of an explicit heat-equation step u += alpha*lap(u)
// with unit grid spacing; stable for alpha <= 0.25.
func Heat(alpha float64) Weights {
	return Weights{C: 1 - 4*alpha, N: alpha, S: alpha, W: alpha, E: alpha}
}

// SpectralRadiusBound returns the sum of absolute weights; iteration is
// non-expansive (max-norm stable) when it is <= 1.
func (w Weights) SpectralRadiusBound() float64 {
	return math.Abs(w.C) + math.Abs(w.N) + math.Abs(w.S) + math.Abs(w.W) + math.Abs(w.E)
}

// Apply performs the five-point update for every point of rect, reading from
// src and writing to dst. The rect is expressed in the tiles' shared
// interior coordinate system and may extend into ghost cells (the CA
// trapezoid updates do); src must be addressable one point beyond the rect
// in each direction, and dst must contain the rect.
//
// Apply dispatches to specialized fast paths — a center-free Jacobi kernel
// when w.C == 0 (the classic Jacobi weights, 7 flops instead of 9), plus
// 4-way unrolled inner loops and a fused two-row sweep in both variants.
// Every fast path evaluates the exact expression of the generic kernel in
// the same order, so results are bitwise identical to applyScalar (the
// sequential oracle and all engines therefore stay bitwise comparable).
func Apply(w Weights, dst, src *grid.Tile, rc grid.Rect) {
	if w.C == 0 {
		applyJacobi(w, dst, src, rc)
		return
	}
	applyFused(w, dst, src, rc)
}

// applyScalar is the plain generic kernel — the reference implementation
// every specialized path must match bitwise, and the "before" baseline of
// the kernel microbenchmarks.
func applyScalar(w Weights, dst, src *grid.Tile, rc grid.Rect) {
	for r := 0; r < rc.H; r++ {
		row := rc.R0 + r
		d := dst.Row(row, rc.C0, rc.W)
		c0 := src.Row(row, rc.C0-1, rc.W+2) // west, center..., east
		n0 := src.Row(row-1, rc.C0, rc.W)
		s0 := src.Row(row+1, rc.C0, rc.W)
		for c := 0; c < rc.W; c++ {
			d[c] = w.C*c0[c+1] + w.W*c0[c] + w.E*c0[c+2] + w.N*n0[c] + w.S*s0[c]
		}
	}
}

// rowGeneric computes one row with the generic five-point expression,
// 4-way unrolled. c0 spans [C0-1, C0+W+1); d, n0, s0 span [C0, C0+W).
func rowGeneric(w Weights, d, c0, n0, s0 []float64) {
	c := 0
	for ; c+4 <= len(d); c += 4 {
		d[c] = w.C*c0[c+1] + w.W*c0[c] + w.E*c0[c+2] + w.N*n0[c] + w.S*s0[c]
		d[c+1] = w.C*c0[c+2] + w.W*c0[c+1] + w.E*c0[c+3] + w.N*n0[c+1] + w.S*s0[c+1]
		d[c+2] = w.C*c0[c+3] + w.W*c0[c+2] + w.E*c0[c+4] + w.N*n0[c+2] + w.S*s0[c+2]
		d[c+3] = w.C*c0[c+4] + w.W*c0[c+3] + w.E*c0[c+5] + w.N*n0[c+3] + w.S*s0[c+3]
	}
	for ; c < len(d); c++ {
		d[c] = w.C*c0[c+1] + w.W*c0[c] + w.E*c0[c+2] + w.N*n0[c] + w.S*s0[c]
	}
}

// rowJacobi is rowGeneric with the center term elided (w.C == 0): 4 mults
// and 3 adds per point instead of 5 and 4.
func rowJacobi(w Weights, d, c0, n0, s0 []float64) {
	c := 0
	for ; c+4 <= len(d); c += 4 {
		d[c] = w.W*c0[c] + w.E*c0[c+2] + w.N*n0[c] + w.S*s0[c]
		d[c+1] = w.W*c0[c+1] + w.E*c0[c+3] + w.N*n0[c+1] + w.S*s0[c+1]
		d[c+2] = w.W*c0[c+2] + w.E*c0[c+4] + w.N*n0[c+2] + w.S*s0[c+2]
		d[c+3] = w.W*c0[c+3] + w.E*c0[c+5] + w.N*n0[c+3] + w.S*s0[c+3]
	}
	for ; c < len(d); c++ {
		d[c] = w.W*c0[c] + w.E*c0[c+2] + w.N*n0[c] + w.S*s0[c]
	}
}

// applyUnrolled is the generic kernel with the 4-way unrolled row loop but
// no row fusion (exposed separately for the microbenchmarks).
func applyUnrolled(w Weights, dst, src *grid.Tile, rc grid.Rect) {
	for r := 0; r < rc.H; r++ {
		row := rc.R0 + r
		rowGeneric(w,
			dst.Row(row, rc.C0, rc.W),
			src.Row(row, rc.C0-1, rc.W+2),
			src.Row(row-1, rc.C0, rc.W),
			src.Row(row+1, rc.C0, rc.W))
	}
}

// applyFused sweeps the rect two rows at a time: the lower row's center
// line doubles as the upper row's south line (and vice versa for north), so
// each cache line of src is touched once per pair instead of twice.
func applyFused(w Weights, dst, src *grid.Tile, rc grid.Rect) {
	r := 0
	for ; r+2 <= rc.H; r += 2 {
		row := rc.R0 + r
		c0 := src.Row(row, rc.C0-1, rc.W+2)
		c1 := src.Row(row+1, rc.C0-1, rc.W+2)
		rowGeneric(w, dst.Row(row, rc.C0, rc.W), c0,
			src.Row(row-1, rc.C0, rc.W), c1[1:1+rc.W])
		rowGeneric(w, dst.Row(row+1, rc.C0, rc.W), c1,
			c0[1:1+rc.W], src.Row(row+2, rc.C0, rc.W))
	}
	if r < rc.H {
		row := rc.R0 + r
		rowGeneric(w,
			dst.Row(row, rc.C0, rc.W),
			src.Row(row, rc.C0-1, rc.W+2),
			src.Row(row-1, rc.C0, rc.W),
			src.Row(row+1, rc.C0, rc.W))
	}
}

// applyJacobi is the w.C == 0 fast path: fused two-row sweep over the
// center-free unrolled row kernel.
func applyJacobi(w Weights, dst, src *grid.Tile, rc grid.Rect) {
	r := 0
	for ; r+2 <= rc.H; r += 2 {
		row := rc.R0 + r
		c0 := src.Row(row, rc.C0-1, rc.W+2)
		c1 := src.Row(row+1, rc.C0-1, rc.W+2)
		rowJacobi(w, dst.Row(row, rc.C0, rc.W), c0,
			src.Row(row-1, rc.C0, rc.W), c1[1:1+rc.W])
		rowJacobi(w, dst.Row(row+1, rc.C0, rc.W), c1,
			c0[1:1+rc.W], src.Row(row+2, rc.C0, rc.W))
	}
	if r < rc.H {
		row := rc.R0 + r
		rowJacobi(w,
			dst.Row(row, rc.C0, rc.W),
			src.Row(row, rc.C0-1, rc.W+2),
			src.Row(row-1, rc.C0, rc.W),
			src.Row(row+1, rc.C0, rc.W))
	}
}

// Interior returns the rect covering a tile's interior.
func Interior(t *grid.Tile) grid.Rect {
	return grid.Rect{R0: 0, C0: 0, H: t.Rows, W: t.Cols}
}

// Step applies one whole-tile Jacobi sweep from src into dst. Both tiles
// must have the same interior dimensions and src needs halo >= 1.
func Step(w Weights, dst, src *grid.Tile) {
	Apply(w, dst, src, Interior(src))
}

// Boundary is a fixed (Dirichlet) boundary condition: it returns the value
// of any point outside the global N x N domain.
type Boundary func(gr, gc int) float64

// ConstBoundary returns a boundary holding a constant value.
func ConstBoundary(v float64) Boundary {
	return func(int, int) float64 { return v }
}

// Init assigns initial values to in-domain points.
type Init func(gr, gc int) float64

// HashInit returns a deterministic pseudo-random initializer in [0, 1).
// Distinct seeds give distinct grids; the same seed is bit-reproducible, so
// correctness tests can compare engines bitwise.
func HashInit(seed uint64) Init {
	return func(gr, gc int) float64 {
		x := seed ^ uint64(gr)*0x9e3779b97f4a7c15 ^ uint64(gc)*0xbf58476d1ce4e5b9
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return float64(x>>11) / float64(1<<53)
	}
}

// Reference is the sequential oracle: the whole N x N grid in one tile with
// a one-deep ghost ring holding the boundary values. All parallel
// implementations must reproduce it bitwise.
type Reference struct {
	N   int
	W   Weights
	cur *grid.Tile
	nxt *grid.Tile
}

// NewReference builds the oracle grid with the given initial condition and
// boundary.
func NewReference(n int, w Weights, init Init, b Boundary) *Reference {
	if n <= 0 {
		panic(fmt.Sprintf("stencil: invalid reference size %d", n))
	}
	ref := &Reference{N: n, W: w, cur: grid.NewTile(n, n, 1), nxt: grid.NewTile(n, n, 1)}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			ref.cur.Set(r, c, init(r, c))
		}
	}
	fillBoundary(ref.cur, 0, 0, n, b)
	fillBoundary(ref.nxt, 0, 0, n, b)
	return ref
}

// fillBoundary writes boundary values into every ghost cell of t that lies
// outside the global domain. (r0, c0) is the tile origin in global
// coordinates and n the global extent.
func fillBoundary(t *grid.Tile, r0, c0, n int, b Boundary) {
	h := t.Halo
	for r := -h; r < t.Rows+h; r++ {
		for c := -h; c < t.Cols+h; c++ {
			if r >= 0 && r < t.Rows && c >= 0 && c < t.Cols {
				continue
			}
			gr, gc := r0+r, c0+c
			if gr < 0 || gr >= n || gc < 0 || gc >= n {
				t.Set(r, c, b(gr, gc))
			}
		}
	}
}

// FillBoundary exposes boundary filling for tiles of distributed grids: it
// writes b into the ghost cells of t (with global origin r0, c0) that fall
// outside the global n x n domain.
func FillBoundary(t *grid.Tile, r0, c0, n int, b Boundary) { fillBoundary(t, r0, c0, n, b) }

// Step advances the reference by one Jacobi sweep.
func (ref *Reference) Step() {
	Step(ref.W, ref.nxt, ref.cur)
	ref.cur, ref.nxt = ref.nxt, ref.cur
}

// Run advances the reference by iters sweeps.
func (ref *Reference) Run(iters int) {
	for i := 0; i < iters; i++ {
		ref.Step()
	}
}

// At returns the current value at global coordinates (gr, gc).
func (ref *Reference) At(gr, gc int) float64 { return ref.cur.At(gr, gc) }

// Grid returns the tile holding the current iterate.
func (ref *Reference) Grid() *grid.Tile { return ref.cur }

// MaxAbsDiff returns the max-norm distance between the reference and a
// function giving another solution's value at global coordinates.
func (ref *Reference) MaxAbsDiff(other func(gr, gc int) float64) float64 {
	max := 0.0
	for r := 0; r < ref.N; r++ {
		for c := 0; c < ref.N; c++ {
			d := math.Abs(ref.At(r, c) - other(r, c))
			if d > max {
				max = d
			}
		}
	}
	return max
}

// Residual returns the max-norm Jacobi residual |x - J(x)| of the current
// iterate — zero exactly at the fixed point. Used by the heat/Laplace
// examples to track convergence.
func (ref *Reference) Residual() float64 {
	Step(ref.W, ref.nxt, ref.cur)
	max := 0.0
	for r := 0; r < ref.N; r++ {
		cur := ref.cur.Row(r, 0, ref.N)
		nxt := ref.nxt.Row(r, 0, ref.N)
		for c := range cur {
			d := math.Abs(cur[c] - nxt[c])
			if d > max {
				max = d
			}
		}
	}
	return max
}
