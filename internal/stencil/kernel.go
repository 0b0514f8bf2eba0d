// Package stencil implements the five-point Jacobi kernels of the paper —
// the generic-weight update of equation (1), which costs 9 flops per point
// (5 multiplications + 4 additions) — plus a sequential whole-grid reference
// solver used as the correctness oracle, and the nine-point extension.
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

// Apply performs the five-point update for every point of rect, reading from
// src and writing to dst. The rect is expressed in the tiles' shared
// interior coordinate system and may extend into ghost cells (the CA
// trapezoid updates do); src must be addressable one point beyond the rect
// in each direction, and dst must contain the rect.
//
// Apply sweeps the rect two rows at a time: the lower row's center line
// doubles as the upper row's south line (and vice versa for north), so each
// cache line of src is touched once per pair instead of twice. Each row runs
// a center-free kernel when w.C == 0 (the classic Jacobi weights, 7 flops
// instead of 9) and the generic one otherwise. Both evaluate the expression
// of equation (1) in one fixed order, so the sequential oracle and every
// engine stay bitwise comparable.
func Apply(w Weights, dst, src *grid.Tile, rc grid.Rect) {
	row := rowGeneric
	if w.C == 0 {
		row = rowJacobi
	}
	r := 0
	for ; r+2 <= rc.H; r += 2 {
		at := rc.R0 + r
		c0 := src.Row(at, rc.C0-1, rc.W+2)
		c1 := src.Row(at+1, rc.C0-1, rc.W+2)
		row(w, dst.Row(at, rc.C0, rc.W), c0,
			src.Row(at-1, rc.C0, rc.W), c1[1:1+rc.W])
		row(w, dst.Row(at+1, rc.C0, rc.W), c1,
			c0[1:1+rc.W], src.Row(at+2, rc.C0, rc.W))
	}
	if r < rc.H {
		at := rc.R0 + r
		row(w,
			dst.Row(at, rc.C0, rc.W),
			src.Row(at, rc.C0-1, rc.W+2),
			src.Row(at-1, rc.C0, rc.W),
			src.Row(at+1, rc.C0, rc.W))
	}
}

// The row kernels below copy the weights to locals and slice every input
// once to the row length, so the compiler keeps the weights in registers and
// proves each index of the one loop in bounds. scripts/bce_check.sh fails
// the build if a bounds check comes back inside a loop marked "bce:".

// rowGeneric computes one row with the generic five-point expression.
// c0 spans [C0-1, C0+W+1); d, n0, s0 span [C0, C0+W).
func rowGeneric(w Weights, d, c0, n0, s0 []float64) {
	wc, wn, ws, ww, we := w.C, w.N, w.S, w.W, w.E
	n := len(d)
	cw, cc, ce, n0, s0 := c0[:n], c0[1:n+1], c0[2:n+2], n0[:n], s0[:n]
	for c := range d { // bce: rowGeneric
		d[c] = wc*cc[c] + ww*cw[c] + we*ce[c] + wn*n0[c] + ws*s0[c]
	}
}

// rowJacobi is rowGeneric with the center term elided (w.C == 0): 4 mults
// and 3 adds per point instead of 5 and 4.
func rowJacobi(w Weights, d, c0, n0, s0 []float64) {
	wn, ws, ww, we := w.N, w.S, w.W, w.E
	n := len(d)
	cw, ce, n0, s0 := c0[:n], c0[2:n+2], n0[:n], s0[:n]
	for c := range d { // bce: rowJacobi
		d[c] = ww*cw[c] + we*ce[c] + wn*n0[c] + ws*s0[c]
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
	set := func(r, c int) {
		gr, gc := r0+r, c0+c
		if gr < 0 || gr >= n || gc < 0 || gc >= n {
			t.Set(r, c, b(gr, gc))
		}
	}
	// Only the ghost ring: whole ghost rows, then the h cells on either
	// side of each interior row.
	for r := -h; r < t.Rows+h; r++ {
		if r < 0 || r >= t.Rows {
			for c := -h; c < t.Cols+h; c++ {
				set(r, c)
			}
			continue
		}
		for c := -h; c < 0; c++ {
			set(r, c)
		}
		for c := t.Cols; c < t.Cols+h; c++ {
			set(r, c)
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
