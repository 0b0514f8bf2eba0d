package stencil

import "castencil/internal/grid"

// Weights9 holds nine-point stencil coefficients (the four diagonals in
// addition to the five-point set). The nine-point Laplacian has higher
// accuracy and a higher arithmetic intensity (17 flops/update), which the
// paper's section VII names as one way to mitigate network inefficiency.
type Weights9 struct {
	C, N, S, W, E, NW, NE, SW, SE float64
}

// Jacobi9 returns the 9-point Laplace Jacobi weights (Mehrstellen scheme):
// 4/20 on the edges, 1/20 on the corners.
func Jacobi9() Weights9 {
	return Weights9{
		N: 4.0 / 20, S: 4.0 / 20, W: 4.0 / 20, E: 4.0 / 20,
		NW: 1.0 / 20, NE: 1.0 / 20, SW: 1.0 / 20, SE: 1.0 / 20,
	}
}

// Flops9PerUpdate is the per-point flop count of the nine-point kernel:
// 9 multiplications + 8 additions.
const Flops9PerUpdate = 17

// Apply9 performs the nine-point update over rect. Like Apply, the rect may
// extend into ghost cells; src must be addressable one point beyond it.
func Apply9(w Weights9, dst, src *grid.Tile, rc grid.Rect) {
	for r := 0; r < rc.H; r++ {
		row := rc.R0 + r
		d := dst.Row(row, rc.C0, rc.W)
		c0 := src.Row(row, rc.C0-1, rc.W+2)
		n0 := src.Row(row-1, rc.C0-1, rc.W+2)
		s0 := src.Row(row+1, rc.C0-1, rc.W+2)
		for c := 0; c < rc.W; c++ {
			d[c] = w.C*c0[c+1] + w.W*c0[c] + w.E*c0[c+2] +
				w.N*n0[c+1] + w.S*s0[c+1] +
				w.NW*n0[c] + w.NE*n0[c+2] +
				w.SW*s0[c] + w.SE*s0[c+2]
		}
	}
}

// Reference9 is the sequential oracle for the nine-point stencil, mirroring
// Reference.
type Reference9 struct {
	N   int
	W   Weights9
	cur *grid.Tile
	nxt *grid.Tile
}

// NewReference9 builds the nine-point oracle grid.
func NewReference9(n int, w Weights9, init Init, b Boundary) *Reference9 {
	ref := &Reference9{N: n, W: w, cur: grid.NewTile(n, n, 1), nxt: grid.NewTile(n, n, 1)}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			ref.cur.Set(r, c, init(r, c))
		}
	}
	fillBoundary(ref.cur, 0, 0, n, b)
	fillBoundary(ref.nxt, 0, 0, n, b)
	return ref
}

// Run advances the oracle by iters sweeps.
func (ref *Reference9) Run(iters int) {
	for i := 0; i < iters; i++ {
		Apply9(ref.W, ref.nxt, ref.cur, Interior(ref.cur))
		ref.cur, ref.nxt = ref.nxt, ref.cur
	}
}

// At returns the current value at global coordinates.
func (ref *Reference9) At(gr, gc int) float64 { return ref.cur.At(gr, gc) }
