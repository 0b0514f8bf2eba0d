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
		row9(w,
			dst.Row(row, rc.C0, rc.W),
			src.Row(row, rc.C0-1, rc.W+2),
			src.Row(row-1, rc.C0-1, rc.W+2),
			src.Row(row+1, rc.C0-1, rc.W+2))
	}
}

// row9 computes one row of the nine-point update in one fixed order. c0, n0
// and s0 span [C0-1, C0+W+1); d spans [C0, C0+W).
func row9(w Weights9, d, c0, n0, s0 []float64) {
	wc, wn, ws, ww, we := w.C, w.N, w.S, w.W, w.E
	wnw, wne, wsw, wse := w.NW, w.NE, w.SW, w.SE
	n := len(d)
	cw, cc, ce := c0[:n], c0[1:n+1], c0[2:n+2]
	nw, nc, ne := n0[:n], n0[1:n+1], n0[2:n+2]
	sw, sc, se := s0[:n], s0[1:n+1], s0[2:n+2]
	for c := range d { // bce: row9
		d[c] = wc*cc[c] + ww*cw[c] + we*ce[c] +
			wn*nc[c] + ws*sc[c] +
			wnw*nw[c] + wne*ne[c] +
			wsw*sw[c] + wse*se[c]
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
