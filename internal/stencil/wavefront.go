package stencil

import "castencil/internal/grid"

// This file implements the wavefront temporal-blocking sweep: one fused
// kernel call advances a tile w time steps using a width-w ghost region and
// an in-tile diagonal wavefront, instead of w separate whole-tile sweeps
// with a halo exchange between each. The traversal interleaves the time
// levels so the working set of the active diagonal band stays cache
// resident, and two buffers suffice for any depth: level k writes buffer
// k%2, whose level k-2 content has already been consumed by level k-1.
//
// Correctness of the two-buffer scheme follows from the row skew. At front
// f, level k (1-based) updates row r = f - 2(k-1):
//
//   - availability: level k at row r reads level k-1 at rows r-1..r+1;
//     within the same front, level k-1 runs first (levels ascend) and is at
//     row r+2, so rows <= r+2 of level k-1 are complete;
//   - overwrite safety: writing level k at row r destroys level k-2's row r
//     (same buffer). Level k-1 is the only reader of level k-2, and its
//     lowest remaining read row is r+1 (its row r+2 read rows r+1..r+3) —
//     strictly above the row being overwritten.
//
// Each level's update region shrinks like the CA trapezoid: level k of a
// width-wb block extends the interior by wb-k layers on every side that has
// a neighbor (never past the global boundary). The caller supplies these
// per-level rects; Wavefront only fixes the traversal order and the
// buffer parity.

// WavefrontRegions returns the per-level update rects of a width-wb
// wavefront block over a rows x cols tile: regions[k-1] is the rect level
// k+0 updates — the interior extended by wb-(k) ghost layers on each side
// where hasNeighbor reports a neighboring tile. The final level's rect is
// exactly the interior.
func WavefrontRegions(rows, cols, wb int, hasNeighbor func(d grid.Dir) bool) []grid.Rect {
	regions := make([]grid.Rect, wb)
	for k := 1; k <= wb; k++ {
		ext := wb - k
		extOf := func(d grid.Dir) int {
			if ext <= 0 || !hasNeighbor(d) {
				return 0
			}
			return ext
		}
		n, s := extOf(grid.North), extOf(grid.South)
		w, e := extOf(grid.West), extOf(grid.East)
		regions[k-1] = grid.Rect{R0: -n, C0: -w, H: rows + n + s, W: cols + w + e}
	}
	return regions
}

// Wavefront advances a tile len(regions) time steps in one diagonal sweep.
// cur holds the level-0 data: the interior plus ghost layers at least one
// deeper than regions[0] extends on every side (freshly received wb-deep
// halos on neighbor sides, Dirichlet values on global-boundary sides — the
// Dirichlet ghosts must be present in BOTH buffers and are never written).
// regions[k-1] is the rect level k updates (see WavefrontRegions). The
// returned tile holds the final level's data (cur when the depth is even,
// next when odd); every updated point is bitwise identical to len(regions)
// successive Apply sweeps with ideal halo refreshes in between, because each
// row uses the same row kernels in the same order.
func Wavefront(w Weights, cur, next *grid.Tile, regions []grid.Rect) *grid.Tile {
	wb := len(regions)
	bufs := [2]*grid.Tile{cur, next}
	jac := w.C == 0
	last := regions[wb-1]
	fMin := regions[0].R0
	fMax := last.R0 + last.H - 1 + 2*(wb-1)
	for f := fMin; f <= fMax; f++ {
		for k := 1; k <= wb; k++ {
			rc := regions[k-1]
			r := f - 2*(k-1)
			if r < rc.R0 || r >= rc.R0+rc.H {
				continue
			}
			dst, src := bufs[k%2], bufs[(k-1)%2]
			d := dst.Row(r, rc.C0, rc.W)
			c0 := src.Row(r, rc.C0-1, rc.W+2)
			n0 := src.Row(r-1, rc.C0, rc.W)
			s0 := src.Row(r+1, rc.C0, rc.W)
			if jac {
				rowJacobi(w, d, c0, n0, s0)
			} else {
				rowGeneric(w, d, c0, n0, s0)
			}
		}
	}
	return bufs[wb%2]
}

// Wavefront9 is Wavefront for the nine-point stencil. The diagonal terms
// read the same rows r-1..r+1 as the five-point kernel, so the row skew and
// the square per-level regions are unchanged.
func Wavefront9(w Weights9, cur, next *grid.Tile, regions []grid.Rect) *grid.Tile {
	wb := len(regions)
	bufs := [2]*grid.Tile{cur, next}
	last := regions[wb-1]
	fMin := regions[0].R0
	fMax := last.R0 + last.H - 1 + 2*(wb-1)
	for f := fMin; f <= fMax; f++ {
		for k := 1; k <= wb; k++ {
			rc := regions[k-1]
			r := f - 2*(k-1)
			if r < rc.R0 || r >= rc.R0+rc.H {
				continue
			}
			dst, src := bufs[k%2], bufs[(k-1)%2]
			row9(w,
				dst.Row(r, rc.C0, rc.W),
				src.Row(r, rc.C0-1, rc.W+2),
				src.Row(r-1, rc.C0-1, rc.W+2),
				src.Row(r+1, rc.C0-1, rc.W+2))
		}
	}
	return bufs[wb%2]
}
