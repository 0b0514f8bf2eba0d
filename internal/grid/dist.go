package grid

import (
	"fmt"
	"math"
)

// Partition describes how an N x N global grid is cut into tiles of nominal
// size TileRows x TileCols (the paper's mb x nb; edge tiles may be smaller
// when the sizes do not divide N) and how those tiles are distributed in 2D
// blocks over a P x Q process (node) grid — the layout the paper uses to
// minimize the surface-to-volume ratio.
type Partition struct {
	N                  int // global grid extent (N x N points)
	TileRows, TileCols int // nominal tile extent
	TR, TC             int // tile-grid extent: ceil(N/TileRows) x ceil(N/TileCols)
	P, Q               int // process grid extent
}

// NewPartition builds a partition. It validates that the process grid is not
// larger than the tile grid (every node must own at least one tile).
func NewPartition(n, tileRows, tileCols, p, q int) (*Partition, error) {
	if n <= 0 || tileRows <= 0 || tileCols <= 0 {
		return nil, fmt.Errorf("grid: invalid partition n=%d tile=%dx%d", n, tileRows, tileCols)
	}
	if p <= 0 || q <= 0 {
		return nil, fmt.Errorf("grid: invalid process grid %dx%d", p, q)
	}
	pt := &Partition{
		N: n, TileRows: tileRows, TileCols: tileCols,
		TR: ceilDiv(n, tileRows), TC: ceilDiv(n, tileCols),
		P: p, Q: q,
	}
	if pt.TR > math.MaxInt/pt.TC {
		return nil, fmt.Errorf("grid: tile grid %dx%d has more tiles than an int holds", pt.TR, pt.TC)
	}
	if p > pt.TR || q > pt.TC {
		return nil, fmt.Errorf("grid: process grid %dx%d exceeds tile grid %dx%d", p, q, pt.TR, pt.TC)
	}
	return pt, nil
}

// SquareGrid returns the P x P process grid for a node count that the paper
// arranges "into square compute grid"; nodes must be a perfect square.
func SquareGrid(nodes int) (p, q int, err error) {
	r := int(math.Round(math.Sqrt(float64(nodes))))
	if r*r != nodes {
		return 0, 0, fmt.Errorf("grid: %d nodes is not a perfect square", nodes)
	}
	return r, r, nil
}

func ceilDiv(a, b int) int { return a/b + min(a%b, 1) }

// Tiles returns the number of tiles.
func (p *Partition) Tiles() int { return p.TR * p.TC }

// Nodes returns the number of processes.
func (p *Partition) Nodes() int { return p.P * p.Q }

// TileDims returns the actual extent of tile (ti, tj); edge tiles shrink.
func (p *Partition) TileDims(ti, tj int) (rows, cols int) {
	rows = p.TileRows
	if r := p.N - ti*p.TileRows; r < rows {
		rows = r
	}
	cols = p.TileCols
	if c := p.N - tj*p.TileCols; c < cols {
		cols = c
	}
	return rows, cols
}

// MinTileDim returns the smallest tile extent of the partition, ragged edge
// tiles included — the feasibility bound for deep-halo schemes, whose ghost
// regions are packed out of neighbor interiors. Only the last tile row and
// column can be ragged, so the corner tile holds both minima.
func (p *Partition) MinTileDim() int {
	r, c := p.TileDims(p.TR-1, p.TC-1)
	return min(r, c)
}

// TileOrigin returns the global coordinates of tile (ti, tj)'s (0,0) point.
func (p *Partition) TileOrigin(ti, tj int) (r0, c0 int) {
	return ti * p.TileRows, tj * p.TileCols
}

// InTileGrid reports whether (ti, tj) is a valid tile coordinate.
func (p *Partition) InTileGrid(ti, tj int) bool {
	return ti >= 0 && ti < p.TR && tj >= 0 && tj < p.TC
}

// blockOwner maps a tile index along one dimension onto a process index
// along that dimension, distributing tiles in contiguous near-equal blocks.
func blockOwner(t, tiles, procs int) int {
	// Block sizes differ by at most one: the first `rem` blocks get
	// base+1 tiles.
	base := tiles / procs
	rem := tiles % procs
	cut := rem * (base + 1)
	if t < cut {
		return t / (base + 1)
	}
	return rem + (t-cut)/base
}

// blockRange returns the half-open tile range [lo, hi) owned by process
// index pi along a dimension.
func blockRange(pi, tiles, procs int) (lo, hi int) {
	base := tiles / procs
	rem := tiles % procs
	if pi < rem {
		lo = pi * (base + 1)
		return lo, lo + base + 1
	}
	lo = rem*(base+1) + (pi-rem)*base
	return lo, lo + base
}

// Owner returns the rank of the node owning tile (ti, tj) under the 2D
// block distribution. Ranks are row-major over the process grid.
func (p *Partition) Owner(ti, tj int) int {
	pi := blockOwner(ti, p.TR, p.P)
	pj := blockOwner(tj, p.TC, p.Q)
	return pi*p.Q + pj
}

// NodeCoords returns the process-grid coordinates of a rank.
func (p *Partition) NodeCoords(rank int) (pi, pj int) {
	return rank / p.Q, rank % p.Q
}

// Neighbor returns the tile coordinates of the neighbor of (ti, tj) in
// direction d and whether it exists (false at the global boundary).
func (p *Partition) Neighbor(ti, tj int, d Dir) (ni, nj int, ok bool) {
	dr, dc := d.Delta()
	ni, nj = ti+dr, tj+dc
	return ni, nj, p.InTileGrid(ni, nj)
}

// RemoteNeighbors returns the directions in which tile (ti, tj) has a
// neighbor owned by a different node. Cardinal-only when diag is false;
// all eight when diag is true (the CA scheme needs the corners too).
func (p *Partition) RemoteNeighbors(ti, tj int, diag bool) []Dir {
	owner := p.Owner(ti, tj)
	dirs := CardinalDirs
	if diag {
		dirs = AllDirs
	}
	var out []Dir
	for _, d := range dirs {
		ni, nj, ok := p.Neighbor(ti, tj, d)
		if ok && p.Owner(ni, nj) != owner {
			out = append(out, d)
		}
	}
	return out
}

// IsNodeBoundary reports whether tile (ti, tj) has at least one remote
// cardinal neighbor — the paper's "boundary tile", which under the CA
// scheme carries a deep ghost region.
func (p *Partition) IsNodeBoundary(ti, tj int) bool {
	return len(p.RemoteNeighbors(ti, tj, false)) > 0
}

func (p *Partition) String() string {
	return fmt.Sprintf("partition(n=%d tiles=%dx%d@%dx%d nodes=%dx%d)",
		p.N, p.TR, p.TC, p.TileRows, p.TileCols, p.P, p.Q)
}
