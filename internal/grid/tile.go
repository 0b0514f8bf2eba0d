// Package grid provides the tiled 2D grid substrate the stencil
// implementations operate on: tiles with ghost (halo) regions of arbitrary
// depth, rectangle pack/unpack for halo exchange (edges and corners), the
// 2D block data distribution over a square process grid described in the
// paper, and tile/process-grid arithmetic.
package grid

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Dir identifies one of the eight neighbors of a tile. The four cardinal
// directions carry edge halos; the diagonals carry the corner blocks the CA
// scheme additionally buffers (paper section IV-B2).
type Dir int

const (
	North Dir = iota // row -1 side (smaller row indices)
	South            // row +1 side
	West             // col -1 side
	East             // col +1 side
	NorthWest
	NorthEast
	SouthWest
	SouthEast
	NumDirs
)

var dirNames = [NumDirs]string{"N", "S", "W", "E", "NW", "NE", "SW", "SE"}

func (d Dir) String() string {
	if d < 0 || d >= NumDirs {
		return fmt.Sprintf("Dir(%d)", int(d))
	}
	return dirNames[d]
}

// Opposite returns the direction from the neighbor's point of view.
func (d Dir) Opposite() Dir {
	switch d {
	case North:
		return South
	case South:
		return North
	case West:
		return East
	case East:
		return West
	case NorthWest:
		return SouthEast
	case NorthEast:
		return SouthWest
	case SouthWest:
		return NorthEast
	case SouthEast:
		return NorthWest
	}
	return d
}

// Delta returns the (row, col) offset of the neighbor tile in direction d.
func (d Dir) Delta() (dr, dc int) {
	switch d {
	case North:
		return -1, 0
	case South:
		return 1, 0
	case West:
		return 0, -1
	case East:
		return 0, 1
	case NorthWest:
		return -1, -1
	case NorthEast:
		return -1, 1
	case SouthWest:
		return 1, -1
	case SouthEast:
		return 1, 1
	}
	return 0, 0
}

// Cardinal reports whether d is one of the four edge directions.
func (d Dir) Cardinal() bool { return d >= North && d <= East }

// CardinalDirs and DiagonalDirs enumerate the direction groups.
var (
	CardinalDirs = []Dir{North, South, West, East}
	DiagonalDirs = []Dir{NorthWest, NorthEast, SouthWest, SouthEast}
	AllDirs      = []Dir{North, South, West, East, NorthWest, NorthEast, SouthWest, SouthEast}
)

// Tile is an mb x nb block of the grid surrounded by a ghost region of
// fixed depth. Interior coordinates run r in [0,Rows), c in [0,Cols);
// ghost cells are addressed with coordinates in [-Halo, Rows+Halo) x
// [-Halo, Cols+Halo). Storage is a single contiguous slice.
type Tile struct {
	Rows, Cols int // interior extent (the paper's mb, nb)
	Halo       int // ghost depth (1 for base tiles, s for CA boundary tiles)
	data       []float64
	stride     int
}

// NewTile allocates a tile with all values (including ghosts) zero.
func NewTile(rows, cols, halo int) *Tile {
	return TileOver(rows, cols, halo, make([]float64, storageLen(rows, cols, halo)))
}

// storageLen returns the number of values of a tile's ghost-inclusive
// storage, panicking on an invalid shape.
func storageLen(rows, cols, halo int) int {
	if rows <= 0 || cols <= 0 || halo < 0 {
		panic(fmt.Sprintf("grid: invalid tile %dx%d halo %d", rows, cols, halo))
	}
	return (rows + 2*halo) * (cols + 2*halo)
}

// TileOver builds a tile over caller-provided storage of at least
// (rows+2*halo)*(cols+2*halo) values, which it uses as is: nothing is
// cleared. Storage hands the slice back at its full capacity, so the caller
// can recycle it.
func TileOver(rows, cols, halo int, data []float64) *Tile {
	n := storageLen(rows, cols, halo)
	if len(data) < n {
		panic(fmt.Sprintf("grid: tile %dx%d halo %d needs %d values, got %d", rows, cols, halo, n, len(data)))
	}
	return &Tile{
		Rows:   rows,
		Cols:   cols,
		Halo:   halo,
		data:   data[:n],
		stride: cols + 2*halo,
	}
}

// Storage returns the tile's backing slice at its full capacity — the
// storage TileOver was given, or NewTile allocated.
func (t *Tile) Storage() []float64 { return t.data[:cap(t.data)] }

// index maps interior coordinates (ghost-inclusive) to the storage offset.
func (t *Tile) index(r, c int) int {
	return (r+t.Halo)*t.stride + (c + t.Halo)
}

// At returns the value at interior coordinates (r, c); ghost coordinates
// down to -Halo and up to Rows+Halo-1 / Cols+Halo-1 are valid.
func (t *Tile) At(r, c int) float64 { return t.data[t.index(r, c)] }

// Set stores a value at interior coordinates (r, c) (ghosts allowed).
func (t *Tile) Set(r, c int, v float64) { t.data[t.index(r, c)] = v }

// Row returns the slice aliasing columns [c0, c0+n) of row r.
func (t *Tile) Row(r, c0, n int) []float64 {
	i := t.index(r, c0)
	return t.data[i : i+n]
}

// Clone returns a deep copy of the tile.
func (t *Tile) Clone() *Tile {
	c := NewTile(t.Rows, t.Cols, t.Halo)
	copy(c.data, t.data)
	return c
}

// Rect describes a rectangle in a tile's ghost-inclusive coordinate space.
type Rect struct {
	R0, C0 int // top-left corner (ghost coordinates allowed)
	H, W   int // height and width
}

// Size returns the number of points in the rectangle.
func (rc Rect) Size() int { return rc.H * rc.W }

// Bytes returns the serialized payload size of the rectangle in bytes.
func (rc Rect) Bytes() int { return rc.Size() * 8 }

func (rc Rect) String() string {
	return fmt.Sprintf("rect(%d,%d %dx%d)", rc.R0, rc.C0, rc.H, rc.W)
}

// contains reports whether the rect lies within the tile's addressable area.
func (t *Tile) contains(rc Rect) bool {
	return rc.H >= 0 && rc.W >= 0 &&
		rc.R0 >= -t.Halo && rc.C0 >= -t.Halo &&
		rc.R0+rc.H <= t.Rows+t.Halo && rc.C0+rc.W <= t.Cols+t.Halo
}

// Pack copies the rectangle out of the tile into dst (allocated if nil or
// too small) in row-major order and returns it.
func (t *Tile) Pack(rc Rect, dst []float64) []float64 {
	if !t.contains(rc) {
		panic(fmt.Sprintf("grid: pack %v outside tile %dx%d halo %d", rc, t.Rows, t.Cols, t.Halo))
	}
	if cap(dst) < rc.Size() {
		dst = make([]float64, rc.Size())
	}
	dst = dst[:rc.Size()]
	for r := 0; r < rc.H; r++ {
		copy(dst[r*rc.W:(r+1)*rc.W], t.Row(rc.R0+r, rc.C0, rc.W))
	}
	return dst
}

// Unpack copies row-major values into the rectangle of the tile.
func (t *Tile) Unpack(rc Rect, src []float64) {
	if !t.contains(rc) {
		panic(fmt.Sprintf("grid: unpack %v outside tile %dx%d halo %d", rc, t.Rows, t.Cols, t.Halo))
	}
	if len(src) != rc.Size() {
		panic(fmt.Sprintf("grid: unpack %v needs %d values, got %d", rc, rc.Size(), len(src)))
	}
	for r := 0; r < rc.H; r++ {
		copy(t.Row(rc.R0+r, rc.C0, rc.W), src[r*rc.W:(r+1)*rc.W])
	}
}

// PackBytes serializes the rectangle straight out of the tile's contiguous
// storage into dst (allocated if nil or too small) as row-major
// little-endian float64 values, and returns it. It is the zero-copy wire
// format of inter-node halo messages: one copy from tile to payload, with no
// intermediate []float64.
func (t *Tile) PackBytes(rc Rect, dst []byte) []byte {
	if !t.contains(rc) {
		panic(fmt.Sprintf("grid: pack %v outside tile %dx%d halo %d", rc, t.Rows, t.Cols, t.Halo))
	}
	need := rc.Bytes()
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	off := 0
	for r := 0; r < rc.H; r++ {
		row := t.Row(rc.R0+r, rc.C0, rc.W)
		for _, v := range row {
			binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(v))
			off += 8
		}
	}
	return dst
}

// UnpackBytes deposits a PackBytes payload into the rectangle of the tile,
// the receiving half of the zero-copy message path.
func (t *Tile) UnpackBytes(rc Rect, src []byte) {
	if !t.contains(rc) {
		panic(fmt.Sprintf("grid: unpack %v outside tile %dx%d halo %d", rc, t.Rows, t.Cols, t.Halo))
	}
	if len(src) != rc.Bytes() {
		panic(fmt.Sprintf("grid: unpack %v needs %d bytes, got %d", rc, rc.Bytes(), len(src)))
	}
	off := 0
	for r := 0; r < rc.H; r++ {
		row := t.Row(rc.R0+r, rc.C0, rc.W)
		for c := range row {
			row[c] = math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))
			off += 8
		}
	}
}

// EdgeRect returns the depth-deep strip of the tile's own interior adjacent
// to the given cardinal side — the data a neighbor in that direction needs.
func (t *Tile) EdgeRect(d Dir, depth int) Rect {
	switch d {
	case North:
		return Rect{R0: 0, C0: 0, H: depth, W: t.Cols}
	case South:
		return Rect{R0: t.Rows - depth, C0: 0, H: depth, W: t.Cols}
	case West:
		return Rect{R0: 0, C0: 0, H: t.Rows, W: depth}
	case East:
		return Rect{R0: 0, C0: t.Cols - depth, H: t.Rows, W: depth}
	}
	panic("grid: EdgeRect needs a cardinal direction")
}

// HaloRect returns the depth-deep ghost strip on the given cardinal side —
// where data received from the neighbor in that direction lands.
func (t *Tile) HaloRect(d Dir, depth int) Rect {
	switch d {
	case North:
		return Rect{R0: -depth, C0: 0, H: depth, W: t.Cols}
	case South:
		return Rect{R0: t.Rows, C0: 0, H: depth, W: t.Cols}
	case West:
		return Rect{R0: 0, C0: -depth, H: t.Rows, W: depth}
	case East:
		return Rect{R0: 0, C0: t.Cols, H: t.Rows, W: depth}
	}
	panic("grid: HaloRect needs a cardinal direction")
}

// CornerRect returns the depth x depth block of the tile's own interior at
// the given diagonal — the data a diagonal neighbor needs for CA updates.
func (t *Tile) CornerRect(d Dir, depth int) Rect {
	switch d {
	case NorthWest:
		return Rect{R0: 0, C0: 0, H: depth, W: depth}
	case NorthEast:
		return Rect{R0: 0, C0: t.Cols - depth, H: depth, W: depth}
	case SouthWest:
		return Rect{R0: t.Rows - depth, C0: 0, H: depth, W: depth}
	case SouthEast:
		return Rect{R0: t.Rows - depth, C0: t.Cols - depth, H: depth, W: depth}
	}
	panic("grid: CornerRect needs a diagonal direction")
}

// HaloCornerRect returns the depth x depth ghost block at the given diagonal
// — where a diagonal neighbor's corner data lands.
func (t *Tile) HaloCornerRect(d Dir, depth int) Rect {
	switch d {
	case NorthWest:
		return Rect{R0: -depth, C0: -depth, H: depth, W: depth}
	case NorthEast:
		return Rect{R0: -depth, C0: t.Cols, H: depth, W: depth}
	case SouthWest:
		return Rect{R0: t.Rows, C0: -depth, H: depth, W: depth}
	case SouthEast:
		return Rect{R0: t.Rows, C0: t.Cols, H: depth, W: depth}
	}
	panic("grid: HaloCornerRect needs a diagonal direction")
}

// SendRect returns the rectangle of this tile's interior that the neighbor
// in direction d must receive: the matching edge strip for cardinal
// directions or corner block for diagonals.
func (t *Tile) SendRect(d Dir, depth int) Rect {
	if d.Cardinal() {
		return t.EdgeRect(d, depth)
	}
	return t.CornerRect(d, depth)
}

// RecvRect returns the ghost rectangle where data arriving from the neighbor
// in direction d lands.
func (t *Tile) RecvRect(d Dir, depth int) Rect {
	if d.Cardinal() {
		return t.HaloRect(d, depth)
	}
	return t.HaloCornerRect(d, depth)
}

// FillGhost sets every ghost cell (all cells outside the interior) to v.
func (t *Tile) FillGhost(v float64) {
	for r := -t.Halo; r < t.Rows+t.Halo; r++ {
		for c := -t.Halo; c < t.Cols+t.Halo; c++ {
			if r >= 0 && r < t.Rows && c >= 0 && c < t.Cols {
				continue
			}
			t.Set(r, c, v)
		}
	}
}

// InteriorEqual reports whether two tiles hold bitwise-identical interiors.
func InteriorEqual(a, b *Tile) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for r := 0; r < a.Rows; r++ {
		ar, br := a.Row(r, 0, a.Cols), b.Row(r, 0, b.Cols)
		for c := range ar {
			if ar[c] != br[c] {
				return false
			}
		}
	}
	return true
}
