package core

import (
	"encoding/binary"
	"fmt"

	"castencil/internal/grid"
	"castencil/internal/runtime"
)

// This file is the control-plane side of a distributed real run: after the
// runtime's data plane drains, the final tiles are gathered to rank 0 over
// the same conduit (a "tiles" gather in the run's epoch), so only rank 0
// materializes the global grid — exactly one process answers for the run,
// and its answer is bitwise-identical to a single-process execution.

// tileRecHdr is the header of a tiles-gather record:
//
//	[u32 ti] [u32 tj] [u32 row] [u32 rows] [rows x cols float64-LE ...]
//
// carrying rows [row, row+rows) of tile (ti, tj), cols being the tile's
// width.
const tileRecHdr = 16

// gatherDistributed assembles the final global grid on rank 0 of a
// distributed run; on other ranks the returned grid is nil. The grid is the
// gather's one allocation. Rank 0 copies the tiles its own nodes hold from
// their stores straight into it. Every other rank streams its tiles through
// the conduit's GatherStream, one record per tile, or per run of rows when a
// whole tile would exceed the conduit's record limit. Each record is packed
// into an arena buffer that goes back once it is sent; rank 0 checks it
// (tileSink) and unpacks it into the grid.
func gatherDistributed(p *grid.Partition, stores []*runtime.Store, d *runtime.Dist) (*grid.Tile, error) {
	slots := stateSlots(p)
	local := func(ti, tj int) bool {
		return runtime.RankOfNode(p.Owner(ti, tj), p.Nodes(), d.Ranks) == d.Rank
	}
	if d.Rank != 0 {
		return nil, d.Net.GatherStream("tiles", func(max int, emit func([]byte) error) error {
			for ti := 0; ti < p.TR; ti++ {
				for tj := 0; tj < p.TC; tj++ {
					if !local(ti, tj) {
						continue
					}
					st, err := finalState(p, stores, slots, ti, tj)
					if err != nil {
						return err
					}
					if err := sendTile(ti, tj, st.cur, max, emit); err != nil {
						return err
					}
				}
			}
			return nil
		}, nil)
	}
	out := grid.NewTile(p.N, p.N, 0)
	for ti := 0; ti < p.TR; ti++ {
		for tj := 0; tj < p.TC; tj++ {
			if !local(ti, tj) {
				continue
			}
			st, err := finalState(p, stores, slots, ti, tj)
			if err != nil {
				return nil, err
			}
			placeTile(out, st)
		}
	}
	sink := newTileSink(p, out, d.Ranks)
	if err := d.Net.GatherStream("tiles", nil, sink.recv); err != nil {
		return nil, err
	}
	if err := sink.complete(); err != nil {
		return nil, err
	}
	return out, nil
}

// sendTile emits tile (ti, tj)'s interior as records of at most max bytes.
func sendTile(ti, tj int, t *grid.Tile, max int, emit func([]byte) error) error {
	step := (max - tileRecHdr) / (8 * t.Cols)
	if step < 1 {
		return fmt.Errorf("core: a row of tile (%d,%d) needs a %d-byte record, the gather takes %d",
			ti, tj, tileRecHdr+8*t.Cols, max)
	}
	le := binary.LittleEndian
	for r := 0; r < t.Rows; r += step {
		h := min(step, t.Rows-r)
		buf := runtime.GetBuf(tileRecHdr + 8*h*t.Cols)
		le.PutUint32(buf, uint32(ti))
		le.PutUint32(buf[4:], uint32(tj))
		le.PutUint32(buf[8:], uint32(r))
		le.PutUint32(buf[12:], uint32(h))
		t.PackBytes(grid.Rect{R0: r, H: h, W: t.Cols}, buf[tileRecHdr:tileRecHdr])
		err := emit(buf)
		runtime.PutBuf(buf)
		if err != nil {
			return err
		}
	}
	return nil
}

// tileSink is rank 0's side of the tiles gather. A peer's record is
// untrusted input: it must name a tile of the partition that the sending
// rank owns, continue that tile exactly where the tile's previous record
// ended, and carry whole rows of the tile's width; complete then requires
// every tile of every other rank in full. Anything else is an error, so a
// peer can neither overwrite rank 0's tiles nor send a tile twice or leave
// one out.
type tileSink struct {
	p     *grid.Partition
	out   *grid.Tile
	ranks int
	rows  []int32 // rows of each tile received so far
}

func newTileSink(p *grid.Partition, out *grid.Tile, ranks int) *tileSink {
	return &tileSink{p: p, out: out, ranks: ranks, rows: make([]int32, p.Tiles())}
}

// recv checks one record from rank from and unpacks it into the grid.
func (s *tileSink) recv(from int, rec []byte) error {
	if len(rec) < tileRecHdr {
		return fmt.Errorf("core: %d-byte tile record from rank %d", len(rec), from)
	}
	le := binary.LittleEndian
	ti, tj := int(le.Uint32(rec)), int(le.Uint32(rec[4:]))
	r0, h := int(le.Uint32(rec[8:])), int(le.Uint32(rec[12:]))
	if !s.p.InTileGrid(ti, tj) {
		return fmt.Errorf("core: rank %d sent tile (%d,%d), outside the partition", from, ti, tj)
	}
	if owner := runtime.RankOfNode(s.p.Owner(ti, tj), s.p.Nodes(), s.ranks); owner != from {
		return fmt.Errorf("core: rank %d sent tile (%d,%d), which rank %d owns", from, ti, tj, owner)
	}
	i := ti*s.p.TC + tj
	rows, cols := s.p.TileDims(ti, tj)
	if next := int(s.rows[i]); r0 != next || h < 1 || h > rows-next {
		return fmt.Errorf("core: rank %d sent rows %d+%d of tile (%d,%d), want rows from %d of %d",
			from, r0, h, ti, tj, next, rows)
	}
	if len(rec)-tileRecHdr != 8*h*cols {
		return fmt.Errorf("core: rank %d sent %d bytes for %d rows of tile (%d,%d), want %d",
			from, len(rec)-tileRecHdr, h, ti, tj, 8*h*cols)
	}
	gr, gc := s.p.TileOrigin(ti, tj)
	s.out.UnpackBytes(grid.Rect{R0: gr + r0, C0: gc, H: h, W: cols}, rec[tileRecHdr:])
	s.rows[i] += int32(h)
	return nil
}

// complete checks that every tile of the other ranks arrived in full.
func (s *tileSink) complete() error {
	for ti := 0; ti < s.p.TR; ti++ {
		for tj := 0; tj < s.p.TC; tj++ {
			if runtime.RankOfNode(s.p.Owner(ti, tj), s.p.Nodes(), s.ranks) == 0 {
				continue
			}
			if rows, _ := s.p.TileDims(ti, tj); int(s.rows[ti*s.p.TC+tj]) != rows {
				return fmt.Errorf("core: distributed gather got %d of %d rows of tile (%d,%d)",
					s.rows[ti*s.p.TC+tj], rows, ti, tj)
			}
		}
	}
	return nil
}
