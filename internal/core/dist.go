package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"castencil/internal/grid"
	"castencil/internal/runtime"
)

// This file is the control-plane side of a distributed real run: after the
// runtime's data plane drains, the final tiles are gathered to rank 0 over
// the same conduit (a "tiles" gather in the run's epoch), so only rank 0
// materializes the global grid — exactly one process answers for the run,
// and its answer is bitwise-identical to a single-process execution.

// gatherDistributed assembles the final global grid on rank 0 of a
// distributed run. Every rank (rank 0 included) serializes the tiles its
// nodes own; rank 0 decodes all blobs uniformly into the output grid. On
// non-zero ranks the returned grid is nil.
func gatherDistributed(p *grid.Partition, stores []*runtime.Store, d *runtime.Dist) (*grid.Tile, error) {
	payload, err := encodeLocalTiles(p, stores, d)
	if err != nil {
		return nil, err
	}
	blobs, err := d.Net.Gather("tiles", payload)
	if err != nil {
		return nil, err
	}
	if d.Rank != 0 {
		return nil, nil
	}
	out := grid.NewTile(p.N, p.N, 0)
	tiles := 0
	for r, blob := range blobs {
		n, err := decodeTiles(p, out, blob)
		if err != nil {
			return nil, fmt.Errorf("core: bad tiles payload from rank %d: %v", r, err)
		}
		tiles += n
	}
	if tiles != p.Tiles() {
		return nil, fmt.Errorf("core: distributed gather produced %d tiles, want %d", tiles, p.Tiles())
	}
	return out, nil
}

// encodeLocalTiles serializes every tile owned by this rank's nodes as
// [i32 ti][i32 tj][i32 rows][i32 cols][float64-LE data...] records.
func encodeLocalTiles(p *grid.Partition, stores []*runtime.Store, d *runtime.Dist) ([]byte, error) {
	var out []byte
	var buf [8]byte
	le := binary.LittleEndian
	slots := stateSlots(p)
	for ti := 0; ti < p.TR; ti++ {
		for tj := 0; tj < p.TC; tj++ {
			if runtime.RankOfNode(p.Owner(ti, tj), p.Nodes(), d.Ranks) != d.Rank {
				continue
			}
			st, err := finalState(p, stores, slots, ti, tj)
			if err != nil {
				return nil, err
			}
			le.PutUint32(buf[:4], uint32(ti))
			out = append(out, buf[:4]...)
			le.PutUint32(buf[:4], uint32(tj))
			out = append(out, buf[:4]...)
			le.PutUint32(buf[:4], uint32(st.cur.Rows))
			out = append(out, buf[:4]...)
			le.PutUint32(buf[:4], uint32(st.cur.Cols))
			out = append(out, buf[:4]...)
			for r := 0; r < st.cur.Rows; r++ {
				for _, f := range st.cur.Row(r, 0, st.cur.Cols) {
					le.PutUint64(buf[:], math.Float64bits(f))
					out = append(out, buf[:]...)
				}
			}
		}
	}
	return out, nil
}

// decodeTiles copies one rank's tile records into the global grid and
// returns how many tiles the blob carried.
func decodeTiles(p *grid.Partition, out *grid.Tile, blob []byte) (int, error) {
	le := binary.LittleEndian
	n := 0
	for len(blob) > 0 {
		if len(blob) < 16 {
			return n, fmt.Errorf("truncated tile header (%d bytes left)", len(blob))
		}
		ti := int(int32(le.Uint32(blob)))
		tj := int(int32(le.Uint32(blob[4:])))
		rows := int(int32(le.Uint32(blob[8:])))
		cols := int(int32(le.Uint32(blob[12:])))
		blob = blob[16:]
		if !p.InTileGrid(ti, tj) {
			return n, fmt.Errorf("tile (%d,%d) outside the partition", ti, tj)
		}
		wantR, wantC := p.TileDims(ti, tj)
		if rows != wantR || cols != wantC {
			return n, fmt.Errorf("tile (%d,%d) is %dx%d, want %dx%d", ti, tj, rows, cols, wantR, wantC)
		}
		need := rows * cols * 8
		if len(blob) < need {
			return n, fmt.Errorf("tile (%d,%d) data truncated (%d of %d bytes)", ti, tj, len(blob), need)
		}
		r0, c0 := p.TileOrigin(ti, tj)
		for r := 0; r < rows; r++ {
			dst := out.Row(r0+r, c0, cols)
			for c := range dst {
				dst[c] = math.Float64frombits(le.Uint64(blob[(r*cols+c)*8:]))
			}
		}
		blob = blob[need:]
		n++
	}
	return n, nil
}
