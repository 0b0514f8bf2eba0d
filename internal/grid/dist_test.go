package grid

import (
	"testing"
	"testing/quick"
)

func mustPartition(t *testing.T, n, tr, tc, p, q int) *Partition {
	t.Helper()
	pt, err := NewPartition(n, tr, tc, p, q)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestNewPartitionValidation(t *testing.T) {
	cases := [][5]int{
		{0, 10, 10, 1, 1},
		{100, 0, 10, 1, 1},
		{100, 10, 0, 1, 1},
		{100, 10, 10, 0, 1},
		{100, 10, 10, 1, 0},
		{100, 60, 60, 4, 4}, // 2x2 tiles cannot feed 4x4 nodes
	}
	for _, c := range cases {
		if _, err := NewPartition(c[0], c[1], c[2], c[3], c[4]); err == nil {
			t.Errorf("NewPartition(%v) should fail", c)
		}
	}
}

func TestSquareGrid(t *testing.T) {
	for _, c := range []struct{ nodes, want int }{{1, 1}, {4, 2}, {16, 4}, {64, 8}} {
		p, q, err := SquareGrid(c.nodes)
		if err != nil || p != c.want || q != c.want {
			t.Errorf("SquareGrid(%d) = %d,%d,%v want %d,%d", c.nodes, p, q, err, c.want, c.want)
		}
	}
	if _, _, err := SquareGrid(12); err == nil {
		t.Error("SquareGrid(12) should fail")
	}
}

func TestTileDimsCoverGridExactly(t *testing.T) {
	// Property: tile extents along each dimension sum to N, even when the
	// tile size does not divide N.
	f := func(n16, ts8 uint8) bool {
		n := int(n16)%200 + 1
		ts := int(ts8)%n + 1
		pt, err := NewPartition(n, ts, ts, 1, 1)
		if err != nil {
			return false
		}
		sumR := 0
		for ti := 0; ti < pt.TR; ti++ {
			r, _ := pt.TileDims(ti, 0)
			sumR += r
		}
		sumC := 0
		for tj := 0; tj < pt.TC; tj++ {
			_, c := pt.TileDims(0, tj)
			sumC += c
		}
		return sumR == n && sumC == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTileOrigin(t *testing.T) {
	pt := mustPartition(t, 100, 30, 40, 1, 1)
	r0, c0 := pt.TileOrigin(3, 2)
	if r0 != 90 || c0 != 80 {
		t.Errorf("TileOrigin(3,2) = %d,%d want 90,80", r0, c0)
	}
	r, c := pt.TileDims(3, 2)
	if r != 10 || c != 20 {
		t.Errorf("edge tile dims = %dx%d, want 10x20", r, c)
	}
}

func TestLocalTilesPartitionTheGrid(t *testing.T) {
	// Every tile must be owned by exactly one node, and each node's tiles
	// must form one contiguous block.
	for _, cfg := range [][4]int{
		{23, 3, 2, 2}, // ragged tiles, 2x2 nodes
		{64, 8, 2, 2},
		{100, 7, 3, 5}, // rectangular process grid
		{16, 1, 4, 4},  // one tile per node
	} {
		pt := mustPartition(t, cfg[0], cfg[1], cfg[1], cfg[2], cfg[3])
		counts := ownerCounts(pt)
		lo := make([][2]int, pt.Nodes())
		hi := make([][2]int, pt.Nodes())
		for rank := range lo {
			lo[rank] = [2]int{pt.TR, pt.TC}
			hi[rank] = [2]int{-1, -1}
		}
		for ti := 0; ti < pt.TR; ti++ {
			for tj := 0; tj < pt.TC; tj++ {
				rank := pt.Owner(ti, tj)
				lo[rank] = [2]int{min(lo[rank][0], ti), min(lo[rank][1], tj)}
				hi[rank] = [2]int{max(hi[rank][0], ti), max(hi[rank][1], tj)}
			}
		}
		total := 0
		for rank, n := range counts {
			total += n
			if box := (hi[rank][0] - lo[rank][0] + 1) * (hi[rank][1] - lo[rank][1] + 1); n != box {
				t.Fatalf("%v: rank %d owns %d tiles spread over a %d-tile box", cfg, rank, n, box)
			}
		}
		if total != pt.Tiles() {
			t.Fatalf("%v: %d tiles owned, want %d", cfg, total, pt.Tiles())
		}
	}
}

// ownerCounts counts the tiles Owner assigns to each node; it panics on an
// owner out of range.
func ownerCounts(pt *Partition) []int {
	counts := make([]int, pt.Nodes())
	for ti := 0; ti < pt.TR; ti++ {
		for tj := 0; tj < pt.TC; tj++ {
			counts[pt.Owner(ti, tj)]++
		}
	}
	return counts
}

func TestBlockDistributionBalance(t *testing.T) {
	// Block sizes along a dimension differ by at most one tile.
	pt := mustPartition(t, 23, 3, 4, 4, 1) // 8 tile-rows over 4 procs
	counts := ownerCounts(pt)
	lo, hi := pt.Tiles(), 0
	for _, c := range counts {
		lo, hi = min(lo, c), max(hi, c)
	}
	if hi-lo > pt.TC { // one tile-row of imbalance at most
		t.Errorf("tile counts too imbalanced: min %d max %d", lo, hi)
	}
}

func TestNeighborAtBoundary(t *testing.T) {
	pt := mustPartition(t, 40, 10, 10, 2, 2)
	if _, _, ok := pt.Neighbor(0, 0, North); ok {
		t.Error("tile (0,0) must have no north neighbor")
	}
	if ni, nj, ok := pt.Neighbor(0, 0, SouthEast); !ok || ni != 1 || nj != 1 {
		t.Errorf("SE neighbor of (0,0) = %d,%d,%v", ni, nj, ok)
	}
}

func TestRemoteNeighborsAndBoundary(t *testing.T) {
	// 4x4 tiles over 2x2 nodes: each node owns a 2x2 block of tiles.
	pt := mustPartition(t, 40, 10, 10, 2, 2)
	if pt.IsNodeBoundary(0, 0) {
		t.Error("(0,0) touches only global boundary and local tiles")
	}
	if !pt.IsNodeBoundary(1, 1) {
		t.Error("(1,1) borders node cuts in both directions")
	}
	rem := pt.RemoteNeighbors(1, 1, true)
	want := map[Dir]bool{South: true, East: true, NorthEast: true, SouthWest: true, SouthEast: true}
	if len(rem) != len(want) {
		t.Fatalf("RemoteNeighbors(1,1) = %v, want S,E,NE,SW,SE", rem)
	}
	for _, d := range rem {
		if !want[d] {
			t.Errorf("unexpected remote dir %v", d)
		}
	}
	cardOnly := pt.RemoteNeighbors(1, 1, false)
	if len(cardOnly) != 2 {
		t.Errorf("cardinal remote neighbors = %v, want S,E", cardOnly)
	}
}

func TestNodeCoordsRoundTrip(t *testing.T) {
	pt := mustPartition(t, 100, 10, 10, 3, 2)
	for rank := 0; rank < pt.Nodes(); rank++ {
		pi, pj := pt.NodeCoords(rank)
		if pi*pt.Q+pj != rank {
			t.Errorf("rank %d -> (%d,%d) does not round-trip", rank, pi, pj)
		}
	}
}
