package core

import (
	"encoding/binary"
	"fmt"
	"math"
	goruntime "runtime"
	"testing"

	"castencil/internal/grid"
	"castencil/internal/netcomm"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
)

// allocAllowance is what a pooled solve may allocate beside its answer: the
// per-run tile states and node stores, which the caller keeps with the
// Result, and small change. The CA shape below uses about 690 KiB of it and
// the mesh about 250 KiB. Rebuilding the executor's arrays every run would
// add about 220 KiB to the first and 720 KiB to the second; staging the
// tiles gather in blobs again would add 4 MiB to the second.
const allocAllowance = 768 << 10

// TestSolveAllocatesOnlyItsAnswer bounds what a repeated solve of one shape
// allocates, after two warm-ups, at the answer's N²·8 bytes plus
// allocAllowance: the graph and the executor's per-run arrays come from the
// graph pool, the tile buffers from the arena, and the distributed gather
// streams the tiles into rank 0's grid without a staging copy. On the mesh
// both ranks run in this process, so both ranks' allocations count.
func TestSolveAllocatesOnlyItsAnswer(t *testing.T) {
	const solves = 4
	measure := func(solve func()) float64 {
		solve()
		solve()
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		for range solves {
			solve()
		}
		goruntime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / solves
	}
	check := func(name string, n int, per float64) {
		t.Helper()
		answer := float64(8 * n * n)
		t.Logf("%s: %.0f B per solve, answer %.0f B, rest %.0f B", name, per, answer, per-answer)
		if per > answer+allocAllowance {
			t.Errorf("%s: %.0f B per solve, more than the %.0f B answer plus %d B", name, per, answer, allocAllowance)
		}
	}

	ca := Config{N: 512, TileRows: 16, P: 2, Steps: 48, StepSize: 4}
	check("in process, CA", ca.N, measure(func() {
		if _, err := RunReal(CA, ca, runtime.Options{Workers: 1, Coalesce: ptg.CoalesceStep}); err != nil {
			t.Fatal(err)
		}
	}))

	ts := connectMesh(t, 2)
	base := Config{N: 512, TileRows: 32, P: 2, Steps: 100}
	check("2-rank mesh, Base", base.N, measure(func() {
		runMesh(t, Base, base, runtime.Options{Workers: 1}, ts)
	}))
}

// TestDistributedGatherUnderSmallMaxFrame runs the 2-rank Base solve whose
// tiles once travelled as one frame per rank on meshes whose frame limit is
// below that frame's size: at 1 MiB every 32x32 tile is one record, at 4 KiB
// every tile is split into runs of rows. Both must give rank 0 the
// single-process grid bitwise.
func TestDistributedGatherUnderSmallMaxFrame(t *testing.T) {
	cfg := Config{N: 512, TileRows: 32, P: 2, Steps: 4}
	single, err := RunReal(Base, cfg, runtime.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, maxFrame := range []int{1 << 20, 4 << 10} {
		ts := connectMeshWith(t, 2, func(o *netcomm.Options) { o.MaxFrame = maxFrame })
		res := runMesh(t, Base, cfg, runtime.Options{Workers: 1}, ts)
		assertGridsBitwiseEqual(t, fmt.Sprintf("MaxFrame %d", maxFrame), res[0].Grid, single.Grid)
		if res[1].Grid != nil {
			t.Errorf("MaxFrame %d: rank 1 returned a grid", maxFrame)
		}
	}
}

// sinkPartition is FuzzTileSink's partition: 3x3 ragged tiles (8, 8 and 4
// wide) on 2x2 nodes over 3 ranks, which deals node 0 to rank 0, node 1 to
// rank 1 and nodes 2 and 3 to rank 2.
func sinkPartition(t testing.TB) *grid.Partition {
	p, err := Config{N: 20, TileRows: 8, P: 2, Steps: 1}.withDefaults().Validate(Base)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const sinkRanks = 3

// A sink stream is a sequence of entries [u8 from-1] [u16 len] [record]:
// one record from rank 1 or 2 each.

// appendRecord appends the entry of a record from rank from carrying rows
// [r0, r0+h) of tile (ti, tj) at cols values each.
func appendRecord(dst []byte, from, ti, tj, r0, h, cols int) []byte {
	rec := make([]byte, tileRecHdr+8*h*cols)
	le := binary.LittleEndian
	le.PutUint32(rec, uint32(ti))
	le.PutUint32(rec[4:], uint32(tj))
	le.PutUint32(rec[8:], uint32(r0))
	le.PutUint32(rec[12:], uint32(h))
	for i := tileRecHdr; i < len(rec); i += 8 {
		le.PutUint64(rec[i:], math.Float64bits(float64(ti*1000+tj*100+r0*10+i)))
	}
	dst = append(dst, byte(from-1))
	dst = le.AppendUint16(dst, uint16(len(rec)))
	return append(dst, rec...)
}

// completeStream is every tile of ranks 1 and 2 in records of up to step
// rows, from its owner; edit, when not nil, may replace the entries of a
// tile.
func completeStream(p *grid.Partition, step int, edit func(ti, tj, from, rows, cols int, dst []byte) ([]byte, bool)) []byte {
	var out []byte
	for ti := 0; ti < p.TR; ti++ {
		for tj := 0; tj < p.TC; tj++ {
			from := runtime.RankOfNode(p.Owner(ti, tj), p.Nodes(), sinkRanks)
			if from == 0 {
				continue
			}
			rows, cols := p.TileDims(ti, tj)
			if edit != nil {
				var done bool
				if out, done = edit(ti, tj, from, rows, cols, out); done {
					continue
				}
			}
			for r := 0; r < rows; r += step {
				out = appendRecord(out, from, ti, tj, r, min(step, rows-r), cols)
			}
		}
	}
	return out
}

// sinkRow names one row of one tile.
type sinkRow struct{ ti, tj, r int }

// feedSink feeds a sink stream to a fresh tileSink over a grid whose every
// value is unset. It reports whether the sink accepted every record and
// then complete, and how often each row arrived in an accepted record. An
// accepted record from a rank that does not own its tile fails t.
func feedSink(t *testing.T, p *grid.Partition, stream []byte, unset float64) (*grid.Tile, map[sinkRow]int, bool) {
	out := grid.NewTile(p.N, p.N, 0)
	for r := 0; r < p.N; r++ {
		for c := 0; c < p.N; c++ {
			out.Set(r, c, unset)
		}
	}
	sink := newTileSink(p, out, sinkRanks)
	seen := map[sinkRow]int{}
	le := binary.LittleEndian
	for len(stream) >= 3 {
		from := 1 + int(stream[0]%2)
		n := min(int(le.Uint16(stream[1:])), len(stream)-3)
		rec := stream[3 : 3+n]
		stream = stream[3+n:]
		if sink.recv(from, rec) != nil {
			return out, seen, false
		}
		ti, tj := int(le.Uint32(rec)), int(le.Uint32(rec[4:]))
		if owner := runtime.RankOfNode(p.Owner(ti, tj), p.Nodes(), sinkRanks); owner != from {
			t.Fatalf("accepted tile (%d,%d) of rank %d from rank %d", ti, tj, owner, from)
		}
		r0, h := int(le.Uint32(rec[8:])), int(le.Uint32(rec[12:]))
		for r := r0; r < r0+h; r++ {
			seen[sinkRow{ti, tj, r}]++
		}
	}
	return out, seen, len(stream) == 0 && sink.complete() == nil
}

// sinkCases are streams a peer could send: the exact ones and a near miss
// of each kind the sink must refuse.
func sinkCases(p *grid.Partition) []struct {
	name  string
	exact bool
	s     []byte
} {
	first := func(edit func(ti, tj, from, rows, cols int, dst []byte) []byte) func(int, int, int, int, int, []byte) ([]byte, bool) {
		done := false
		return func(ti, tj, from, rows, cols int, dst []byte) ([]byte, bool) {
			if done || rows != 8 {
				return dst, false
			}
			done = true
			return edit(ti, tj, from, rows, cols, dst), true
		}
	}
	whole := completeStream(p, 8, nil)
	return []struct {
		name  string
		exact bool
		s     []byte
	}{
		{"whole tiles", true, whole},
		{"runs of 3 rows", true, completeStream(p, 3, nil)},
		{"last record cut short", false, whole[:len(whole)-1]},
		{"a tile twice", false, completeStream(p, 8, first(func(ti, tj, from, rows, cols int, dst []byte) []byte {
			dst = appendRecord(dst, from, ti, tj, 0, rows, cols)
			return appendRecord(dst, from, ti, tj, 0, rows, cols)
		}))},
		{"first half twice, second half never", false, completeStream(p, 8, first(func(ti, tj, from, rows, cols int, dst []byte) []byte {
			dst = appendRecord(dst, from, ti, tj, 0, rows/2, cols)
			return appendRecord(dst, from, ti, tj, 0, rows/2, cols)
		}))},
		{"halves swapped", false, completeStream(p, 8, first(func(ti, tj, from, rows, cols int, dst []byte) []byte {
			dst = appendRecord(dst, from, ti, tj, rows/2, rows/2, cols)
			return appendRecord(dst, from, ti, tj, 0, rows/2, cols)
		}))},
		{"a tile from the other peer", false, completeStream(p, 8, first(func(ti, tj, from, rows, cols int, dst []byte) []byte {
			return appendRecord(dst, 3-from, ti, tj, 0, rows, cols)
		}))},
		{"a tile left out", false, completeStream(p, 8, first(func(_, _, _, _, _ int, dst []byte) []byte { return dst }))},
		{"a tile one column short", false, completeStream(p, 8, first(func(ti, tj, from, rows, cols int, dst []byte) []byte {
			return appendRecord(dst, from, ti, tj, 0, rows, cols-1)
		}))},
		{"a tile one column long", false, completeStream(p, 8, first(func(ti, tj, from, rows, cols int, dst []byte) []byte {
			return appendRecord(dst, from, ti, tj, 0, rows, cols+1)
		}))},
		{"rank 0's tile", false, append(appendRecord(nil, 1, 0, 0, 0, 8, 8), whole...)},
		{"a tile outside the partition", false, append(appendRecord(nil, 2, 3, 0, 0, 8, 8), whole...)},
	}
}

// checkExact fails t unless the accepted stream wrote every row of every
// tile of ranks 1 and 2 exactly once and nothing of rank 0's.
func checkExact(t *testing.T, p *grid.Partition, out *grid.Tile, seen map[sinkRow]int, unset float64) {
	t.Helper()
	for ti := 0; ti < p.TR; ti++ {
		for tj := 0; tj < p.TC; tj++ {
			peer := runtime.RankOfNode(p.Owner(ti, tj), p.Nodes(), sinkRanks) != 0
			rows, cols := p.TileDims(ti, tj)
			gr, gc := p.TileOrigin(ti, tj)
			for r := 0; r < rows; r++ {
				if n := seen[sinkRow{ti, tj, r}]; peer && n != 1 || !peer && n != 0 {
					t.Fatalf("accepted a stream that sent row %d of tile (%d,%d) %d times", r, ti, tj, n)
				}
				for c := 0; c < cols; c++ {
					if v := out.At(gr+r, gc+c); (v == unset) == peer {
						t.Fatalf("accepted a stream that left (%d,%d) of tile (%d,%d) at %v", r, c, ti, tj, v)
					}
				}
			}
		}
	}
}

// TestTileSinkAcceptsExactCoverage feeds rank 0's side of the tiles gather
// the streams of sinkCases: it must accept exactly the exact ones.
func TestTileSinkAcceptsExactCoverage(t *testing.T) {
	p := sinkPartition(t)
	const unset = -1.5
	for _, tc := range sinkCases(p) {
		out, seen, ok := feedSink(t, p, tc.s, unset)
		if ok != tc.exact {
			t.Errorf("%s: accepted = %v, want %v", tc.name, ok, tc.exact)
			continue
		}
		if ok {
			checkExact(t, p, out, seen, unset)
		}
	}
}

// FuzzTileSink feeds rank 0's side of the tiles gather any stream of
// records from ranks 1 and 2, as a peer could send them. The sink must
// never panic, and it may accept a stream only if the stream covered every
// row of every tile of ranks 1 and 2 exactly once, each from its owner, and
// touched no tile of rank 0.
func FuzzTileSink(f *testing.F) {
	p := sinkPartition(f)
	for _, tc := range sinkCases(p) {
		f.Add(tc.s)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		const unset = -1.5
		if out, seen, ok := feedSink(t, p, stream, unset); ok {
			checkExact(t, p, out, seen, unset)
		}
	})
}
