package core

import (
	"fmt"
	"math"
	goruntime "runtime"
	"testing"

	"castencil/internal/fault"
	"castencil/internal/grid"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
	"castencil/internal/stencil"
)

// oracle runs the sequential reference matching cfg's stencil.
func oracle(t *testing.T, cfg Config) interface{ At(r, c int) float64 } {
	t.Helper()
	full := cfg.withDefaults()
	if full.NinePoint {
		ref := stencil.NewReference9(full.N, full.Weights9, full.Init, full.Boundary)
		ref.Run(full.Steps)
		return ref
	}
	return referenceFor(t, full)
}

// assertOracleBitwise checks a gathered grid against the oracle bit for bit.
func assertOracleBitwise(t *testing.T, label string, want interface{ At(r, c int) float64 }, got *grid.Tile) {
	t.Helper()
	for r := 0; r < got.Rows; r++ {
		for c := 0; c < got.Cols; c++ {
			if g, w := got.At(r, c), want.At(r, c); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: (%d,%d) = %v, want %v (bitwise)", label, r, c, g, w)
			}
		}
	}
}

// poisonArena makes every tile buffer handed out NaN-filled, and every
// parked halo buffer 0xFF-filled (a NaN bit pattern) before it is repacked,
// until the test ends.
func poisonArena(t *testing.T) {
	poisonTiles = true
	t.Cleanup(func() { poisonTiles = false })
}

// TestPoisonedArena is the proof that reused tile storage and repacked halo
// buffers need no clearing: with every tile buffer NaN-filled when handed
// out and every parked halo buffer poisoned before it is repacked, each
// configuration runs twice — the second run on the first run's recycled
// buffers — and both must equal the sequential oracle bitwise and leave no
// payload in a slot. A kernel reading a ghost cell no init, boundary fill or
// halo unpack wrote, or a pack writing less than its halo, would carry a
// NaN into the grid. The rectangular tiles' north/south and east/west halos
// differ in size, and on the 16x10 tiles packs also pick parked buffers of
// other directions.
func TestPoisonedArena(t *testing.T) {
	poisonArena(t)
	type run struct {
		name string
		v    Variant
		cfg  Config
		opts runtime.Options
	}
	var runs []run
	for _, nine := range []bool{false, true} {
		cfg := Config{N: 40, TileRows: 8, P: 2, Steps: 9, NinePoint: nine}
		ca := func(s int) Config { c := cfg; c.StepSize = s; return c }
		wf := cfg
		wf.Wavefront = 4
		for _, c := range []run{
			{name: "base", v: Base, cfg: cfg},
			{name: "ca/s1", v: CA, cfg: ca(1)},
			{name: "ca/s4", v: CA, cfg: ca(4)},
			{name: "wf/w4", v: WF, cfg: wf},
		} {
			c.name = fmt.Sprintf("%s/nine=%v", c.name, nine)
			runs = append(runs, c)
		}
	}
	ragged := Config{N: 26, TileRows: 4, P: 3, Q: 2, Steps: 9, StepSize: 2}
	runs = append(runs, run{name: "ragged/base", v: Base, cfg: ragged}, run{name: "ragged/ca", v: CA, cfg: ragged})
	rect := Config{N: 40, TileRows: 8, TileCols: 5, P: 2, Steps: 9, StepSize: 4}
	runs = append(runs, run{name: "rect/base", v: Base, cfg: rect}, run{name: "rect/ca", v: CA, cfg: rect})
	// At 16 rows a one-deep east/west halo is as large as a 4x4 corner, so
	// an interior tile packs the corners it owes its diagonal boundary
	// neighbors at a phase start into the east/west buffers it unpacked.
	tall := Config{N: 64, TileRows: 16, TileCols: 10, P: 2, Steps: 9, StepSize: 4}
	runs = append(runs, run{name: "rect16x10/ca", v: CA, cfg: tall})
	// Bundle wire buffers, the reliable transport's retained originals and
	// its duplicate and retransmit copies all cycle through the arena too.
	faulty := &fault.Plan{Seed: 7, Drop: 0.05, Dup: 0.05, Delay: 0.05}
	caS4 := Config{N: 40, TileRows: 8, P: 2, Steps: 9, StepSize: 4}
	runs = append(runs,
		run{name: "coalesce/ca", v: CA, cfg: caS4, opts: runtime.Options{Coalesce: ptg.CoalesceStep}},
		run{name: "coalesce/ca/faults", v: CA, cfg: caS4, opts: runtime.Options{Coalesce: ptg.CoalesceStep, Fault: faulty}},
		run{name: "p2p/ca/faults", v: CA, cfg: caS4, opts: runtime.Options{Fault: faulty}})
	for _, c := range runs {
		t.Run(c.name, func(t *testing.T) {
			want := oracle(t, c.cfg)
			opts := c.opts
			opts.Workers = 2
			for i := 1; i <= 2; i++ {
				res, err := RunReal(c.v, c.cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				assertOracleBitwise(t, fmt.Sprintf("run %d", i), want, res.Grid)
				if n := LeftoverBuffers(res.Exec.Stores); n != 0 {
					t.Errorf("run %d: %d halo payloads left in slots", i, n)
				}
				if c.opts.Coalesce != ptg.CoalesceOff && res.Exec.BundlesSent == 0 {
					t.Errorf("run %d: no bundle sent", i)
				}
				if st := res.Exec.Fault; c.opts.Fault != nil && (st.Dropped == 0 || st.Duplicated == 0 || st.Retransmits == 0) {
					t.Errorf("run %d: fault stats %+v, want drops, duplicates and retransmits", i, st)
				}
			}
		})
	}
	t.Run("distributed", func(t *testing.T) {
		cfg := skewedShape()
		ts := connectMesh(t, 2)
		opts := runtime.Options{Workers: 1}
		want := oracle(t, cfg)
		for i := 1; i <= 2; i++ {
			dist := runMesh(t, WF, cfg, opts, ts)
			assertOracleBitwise(t, fmt.Sprintf("run %d", i), want, dist[0].Grid)
			for r, res := range dist {
				if n := LeftoverBuffers(res.Exec.Stores); n != 0 {
					t.Errorf("run %d, rank %d: %d halo payloads left in slots", i, r, n)
				}
			}
		}
	})
}

// allocBytes returns the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	f()
	goruntime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestRunReusesTileStores gates the tile arena and the graph pool: once a
// first run has returned its tile stores and its graph, a second run of the
// same shape allocates its gathered answer and, beyond it, under 5% of its
// tile pairs' bytes; and it allocates no graph: no more than a tenth of a
// graph's bytes over a run of a graph built beforehand, which allocates the
// answer and the executor's state too.
func TestRunReusesTileStores(t *testing.T) {
	cfg := Config{N: 256, TileRows: 64, P: 2, Steps: 4}
	opts := runtime.Options{Workers: 1}
	solve := func() {
		if _, err := RunReal(Base, cfg, opts); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	built := cfg
	built.WithBodies = true
	var g *ptg.Graph
	graph := allocBytes(func() {
		var err error
		if g, err = BuildGraph(Base, built); err != nil {
			t.Fatal(err)
		}
	})
	part, _ := cfg.Partition()
	prebuilt := allocBytes(func() {
		res, err := runtime.Run(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Gather(part, res.Stores); err != nil {
			t.Fatal(err)
		}
		releaseTiles(part, res.Stores)
	})
	run := allocBytes(solve)
	tiles := 16 * 2 * 66 * 66 * 8 // 4 x 4 tiles of 64 x 64, one-deep ghosts
	answer := cfg.N * cfg.N * 8
	t.Logf("second run %d B: answer %d B; prebuilt graph's run %d B, graph %d B", run, answer, prebuilt, graph)
	if extra := int64(run) - int64(answer); 20*extra > int64(tiles) {
		t.Errorf("second run allocated %d B beyond its answer (%d B), want <= 5%% of the %d B of tile pairs",
			extra, answer, tiles)
	}
	if extra := int64(run) - int64(prebuilt); 10*extra > int64(graph) {
		t.Errorf("second run allocated %d B over a run of a prebuilt graph, want <= a tenth of the graph's %d B",
			extra, graph)
	}
}

// TestBuildBytesPerTask is the byte-count twin of TestBuildAllocsPerTask,
// on its shapes: what bodies add to a graph — per task its body closure, per
// cross-node edge its Pack/Unpack pair — may cost at most 48 B per added
// task. A body capturing its weights and update rectangle costs ~190 B.
// Each build is measured as its smallest of five, since the process-wide
// allocation counter also counts whatever the runtime allocates meanwhile.
func TestBuildBytesPerTask(t *testing.T) {
	for _, v := range []Variant{Base, CA} {
		build := func(steps int, bodies bool) (bytes float64, tasks int) {
			cfg := Config{N: 256, TileRows: 8, P: 2, Steps: steps, StepSize: 4, WithBodies: bodies}
			least := uint64(math.MaxUint64)
			for i := 0; i < 5; i++ {
				least = min(least, allocBytes(func() {
					g, err := BuildGraph(v, cfg)
					if err != nil {
						t.Fatal(err)
					}
					tasks = len(g.Tasks)
				}))
			}
			return float64(least), tasks
		}
		c1, n1 := build(4, false)
		c2, _ := build(12, false)
		b1, _ := build(4, true)
		b2, n2 := build(12, true)
		per := ((b2 - c2) - (b1 - c1)) / float64(n2-n1)
		if per > 48 {
			t.Errorf("%v: bodies cost %.1f B per added task (%.0f B over cost-only at %d tasks, %.0f B at %d), want <= 48",
				v, per, b1-c1, n1, b2-c2, n2)
		}
	}
}
