package core

import (
	"fmt"
	"math/rand"
	"testing"

	"castencil/internal/grid"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
	"castencil/internal/stencil"
)

func TestWFSingleNodeMatchesReference(t *testing.T) {
	assertMatchesReference(t, WF, Config{N: 24, TileRows: 6, P: 1, Steps: 12, Wavefront: 4}, 3)
}

func TestWFMultiNodeMatchesReference(t *testing.T) {
	assertMatchesReference(t, WF, Config{N: 24, TileRows: 6, P: 2, Steps: 12, Wavefront: 4}, 2)
}

func TestWFWidthSweepMatchesReference(t *testing.T) {
	// Includes widths that do not divide the step count (truncated final
	// block), w == 1 (degenerate: a block per step) and w == tile dim.
	for _, w := range []int{1, 2, 3, 5, 6} {
		cfg := Config{N: 24, TileRows: 6, P: 2, Steps: 11, Wavefront: w}
		assertMatchesReference(t, WF, cfg, 2)
	}
}

func TestWFRaggedTilesMatchReference(t *testing.T) {
	// 25 does not divide by 6: edge tiles are 1 wide, which caps the
	// feasible width at 1.
	assertMatchesReference(t, WF, Config{N: 25, TileRows: 6, P: 2, Steps: 7, Wavefront: 1}, 2)
}

func TestWFRectangularTilesAndGrid(t *testing.T) {
	assertMatchesReference(t, WF, Config{N: 24, TileRows: 4, TileCols: 8, P: 3, Q: 2, Steps: 10, Wavefront: 3}, 2)
}

func TestWFWithHeatWeightsAndBoundary(t *testing.T) {
	cfg := Config{
		N: 20, TileRows: 5, P: 2, Steps: 9, Wavefront: 4,
		Weights:  stencil.Heat(0.2),
		Boundary: func(gr, gc int) float64 { return float64(gr - gc) },
		Init:     stencil.HashInit(99),
	}
	assertMatchesReference(t, WF, cfg, 2)
}

func TestWFEqualsBaseBitwise(t *testing.T) {
	cfg := Config{N: 24, TileRows: 4, P: 2, Steps: 10, Wavefront: 3}
	base, err := RunReal(Base, cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := RunReal(WF, cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !grid.InteriorEqual(base.Grid, wf.Grid) {
		t.Fatal("base and WF results differ")
	}
}

func TestWFNinePointMatchesOracle(t *testing.T) {
	assertMatches9(t, WF, Config{N: 24, TileRows: 6, P: 2, Steps: 10, Wavefront: 4}, 2)
}

func TestWFNinePointWidthOne(t *testing.T) {
	// Width 1 degenerates to per-step exchange, but the nine-point kernel
	// still needs the 1x1 corner flows every block.
	assertMatches9(t, WF, Config{N: 20, TileRows: 5, P: 2, Steps: 7, Wavefront: 1}, 2)
}

func TestWFRandomizedEquivalence(t *testing.T) {
	// Property-style sweep: random geometry, the wavefront pipeline must
	// reproduce the oracle bitwise whenever the width is feasible.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 6; trial++ {
		n := rng.Intn(20) + 12
		tile := rng.Intn(4) + 4
		p := rng.Intn(2) + 1
		q := rng.Intn(2) + 1
		steps := rng.Intn(8) + 3
		w := rng.Intn(4) + 1
		cfg := Config{
			N: n, TileRows: tile, P: p, Q: q, Steps: steps, Wavefront: w,
			Init: stencil.HashInit(uint64(trial)),
		}
		part, err := cfg.Partition()
		if err != nil || part.TR < p || part.TC < q || w > part.MinTileDim() {
			continue
		}
		assertMatchesReference(t, WF, cfg, 2)
	}
}

// TestWFSchedulerDeterminism extends the cross-scheduler determinism suite
// to the wavefront pipeline: every policy at 1, 2 and 4 workers per node,
// with halo coalescing off and on, must reproduce the single-worker FIFO
// point-to-point run bitwise, at two widths and two grid shapes.
func TestWFSchedulerDeterminism(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"w3", Config{N: 24, TileRows: 6, P: 2, Steps: 9, Wavefront: 3}},
		{"w5-rect", Config{N: 30, TileRows: 5, TileCols: 10, P: 3, Q: 2, Steps: 10, Wavefront: 5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := runSched(t, WF, c.cfg, "fifo", 1)
			for _, coal := range []ptg.CoalesceMode{ptg.CoalesceOff, ptg.CoalesceStep} {
				for _, sched := range schedVariants() {
					for _, workers := range []int{1, 2, 4} {
						if sched == "fifo" && workers == 1 && coal == ptg.CoalesceOff {
							continue // that is the reference itself
						}
						label := fmt.Sprintf("%s w=%d coalesce=%v", sched, workers, coal)
						got := runSchedCoalesce(t, WF, c.cfg, sched, workers, coal)
						assertGridsBitwiseEqual(t, label, ref.Grid, got.Grid)
					}
				}
			}
		})
	}
}

// TestWFMessageReduction pins the communication-avoidance acceptance
// criterion. WF trades message granularity (diagonal tile flows appear, so
// raw point-to-point counts drop by less than w), but at the wire level the
// story is exact: exchanges happen on block epochs only, so with coalescing
// — one bundle per ordered node pair per epoch — the wavefront run sends
// exactly w-fold fewer wire messages than base on a node grid with no
// diagonal node adjacencies.
func TestWFMessageReduction(t *testing.T) {
	cfg := Config{N: 64, TileRows: 8, P: 2, Q: 1, Steps: 12, Wavefront: 4}
	_, baseEpochs, baseDeps := crossTraffic(t, Base, cfg)
	_, wfEpochs, wfDeps := crossTraffic(t, WF, cfg)
	blocks := (cfg.Steps + cfg.Wavefront - 1) / cfg.Wavefront
	if wfEpochs != blocks {
		t.Errorf("WF graph exchanges on %d epochs, want %d blocks", wfEpochs, blocks)
	}
	if baseEpochs != cfg.Steps {
		t.Errorf("base graph exchanges on %d epochs, want %d steps", baseEpochs, cfg.Steps)
	}
	if wfDeps >= baseDeps {
		t.Errorf("WF carries %d cross deps, base %d: want a reduction", wfDeps, baseDeps)
	}
	base, err := RunReal(Base, cfg, runtime.Options{Workers: 2, Coalesce: ptg.CoalesceStep})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := RunReal(WF, cfg, runtime.Options{Workers: 2, Coalesce: ptg.CoalesceStep})
	if err != nil {
		t.Fatal(err)
	}
	if base.Exec.BundlesSent != wf.Exec.BundlesSent*cfg.Wavefront {
		t.Errorf("coalesced wire messages: base %d, WF %d: want exactly %dx fewer",
			base.Exec.BundlesSent, wf.Exec.BundlesSent, cfg.Wavefront)
	}
}

// TestWFSimMatchesReal checks the virtual-time engine accounts the same wire
// traffic as the real runtime for the wavefront pipeline — point-to-point
// and coalesced — so simulated crossover studies transfer to real runs.
func TestWFSimMatchesReal(t *testing.T) {
	cfg := Config{N: 64, TileRows: 8, P: 2, Steps: 12, Wavefront: 4}
	for _, coal := range []ptg.CoalesceMode{ptg.CoalesceOff, ptg.CoalesceStep} {
		real, err := RunReal(WF, cfg, runtime.Options{Workers: 2, Coalesce: coal})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Simulate(WF, cfg, SimOptions{Machine: machineForTest(), Coalesce: coal})
		if err != nil {
			t.Fatal(err)
		}
		if sim.Messages != real.Exec.Messages || sim.Bundles != real.Exec.BundlesSent ||
			sim.Segments != real.Exec.BundleSegments {
			t.Errorf("coalesce=%v: sim traffic (%d msgs, %d bundles, %d segments) != real (%d, %d, %d)",
				coal, sim.Messages, sim.Bundles, sim.Segments,
				real.Exec.Messages, real.Exec.BundlesSent, real.Exec.BundleSegments)
		}
		if sim.BytesSent != real.Exec.BytesSent {
			t.Errorf("coalesce=%v: sim bytes %d != real bytes %d", coal, sim.BytesSent, real.Exec.BytesSent)
		}
	}
}

// TestWFCoalesceBundlesPerBlock checks coalescing collapses the wavefront
// exchange to at most one wire message per ordered neighbor pair per block.
func TestWFCoalesceBundlesPerBlock(t *testing.T) {
	cfg := Config{N: 64, TileRows: 8, P: 2, Steps: 12, Wavefront: 4}
	off, err := RunReal(WF, cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunReal(WF, cfg, runtime.Options{Workers: 2, Coalesce: ptg.CoalesceStep})
	if err != nil {
		t.Fatal(err)
	}
	assertGridsBitwiseEqual(t, "wf coalesce=step", off.Grid, st.Grid)
	if st.Exec.Messages != st.Exec.BundlesSent {
		t.Errorf("step mode sent %d messages but %d bundles", st.Exec.Messages, st.Exec.BundlesSent)
	}
	if st.Exec.BundleSegments != off.Exec.Messages {
		t.Errorf("bundles carried %d transfers, point-to-point sent %d", st.Exec.BundleSegments, off.Exec.Messages)
	}
	pairs, epochs, _ := crossTraffic(t, WF, cfg)
	if max := pairs * epochs; st.Exec.BundlesSent > max {
		t.Errorf("step mode sent %d bundles, want <= %d (%d pairs x %d block epochs)",
			st.Exec.BundlesSent, max, pairs, epochs)
	}
}

// TestWFHaloRoundTripZeroAlloc pins the steady-state wavefront halo path at
// zero heap allocations: a w-deep edge payload and a w x w corner payload
// each walk the pooled-buffer/slot/in-place-unpack chain without allocating.
func TestWFHaloRoundTripZeroAlloc(t *testing.T) {
	const w = 8
	rng := rand.New(rand.NewSource(6))
	src := randomHaloTile(rng, 64, w)
	dst := grid.NewTile(64, 64, w)
	producer := runtime.NewStoreWithSlots(0, 1)
	consumer := runtime.NewStoreWithSlots(0, 1)
	for _, tc := range []struct {
		name string
		d    grid.Dir
	}{
		{"edge", grid.North},
		{"corner", grid.NorthWest},
	} {
		sendRc := src.SendRect(tc.d, w)
		recvRc := dst.RecvRect(tc.d.Opposite(), w)
		runtime.PutBuf(runtime.GetBuf(sendRc.Bytes())) // warm the arena
		hop := func() {
			buf := src.PackBytes(sendRc, runtime.GetBuf(sendRc.Bytes()))
			producer.PutBufSlot(0, buf)
			wire := producer.TakeBufSlot(0)
			consumer.PutBufSlot(0, wire)
			got := consumer.TakeBufSlot(0)
			dst.UnpackBytes(recvRc, got)
			runtime.PutBuf(got)
		}
		if n := testing.AllocsPerRun(50, hop); n != 0 {
			t.Errorf("%s: steady-state w-deep round trip: %v allocs per run, want 0", tc.name, n)
		}
	}
}

// TestWFRunLeavesNoLeftoverBuffers checks a full wavefront run returns every
// pooled wire buffer to the arena: the slot rings drain completely.
func TestWFRunLeavesNoLeftoverBuffers(t *testing.T) {
	cfg := Config{N: 32, TileRows: 8, P: 2, Steps: 8, Wavefront: 4}
	res, err := RunReal(WF, cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := LeftoverBuffers(res.Exec.Stores); n != 0 {
		t.Errorf("%d wire buffers left in slots after the run, want 0", n)
	}
}

func TestWFValidation(t *testing.T) {
	// Width exceeding the smallest tile dimension is infeasible: the w-deep
	// ghost region cannot be packed out of a shallower neighbor interior.
	cfg := Config{N: 24, TileRows: 6, P: 2, Steps: 10, Wavefront: 7}
	if _, err := BuildGraph(WF, cfg); err == nil {
		t.Error("Wavefront 7 on 6x6 tiles: want feasibility error, got nil")
	}
	// Ragged edge tiles count: 25 = 4x6+1 leaves 1-wide tiles.
	cfg = Config{N: 25, TileRows: 6, P: 2, Steps: 10, Wavefront: 2}
	if _, err := BuildGraph(WF, cfg); err == nil {
		t.Error("Wavefront 2 on 1-wide ragged tiles: want feasibility error, got nil")
	}
	cfg = Config{N: 24, TileRows: 6, P: 2, Steps: 10, Wavefront: -1}
	if _, err := BuildGraph(WF, cfg); err == nil {
		t.Error("negative Wavefront: want error, got nil")
	}
}

// TestWFTaskCount pins the graph shape: one init plus ceil(Steps/w) compute
// tasks per tile — the w-fold task reduction that, with the matching message
// reduction, is the wavefront variant's whole performance argument.
func TestWFTaskCount(t *testing.T) {
	cfg := Config{N: 24, TileRows: 6, P: 2, Steps: 11, Wavefront: 4}
	g, err := BuildGraph(WF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := cfg.Partition()
	blocks := 3 // ceil(11/4)
	if want := part.Tiles() * (blocks + 1); len(g.Tasks) != want {
		t.Errorf("WF graph has %d tasks, want %d (%d tiles x (1 init + %d blocks))",
			len(g.Tasks), want, part.Tiles(), blocks)
	}
}
