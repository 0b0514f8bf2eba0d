package core

import (
	"math"
	"math/rand"
	"testing"

	"castencil/internal/grid"
	"castencil/internal/runtime"
	"castencil/internal/stencil"
)

func randomHaloTile(rng *rand.Rand, n, halo int) *grid.Tile {
	t := grid.NewTile(n, n, halo)
	for r := -halo; r < n+halo; r++ {
		row := t.Row(r, -halo, n+2*halo)
		for c := range row {
			row[c] = rng.Float64()
		}
	}
	return t
}

// TestMessageRoundTripZeroAlloc walks one halo payload through the entire
// steady-state fast path — pooled buffer, row-wise byte serialization,
// producer slot, (in-process) wire, consumer slot, in-place deserialization,
// pool return — and pins it at zero heap allocations.
func TestMessageRoundTripZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := randomHaloTile(rng, 128, 1)
	dst := grid.NewTile(128, 128, 1)
	sendRc := src.SendRect(grid.North, 1)
	recvRc := dst.RecvRect(grid.South, 1)
	producer := runtime.NewStoreWithSlots(0, 1)
	consumer := runtime.NewStoreWithSlots(0, 1)
	runtime.PutBuf(runtime.GetBuf(sendRc.Bytes())) // warm the arena

	hop := func() {
		// Producer task body: pack into a pooled wire buffer, deposit.
		buf := src.PackBytes(sendRc, runtime.GetBuf(sendRc.Bytes()))
		producer.PutBufSlot(0, buf)
		// Sender comm: Dep.Pack drains the slot; the payload crosses the
		// wire unchanged; receiver comm: Dep.Unpack deposits it.
		wire := producer.TakeBufSlot(0)
		consumer.PutBufSlot(0, wire)
		// Consumer task body: unpack in place, recycle.
		got := consumer.TakeBufSlot(0)
		dst.UnpackBytes(recvRc, got)
		runtime.PutBuf(got)
	}
	if n := testing.AllocsPerRun(50, hop); n != 0 {
		t.Errorf("steady-state message round trip: %v allocs per run, want 0", n)
	}
	// The payload must have arrived bitwise intact.
	want := src.Pack(sendRc, nil)
	gotVals := dst.Pack(recvRc, nil)
	for i := range want {
		if want[i] != gotVals[i] {
			t.Fatalf("point %d: %v != %v", i, gotVals[i], want[i])
		}
	}
}

// BenchmarkMsgRoundTripZeroCopy measures one halo message hop through the
// slots.
func BenchmarkMsgRoundTripZeroCopy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := randomHaloTile(rng, 128, 1)
	dst := grid.NewTile(128, 128, 1)
	sendRc := src.SendRect(grid.North, 1)
	recvRc := dst.RecvRect(grid.South, 1)
	producer := runtime.NewStoreWithSlots(0, 1)
	consumer := runtime.NewStoreWithSlots(0, 1)
	b.SetBytes(int64(sendRc.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		producer.PutBufSlot(0, src.PackBytes(sendRc, runtime.GetBuf(sendRc.Bytes())))
		consumer.PutBufSlot(0, producer.TakeBufSlot(0))
		buf := consumer.TakeBufSlot(0)
		dst.UnpackBytes(recvRc, buf)
		runtime.PutBuf(buf)
	}
}

// benchSchedCases enumerates the executor benchmarks' worker counts: 2 and
// 4 workers per node.
func benchSchedCases() []struct {
	Name string
	Opts runtime.Options
} {
	return []struct {
		Name string
		Opts runtime.Options
	}{
		{"w2", runtime.Options{Workers: 2}},
		{"w4", runtime.Options{Workers: 4}},
	}
}

// benchExecutor runs a prebuilt graph to completion b.N times — execution
// only, no graph construction, the number the scheduler work targets.
func benchExecutor(b *testing.B, v Variant, cfg Config, opts runtime.Options) {
	b.Helper()
	cfg.WithBodies = true
	g, err := BuildGraph(v, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runtime.Run(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Dropped != 0 {
			b.Fatalf("dropped %d transfers", res.Dropped)
		}
	}
}

// BenchmarkExecutorReal runs the full concurrent engine on a task-rich base
// graph (1024 tiles, 20 steps, ~21k stencil tasks) at each worker count —
// scheduling + packing + kernels, graph prebuilt. The n1 shape keeps every
// dependency node-local (scheduler-bound); n4 adds the serialized
// inter-node transport (comm-inclusive).
func BenchmarkExecutorReal(b *testing.B) {
	shapes := []struct {
		name string
		cfg  Config
	}{
		{"n1", Config{N: 256, TileRows: 8, P: 1, Steps: 20}},
		{"n4", Config{N: 256, TileRows: 8, P: 2, Steps: 20}},
	}
	for _, sh := range shapes {
		for _, sc := range benchSchedCases() {
			b.Run(sh.name+"-"+sc.Name, func(b *testing.B) { benchExecutor(b, Base, sh.cfg, sc.Opts) })
		}
	}
}

// BenchmarkExecutorRealCA is the CA variant of the same experiment.
func BenchmarkExecutorRealCA(b *testing.B) {
	cfg := Config{N: 256, TileRows: 16, P: 2, Steps: 20, StepSize: 4}
	for _, sc := range benchSchedCases() {
		b.Run(sc.Name, func(b *testing.B) { benchExecutor(b, CA, cfg, sc.Opts) })
	}
}

// BenchmarkExecutorWavefront is the temporal-blocking variant: the same
// shape as the CA experiment but with w steps fused per task, so the graph
// carries 4x fewer epochs and every halo is w deep.
func BenchmarkExecutorWavefront(b *testing.B) {
	cfg := Config{N: 256, TileRows: 16, P: 2, Steps: 20, Wavefront: 4}
	for _, sc := range benchSchedCases() {
		b.Run(sc.Name, func(b *testing.B) { benchExecutor(b, WF, cfg, sc.Opts) })
	}
}

// TestFastPathStaysOnOracle re-checks the oracle on a configuration mixing
// every flow kind the slot allocator distinguishes: CA with boundary and
// interior tiles, a truncated final phase, and multiple workers racing on
// the lock-free slots.
func TestFastPathStaysOnOracle(t *testing.T) {
	assertMatchesReference(t, CA, Config{N: 30, TileRows: 5, P: 3, Q: 2, Steps: 10, StepSize: 4}, 3)
	assertMatchesReference(t, CA, Config{N: 24, TileRows: 4, P: 2, Steps: 7, StepSize: 1}, 2)
}

// TestCornerRing pins the three-slot ring of the CA step-size-1 corner flow
// from an interior producer into a boundary tile (see slotDepth). Under
// every policy at 1, 2 and 4 workers, runs with the five- and nine-point
// kernels, the split transform and a ragged 3x2-node grid must match the
// oracle bitwise and consume every payload. With a two-slot ring the
// producer refills a slot its consumer has not taken yet, which fails even
// the one-worker FIFO run.
func TestCornerRing(t *testing.T) {
	five := Config{N: 24, TileRows: 4, P: 2, Steps: 9, StepSize: 1}
	nine := five
	nine.NinePoint = true
	cases := []struct {
		name string
		cfg  Config
	}{
		{"5pt", five},
		{"9pt", nine},
		{"split", splitCfg(five)},
		{"ragged", Config{N: 26, TileRows: 4, P: 3, Q: 2, Steps: 9, StepSize: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			full := c.cfg.withDefaults()
			var want interface{ At(r, c int) float64 }
			if full.NinePoint {
				ref := stencil.NewReference9(full.N, full.Weights9, full.Init, full.Boundary)
				ref.Run(full.Steps)
				want = ref
			} else {
				want = referenceFor(t, full)
			}
			for _, sched := range schedVariants() {
				for _, workers := range []int{1, 2, 4} {
					res := runSched(t, CA, c.cfg, sched, workers)
					for r := 0; r < full.N; r++ {
						for col := 0; col < full.N; col++ {
							if got := res.Grid.At(r, col); math.Float64bits(got) != math.Float64bits(want.At(r, col)) {
								t.Fatalf("%s w=%d: (%d,%d) = %v, want %v (bitwise)", sched, workers, r, col, got, want.At(r, col))
							}
						}
					}
					if n := LeftoverBuffers(res.Exec.Stores); n != 0 {
						t.Errorf("%s w=%d: %d unconsumed buffers", sched, workers, n)
					}
				}
			}
		})
	}
}
