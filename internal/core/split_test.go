package core

import (
	"fmt"
	"math/rand"
	"testing"

	"castencil/internal/grid"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
)

// splitCfg returns cfg with the inner/border split transform enabled.
func splitCfg(cfg Config) Config {
	cfg.Transform = TransformSplit
	return cfg
}

// TestSplitMatchesReference checks the split transform against the
// sequential oracle on every pipeline shape the splitter distinguishes:
// base, CA (trapezoid regions on boundary tiles), a ragged decomposition
// (uneven tile extents), and the nine-point kernel (diagonal halo flows,
// so corner border tasks carry real data deps).
func TestSplitMatchesReference(t *testing.T) {
	assertMatchesReference(t, Base, splitCfg(Config{N: 24, TileRows: 6, P: 2, Steps: 8}), 2)
	assertMatchesReference(t, CA, splitCfg(Config{N: 24, TileRows: 6, P: 2, Steps: 12, StepSize: 4}), 2)
	assertMatchesReference(t, CA, splitCfg(Config{N: 30, TileRows: 5, P: 3, Q: 2, Steps: 9, StepSize: 3}), 2)
	assertMatchesReference(t, Base, splitCfg(Config{N: 25, TileRows: 6, P: 2, Steps: 7}), 2)
}

// TestSplitMatchesReference9Point is the nine-point variant: diagonal
// flows make every corner border task consume a real halo payload.
func TestSplitMatchesReference9Point(t *testing.T) {
	assertMatches9(t, Base, splitCfg(Config{N: 24, TileRows: 6, P: 2, Steps: 8}), 2)
	assertMatches9(t, CA, splitCfg(Config{N: 24, TileRows: 6, P: 2, Steps: 8, StepSize: 2}), 2)
}

// TestSplitDeterminism is the acceptance criterion of the split transform:
// across both variants, 1/2/4 workers per node and halo coalescing off and
// on, the split run's grid is bitwise identical to the unsplit single-worker
// reference. Splitting re-partitions each tile
// update into disjoint rect sweeps of the same read-only inputs, so any
// divergence means a border task ran before its halo arrived or wrote
// outside its rect.
func TestSplitDeterminism(t *testing.T) {
	cases := []struct {
		name string
		v    Variant
		cfg  Config
	}{
		{"base", Base, Config{N: 24, TileRows: 6, P: 2, Steps: 8}},
		{"ca", CA, Config{N: 24, TileRows: 6, P: 2, Steps: 8, StepSize: 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := runSched(t, c.v, c.cfg, 1, ptg.CoalesceOff) // unsplit reference
			for _, coal := range []ptg.CoalesceMode{ptg.CoalesceOff, ptg.CoalesceStep} {
				for _, workers := range []int{1, 2, 4} {
					label := fmt.Sprintf("split w=%d coalesce=%v", workers, coal)
					got := runSched(t, c.v, splitCfg(c.cfg), workers, coal)
					assertGridsBitwiseEqual(t, label, ref.Grid, got.Grid)
				}
			}
		})
	}
}

// TestSplitTrafficMatchesUnsplit pins the transform's communication
// neutrality: because the commit task keeps the original producer's task
// ID, class and epoch, the split graph generates exactly the wire traffic
// of the unsplit one — same message count, bytes, and (under coalescing)
// same bundle plan.
func TestSplitTrafficMatchesUnsplit(t *testing.T) {
	cfg := Config{N: 48, TileRows: 8, P: 2, Steps: 10, StepSize: 2}
	for _, coal := range []ptg.CoalesceMode{ptg.CoalesceOff, ptg.CoalesceStep} {
		plain, err := RunReal(CA, cfg, runtime.Options{Workers: 2, Coalesce: coal})
		if err != nil {
			t.Fatal(err)
		}
		split, err := RunReal(CA, splitCfg(cfg), runtime.Options{Workers: 2, Coalesce: coal})
		if err != nil {
			t.Fatal(err)
		}
		if split.Exec.Messages != plain.Exec.Messages || split.Exec.BytesSent != plain.Exec.BytesSent ||
			split.Exec.BundlesSent != plain.Exec.BundlesSent || split.Exec.BundleSegments != plain.Exec.BundleSegments {
			t.Errorf("coalesce=%v: split traffic (%d msgs, %d B, %d bundles, %d segments) != unsplit (%d, %d, %d, %d)",
				coal, split.Exec.Messages, split.Exec.BytesSent, split.Exec.BundlesSent, split.Exec.BundleSegments,
				plain.Exec.Messages, plain.Exec.BytesSent, plain.Exec.BundlesSent, plain.Exec.BundleSegments)
		}
	}
}

// TestSplitSimMatchesReal checks the virtual-time engine accounts the same
// wire traffic as the real runtime on a split graph — the hint partition
// and bundle-plan preservation must agree across engines.
func TestSplitSimMatchesReal(t *testing.T) {
	cfg := splitCfg(Config{N: 64, TileRows: 8, P: 2, Steps: 12, StepSize: 3})
	for _, coal := range []ptg.CoalesceMode{ptg.CoalesceOff, ptg.CoalesceStep} {
		real, err := RunReal(CA, cfg, runtime.Options{Workers: 2, Coalesce: coal})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Simulate(CA, cfg, SimOptions{Machine: machineForTest(), Coalesce: coal})
		if err != nil {
			t.Fatal(err)
		}
		if sim.Messages != real.Exec.Messages || sim.Bundles != real.Exec.BundlesSent ||
			sim.Segments != real.Exec.BundleSegments || sim.BytesSent != real.Exec.BytesSent {
			t.Errorf("coalesce=%v: sim traffic (%d msgs, %d bundles, %d segments, %d B) != real (%d, %d, %d, %d)",
				coal, sim.Messages, sim.Bundles, sim.Segments, sim.BytesSent,
				real.Exec.Messages, real.Exec.BundlesSent, real.Exec.BundleSegments, real.Exec.BytesSent)
		}
		if sim.InteriorTasks != real.Exec.InteriorTasks || sim.BorderTasks != real.Exec.BorderTasks {
			t.Errorf("coalesce=%v: sim split census (%d interior, %d border) != real (%d, %d)",
				coal, sim.InteriorTasks, sim.BorderTasks, real.Exec.InteriorTasks, real.Exec.BorderTasks)
		}
	}
}

// TestSplitHintPartition checks the cost hints partition exactly: for every
// original (tile, epoch) task the splitter rewrote, the interior + border +
// commit hints sum to the unsplit task's Updates, RedundantUpdates and
// CopyPoints — so the simulator charges the same work, just distributed.
func TestSplitHintPartition(t *testing.T) {
	for _, c := range []struct {
		name string
		v    Variant
		cfg  Config
	}{
		{"base", Base, Config{N: 24, TileRows: 6, P: 2, Steps: 6}},
		{"ca", CA, Config{N: 24, TileRows: 6, P: 2, Steps: 8, StepSize: 4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			plain, err := BuildGraph(c.v, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			split, err := BuildGraph(c.v, splitCfg(c.cfg))
			if err != nil {
				t.Fatal(err)
			}
			type key struct{ i, j, k int }
			sums := map[key]ptg.CostHint{}
			for i := range split.Tasks {
				task := &split.Tasks[i]
				k := key{task.ID.I, task.ID.J, task.ID.K}
				h := sums[k]
				h.Updates += task.Hint.Updates
				h.RedundantUpdates += task.Hint.RedundantUpdates
				h.CopyPoints += task.Hint.CopyPoints
				sums[k] = h
			}
			for i := range plain.Tasks {
				task := &plain.Tasks[i]
				k := key{task.ID.I, task.ID.J, task.ID.K}
				h := sums[k]
				if h.Updates != task.Hint.Updates || h.RedundantUpdates != task.Hint.RedundantUpdates ||
					h.CopyPoints != task.Hint.CopyPoints {
					t.Fatalf("%v: split hints sum to (upd=%d red=%d copy=%d), unsplit has (%d, %d, %d)",
						task.ID, h.Updates, h.RedundantUpdates, h.CopyPoints,
						task.Hint.Updates, task.Hint.RedundantUpdates, task.Hint.CopyPoints)
				}
			}
		})
	}
}

// TestSplitOverlapCounters checks both engines report the split census and
// a sane overlap ratio, that border tasks outrank their interior sibling,
// and that an unsplit run reports all-zero overlap fields (pay-for-use).
func TestSplitOverlapCounters(t *testing.T) {
	cfg := splitCfg(Config{N: 48, TileRows: 8, P: 2, Steps: 8})
	real, err := RunReal(Base, cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if real.Exec.InteriorTasks == 0 || real.Exec.BorderTasks == 0 {
		t.Fatalf("real split census empty: %d interior, %d border", real.Exec.InteriorTasks, real.Exec.BorderTasks)
	}
	if r := real.Exec.OverlapRatio; r < 0 || r > 1 {
		t.Fatalf("real overlap ratio %v outside [0,1]", r)
	}
	sim, err := Simulate(Base, cfg, SimOptions{Machine: machineForTest()})
	if err != nil {
		t.Fatal(err)
	}
	if sim.InteriorTasks == 0 || sim.BorderTasks == 0 {
		t.Fatalf("sim split census empty: %d interior, %d border", sim.InteriorTasks, sim.BorderTasks)
	}
	if r := sim.OverlapRatio; r <= 0 || r > 1 {
		t.Fatalf("sim overlap ratio %v outside (0,1] on a multi-node run", r)
	}
	plain, err := RunReal(Base, Config{N: 48, TileRows: 8, P: 2, Steps: 8}, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Exec.InteriorTasks != 0 || plain.Exec.BorderTasks != 0 || plain.Exec.OverlapRatio != 0 {
		t.Fatalf("unsplit run reports overlap fields: %d/%d/%v",
			plain.Exec.InteriorTasks, plain.Exec.BorderTasks, plain.Exec.OverlapRatio)
	}
}

// TestSplitBorderPriority checks every border and commit task outranks its
// interior sibling — the scheduler-facing half of latency tolerance: halo
// producers and consumers go first so payloads enter the wire early.
func TestSplitBorderPriority(t *testing.T) {
	g, err := BuildGraph(Base, splitCfg(Config{N: 24, TileRows: 6, P: 2, Steps: 4}))
	if err != nil {
		t.Fatal(err)
	}
	inner := map[[3]int]int32{}
	for i := range g.Tasks {
		if g.Tasks[i].Kind == ptg.KindInner {
			inner[[3]int{g.Tasks[i].ID.I, g.Tasks[i].ID.J, g.Tasks[i].ID.K}] = g.Tasks[i].Priority
		}
	}
	if len(inner) == 0 {
		t.Fatal("no interior tasks in a split graph")
	}
	checked := 0
	for i := range g.Tasks {
		task := &g.Tasks[i]
		if task.Kind != ptg.KindBorder && task.ID.Class != "st" {
			continue
		}
		p, ok := inner[[3]int{task.ID.I, task.ID.J, task.ID.K}]
		if !ok {
			continue
		}
		if task.Priority <= p {
			t.Fatalf("%v priority %d does not outrank interior sibling %d", task.ID, task.Priority, p)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no border/commit tasks matched an interior sibling")
	}
}

// TestSplitWFRejected checks the transform is refused with the wavefront
// variant on both engines — WF's fused tasks have no halo-free interior.
func TestSplitWFRejected(t *testing.T) {
	cfg := splitCfg(Config{N: 24, TileRows: 6, P: 2, Steps: 8, Wavefront: 2})
	if _, err := RunReal(WF, cfg, runtime.Options{Workers: 1}); err == nil {
		t.Error("RunReal accepted transform=split with the wf variant")
	}
	if _, err := Simulate(WF, cfg, SimOptions{Machine: machineForTest()}); err == nil {
		t.Error("Simulate accepted transform=split with the wf variant")
	}
}

// TestSplitStatsFresh is the stats-lifecycle regression: the graph a
// transform returns must carry eagerly computed statistics identical to a
// from-scratch build of the same configuration, and InvalidateStats must
// force a recomputation that agrees with the memoized copy.
func TestSplitStatsFresh(t *testing.T) {
	cfg := splitCfg(Config{N: 24, TileRows: 6, P: 2, Steps: 6, StepSize: 2})
	g1, err := BuildGraph(CA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := BuildGraph(CA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := g1.ComputeStats(), g2.ComputeStats()
	assertStatsEqual(t, "post-transform vs from-scratch", s1, s2)
	g1.InvalidateStats()
	assertStatsEqual(t, "memoized vs recomputed", s1, g1.ComputeStats())
	deps, bytes := g1.CrossNodeDeps()
	if deps != s1.CrossDeps || bytes != s1.CrossBytes {
		t.Fatalf("CrossNodeDeps (%d, %d) disagrees with stats (%d, %d)", deps, bytes, s1.CrossDeps, s1.CrossBytes)
	}
}

func assertStatsEqual(t *testing.T, label string, a, b ptg.Stats) {
	t.Helper()
	if a.Tasks != b.Tasks || a.Deps != b.Deps || a.CrossDeps != b.CrossDeps ||
		a.CrossBytes != b.CrossBytes || a.TasksPerNodeMin != b.TasksPerNodeMin ||
		a.TasksPerNodeMax != b.TasksPerNodeMax || a.CriticalPathTasks != b.CriticalPathTasks {
		t.Fatalf("%s: stats diverged: %+v vs %+v", label, a, b)
	}
	if len(a.KindCounts) != len(b.KindCounts) {
		t.Fatalf("%s: kind counts diverged: %v vs %v", label, a.KindCounts, b.KindCounts)
	}
	for k, v := range a.KindCounts {
		if b.KindCounts[k] != v {
			t.Fatalf("%s: kind %q count %d vs %d", label, k, v, b.KindCounts[k])
		}
	}
}

// TestSplitLeftoverBuffers checks buffer hygiene under the split dataflow:
// every halo buffer a border task consumes must be recycled, leaving no
// live buffer slots after the run.
func TestSplitLeftoverBuffers(t *testing.T) {
	res, err := RunReal(CA, splitCfg(Config{N: 48, TileRows: 8, P: 2, Steps: 10, StepSize: 2}),
		runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := LeftoverBuffers(res.Exec.Stores); n != 0 {
		t.Fatalf("%d leftover buffers after a split run", n)
	}
}

// TestSplitBorderRoundTripZeroAlloc pins the steady-state border-task halo
// hop at zero heap allocations: the thin border rect travels pooled buffer
// -> producer slot -> wire -> consumer slot -> in-place unpack -> pool,
// exactly the slot-ring fast path the splitter's consumeDir reuses.
func TestSplitBorderRoundTripZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := randomHaloTile(rng, 96, 1)
	dst := grid.NewTile(96, 96, 1)
	sendRc := src.SendRect(grid.West, 1) // thin column: a border task's halo
	recvRc := dst.RecvRect(grid.East, 1)
	producer := runtime.NewStoreWithSlots(0, 1)
	consumer := runtime.NewStoreWithSlots(0, 1)
	runtime.PutBuf(runtime.GetBuf(sendRc.Bytes())) // warm the arena

	hop := func() {
		buf := src.PackBytes(sendRc, runtime.GetBuf(sendRc.Bytes()))
		producer.PutBufSlot(0, buf)
		consumer.PutBufSlot(0, producer.TakeBufSlot(0))
		got := consumer.TakeBufSlot(0)
		dst.UnpackBytes(recvRc, got)
		runtime.PutBuf(got)
	}
	if n := testing.AllocsPerRun(50, hop); n != 0 {
		t.Errorf("split border halo round trip: %v allocs per run, want 0", n)
	}
}

// BenchmarkExecutorSplit compares the full concurrent engine with the
// split transform off and on, on the comm-inclusive multi-node shapes
// (the message path is live, so overlap has something to hide).
func BenchmarkExecutorSplit(b *testing.B) {
	shapes := []struct {
		name string
		v    Variant
		cfg  Config
	}{
		{"base-n4", Base, Config{N: 256, TileRows: 8, P: 2, Steps: 20}},
		{"ca-n4", CA, Config{N: 256, TileRows: 16, P: 2, Steps: 20, StepSize: 4}},
	}
	for _, sh := range shapes {
		for _, tr := range []TransformMode{TransformNone, TransformSplit} {
			cfg := sh.cfg
			cfg.Transform = tr
			b.Run(sh.name+"-"+tr.String(), func(b *testing.B) {
				benchExecutor(b, sh.v, cfg, runtime.Options{Workers: 2})
			})
		}
	}
}
