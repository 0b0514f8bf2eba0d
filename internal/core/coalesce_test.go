package core

import (
	"testing"

	"castencil/internal/ptg"
	"castencil/internal/runtime"
)

// crossTraffic inventories the remote traffic a graph generates: the set of
// ordered (src node, dst node) neighbor pairs with at least one cross-node
// dependency, the set of exchange epochs, and the total cross-dependency
// count.
func crossTraffic(t *testing.T, v Variant, cfg Config) (pairs, epochs, deps int) {
	t.Helper()
	g, err := BuildGraph(v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairSet := map[[2]int32]bool{}
	epochSet := map[int32]bool{}
	for i := range g.Tasks {
		task := &g.Tasks[i]
		for _, d := range task.Deps {
			p := &g.Tasks[d.Producer]
			if p.Node == task.Node {
				continue
			}
			pairSet[[2]int32{p.Node, task.Node}] = true
			epochSet[p.Epoch] = true
			deps++
		}
	}
	return len(pairSet), len(epochSet), deps
}

// TestCoalesceMessageCounts pins the acceptance criterion of the coalescing
// optimization on the CA pipeline: with -coalesce=step, the per-epoch remote
// message count is at most one per ordered neighbor pair (every wire message
// is a bundle, and there are at most pairs x epochs bundles), the member
// transfers carried equal the point-to-point message count, and the grids
// stay bitwise identical.
func TestCoalesceMessageCounts(t *testing.T) {
	cfg := Config{N: 64, TileRows: 8, P: 2, Steps: 12, StepSize: 3}
	off, err := RunReal(CA, cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunReal(CA, cfg, runtime.Options{Workers: 2, Coalesce: ptg.CoalesceStep})
	if err != nil {
		t.Fatal(err)
	}
	assertGridsBitwiseEqual(t, "coalesce=step", off.Grid, st.Grid)

	if st.Exec.Messages != st.Exec.BundlesSent {
		t.Errorf("step mode sent %d messages but %d bundles: point-to-point traffic leaked past coalescing",
			st.Exec.Messages, st.Exec.BundlesSent)
	}
	if st.Exec.BundleSegments != off.Exec.Messages {
		t.Errorf("bundles carried %d transfers, point-to-point run sent %d messages: traffic lost or duplicated",
			st.Exec.BundleSegments, off.Exec.Messages)
	}
	pairs, epochs, deps := crossTraffic(t, CA, cfg)
	if off.Exec.Messages != deps {
		t.Errorf("point-to-point run sent %d messages, graph has %d cross deps", off.Exec.Messages, deps)
	}
	if max := pairs * epochs; st.Exec.BundlesSent > max {
		t.Errorf("step mode sent %d bundles, want <= %d (one per neighbor pair per epoch: %d pairs x %d epochs)",
			st.Exec.BundlesSent, max, pairs, epochs)
	}
	if st.Exec.Messages >= off.Exec.Messages {
		t.Errorf("coalescing did not reduce messages: %d vs %d point-to-point",
			st.Exec.Messages, off.Exec.Messages)
	}
	if fill := st.Exec.BundleFill(); fill < 2 {
		t.Errorf("bundle fill = %.1f, want >= 2 on a multi-tile decomposition", fill)
	}
}

// TestCoalesceSimMatchesReal checks the virtual-time engine accounts the
// same wire traffic as the real runtime under coalescing: identical message,
// bundle and segment counts for the same configuration.
func TestCoalesceSimMatchesReal(t *testing.T) {
	cfg := Config{N: 64, TileRows: 8, P: 2, Steps: 12, StepSize: 3}
	real, err := RunReal(CA, cfg, runtime.Options{Workers: 2, Coalesce: ptg.CoalesceStep})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Simulate(CA, cfg, SimOptions{Machine: machineForTest(), Coalesce: ptg.CoalesceStep})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Messages != real.Exec.Messages || sim.Bundles != real.Exec.BundlesSent ||
		sim.Segments != real.Exec.BundleSegments {
		t.Errorf("sim traffic (%d msgs, %d bundles, %d segments) != real (%d, %d, %d)",
			sim.Messages, sim.Bundles, sim.Segments,
			real.Exec.Messages, real.Exec.BundlesSent, real.Exec.BundleSegments)
	}
	if sim.BytesSent != real.Exec.BytesSent {
		t.Errorf("sim bytes %d != real bytes %d: wire-format accounting diverged", sim.BytesSent, real.Exec.BytesSent)
	}
}

// BenchmarkExecutorCoalesce compares the full concurrent engine with halo
// coalescing off and on, on the comm-inclusive shapes of
// BenchmarkExecutorReal (many small tiles, so the message path dominates).
func BenchmarkExecutorCoalesce(b *testing.B) {
	shapes := []struct {
		name string
		v    Variant
		cfg  Config
	}{
		{"base-n4", Base, Config{N: 256, TileRows: 8, P: 2, Steps: 20}},
		{"ca-n4", CA, Config{N: 256, TileRows: 16, P: 2, Steps: 20, StepSize: 4}},
	}
	for _, sh := range shapes {
		for _, m := range []ptg.CoalesceMode{ptg.CoalesceOff, ptg.CoalesceStep} {
			b.Run(sh.name+"-"+m.String(), func(b *testing.B) {
				benchExecutor(b, sh.v, sh.cfg, runtime.Options{Workers: 2, Coalesce: m})
			})
		}
	}
}
