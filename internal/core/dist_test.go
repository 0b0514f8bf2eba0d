package core

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"castencil/internal/fault"
	"castencil/internal/netcomm"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
)

// connectMesh establishes an n-rank loopback mesh on pre-bound listeners
// (no port races) and tears it down with the test.
func connectMesh(t testing.TB, n int) []*netcomm.Transport {
	t.Helper()
	return connectMeshWith(t, n, nil)
}

// connectMeshWith is connectMesh with every rank's options passed through
// mut first (nil: unchanged).
func connectMeshWith(t testing.TB, n int, mut func(o *netcomm.Options)) []*netcomm.Transport {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	ts := make([]*netcomm.Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range ts {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := netcomm.Options{Rank: r, Addrs: addrs, Listener: lns[r]}
			if mut != nil {
				mut(&o)
			}
			ts[r], errs[r] = netcomm.Connect(o)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			if tr != nil {
				tr.Close()
			}
		}
	})
	return ts
}

// runMesh executes one real run on every rank of the mesh, all ranks handed
// the identical options, and returns the per-rank results (index = rank).
// Rank 0 carries the gathered grid and the globally-summed counters.
func runMesh(t testing.TB, v Variant, cfg Config, base runtime.Options, ts []*netcomm.Transport) []*RealResult {
	t.Helper()
	res := make([]*RealResult, len(ts))
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for r := range ts {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			opts := base
			opts.Dist = &runtime.Dist{Rank: r, Ranks: len(ts), Net: ts[r]}
			res[r], errs[r] = RunReal(v, cfg, opts)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d run: %v", r, err)
		}
	}
	return res
}

// skewedShape is 5 tile rows over a 2x2 node grid: block decomposition hands
// the corner nodes 9/6/6/4 tiles, and the two-rank fold leaves rank 0 with
// 15 of 25. Wavefront tasks fuse w=2 steps.
func skewedShape() Config {
	return Config{N: 80, TileRows: 16, P: 2, Steps: 6, Wavefront: 2}
}

// TestDistributedMesh runs the static block distribution over real sockets
// on {2-rank skewed, 9 nodes folded onto 4 ranks} x {coalesce off, step} x
// {clean wire, drops, duplicates + delays}. Every case runs twice back to
// back on one mesh and must leave a grid bitwise identical to the
// single-process run's and no halo payload in any rank's slots. A clean wire
// carries exactly the single-process Messages/BytesSent. A faulty one must
// fire its faults, and on every rank the reliable layer must answer each ack
// timeout with one retransmit and drop nothing.
func TestDistributedMesh(t *testing.T) {
	shapes := []struct {
		name  string
		ranks int
		cfg   Config
	}{
		{"2rank-skewed", 2, skewedShape()},
		{"4rank-folded", 4, Config{N: 48, TileRows: 16, P: 3, Steps: 6, Wavefront: 2}},
	}
	wires := []struct {
		name string
		plan *fault.Plan
	}{
		{"clean", nil},
		{"drop", &fault.Plan{Seed: 7, Drop: 0.3}},
		{"dup+delay", &fault.Plan{Seed: 7, Dup: 0.3, Delay: 0.3}},
	}
	for _, sh := range shapes {
		ts := connectMesh(t, sh.ranks)
		for _, mode := range []ptg.CoalesceMode{ptg.CoalesceOff, ptg.CoalesceStep} {
			base := runtime.Options{Workers: 1, Coalesce: mode}
			single, err := RunReal(WF, sh.cfg, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range wires {
				t.Run(fmt.Sprintf("%s/coalesce=%s/%s", sh.name, mode, w.name), func(t *testing.T) {
					opts := base
					opts.Fault = w.plan
					for i := 1; i <= 2; i++ {
						dist := runMesh(t, WF, sh.cfg, opts, ts)
						assertGridsBitwiseEqual(t, fmt.Sprintf("run %d", i), single.Grid, dist[0].Grid)
						for r, res := range dist {
							if n := LeftoverBuffers(res.Exec.Stores); n != 0 {
								t.Errorf("run %d, rank %d: %d halo payloads left in slots", i, r, n)
							}
						}
						d, s := dist[0].Exec, single.Exec
						if w.plan == nil {
							if d.Messages != s.Messages || d.BytesSent != s.BytesSent {
								t.Errorf("run %d: traffic (%d msgs, %d B) != single-process (%d, %d)",
									i, d.Messages, d.BytesSent, s.Messages, s.BytesSent)
							}
							continue
						}
						// No Messages parity on a faulty wire: duplicates and
						// retransmissions count as traffic.
						if d.Fault.Dropped+d.Fault.Duplicated == 0 || (w.plan.Drop > 0 && d.Fault.Retransmits == 0) {
							t.Errorf("run %d fired no faults or no retransmits: %+v", i, d.Fault)
						}
						for r, res := range dist {
							if f := res.Exec.Fault; f.Timeouts != f.Retransmits || res.Exec.Dropped != 0 {
								t.Errorf("run %d, rank %d: %d timeouts vs %d retransmits, %d dropped",
									i, r, f.Timeouts, f.Retransmits, res.Exec.Dropped)
							}
						}
					}
				})
			}
		}
	}
}

// TestDistributedMatchesSingleProcess is the tentpole's acceptance test: a
// two-process (two-transport) loopback run must be bitwise identical to the
// single-process run and carry exactly the same wire accounting — and the
// accounting must in turn match the virtual-time simulator — in both
// coalesce modes. One mesh serves all runs back to back, exercising the
// epoch machinery between jobs.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	cfg := Config{N: 64, TileRows: 8, P: 2, Steps: 12, StepSize: 3}
	ts := connectMesh(t, 2)
	for _, mode := range []ptg.CoalesceMode{ptg.CoalesceOff, ptg.CoalesceStep} {
		t.Run(fmt.Sprintf("coalesce=%s", mode), func(t *testing.T) {
			base := runtime.Options{Workers: 2, Coalesce: mode}
			single, err := RunReal(CA, cfg, base)
			if err != nil {
				t.Fatal(err)
			}
			dist := runMesh(t, CA, cfg, base, ts)
			if dist[1].Grid != nil {
				t.Error("rank 1 materialized a grid; only rank 0 should")
			}
			assertGridsBitwiseEqual(t, "distributed vs single-process", single.Grid, dist[0].Grid)

			d, s := dist[0].Exec, single.Exec
			if d.Messages != s.Messages || d.BytesSent != s.BytesSent ||
				d.BundlesSent != s.BundlesSent || d.BundleSegments != s.BundleSegments {
				t.Errorf("distributed traffic (%d msgs, %d bytes, %d bundles, %d segments) != single-process (%d, %d, %d, %d)",
					d.Messages, d.BytesSent, d.BundlesSent, d.BundleSegments,
					s.Messages, s.BytesSent, s.BundlesSent, s.BundleSegments)
			}
			if d.Completed != s.Completed {
				t.Errorf("distributed completed %d tasks, single-process %d", d.Completed, s.Completed)
			}

			sim, err := Simulate(CA, cfg, SimOptions{Machine: machineForTest(), Coalesce: mode})
			if err != nil {
				t.Fatal(err)
			}
			if sim.Messages != d.Messages || sim.BytesSent != d.BytesSent ||
				sim.Bundles != d.BundlesSent || sim.Segments != d.BundleSegments {
				t.Errorf("sim traffic (%d msgs, %d bytes, %d bundles, %d segments) != distributed (%d, %d, %d, %d)",
					sim.Messages, sim.BytesSent, sim.Bundles, sim.Segments,
					d.Messages, d.BytesSent, d.BundlesSent, d.BundleSegments)
			}
		})
	}
}

// TestDistributedReliable runs the two-rank mesh with the reliable transport
// on (sequence numbers, acks, retransmit timers riding the socket lanes) and
// checks exactly-once delivery end to end: bitwise-identical grid, no
// counter drift from retransmits or dedup.
func TestDistributedReliable(t *testing.T) {
	cfg := Config{N: 48, TileRows: 8, P: 2, Steps: 6, StepSize: 2}
	ts := connectMesh(t, 2)
	rec := runtime.Options{Workers: 2, Recovery: fault.DefaultRecovery()}
	single, err := RunReal(CA, cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	dist := runMesh(t, CA, cfg, rec, ts)
	assertGridsBitwiseEqual(t, "reliable distributed vs single-process", single.Grid, dist[0].Grid)
	d, s := dist[0].Exec, single.Exec
	if d.Messages != s.Messages || d.BytesSent != s.BytesSent {
		t.Errorf("reliable distributed traffic (%d msgs, %d bytes) != single-process (%d, %d)",
			d.Messages, d.BytesSent, s.Messages, s.BytesSent)
	}
	if d.Dropped != 0 {
		t.Errorf("reliable distributed run dropped %d deliveries on a clean wire", d.Dropped)
	}
}

// TestDistributedWavefront covers the second kernel family over the wire:
// wavefront temporal blocking has a different dependency structure (diagonal
// pipelining) and so exercises different cross-rank traffic.
func TestDistributedWavefront(t *testing.T) {
	cfg := Config{N: 48, TileRows: 8, P: 2, Steps: 6, Wavefront: 3}
	ts := connectMesh(t, 2)
	base := runtime.Options{Workers: 2}
	single, err := RunReal(WF, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	dist := runMesh(t, WF, cfg, base, ts)
	assertGridsBitwiseEqual(t, "wavefront distributed vs single-process", single.Grid, dist[0].Grid)
	if d, s := dist[0].Exec, single.Exec; d.Messages != s.Messages || d.BytesSent != s.BytesSent {
		t.Errorf("wavefront distributed traffic (%d msgs, %d bytes) != single-process (%d, %d)",
			d.Messages, d.BytesSent, s.Messages, s.BytesSent)
	}
}
