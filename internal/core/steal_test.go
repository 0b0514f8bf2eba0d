package core

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"castencil/internal/fault"
	"castencil/internal/netcomm"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
)

// stealSkewed is the suite's skewed shape: 5 tile rows over a 2x2 process
// grid, so block decomposition hands the corner nodes 9/6/6/4 tiles and the
// two-rank fold leaves rank 0 with 15 of 25 — the imbalance inter-node
// stealing exists to fix. Wavefront tasks carry w=2 fused steps, the
// temporal blocking that makes a migration's compute outweigh its bytes.
func stealSkewed() Config {
	return Config{N: 80, TileRows: 16, P: 2, Steps: 6, Wavefront: 2}
}

// connectMeshN generalizes connectPair to n ranks.
func connectMeshN(t testing.TB, n int) []*netcomm.Transport {
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
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ts[r], errs[r] = netcomm.Connect(netcomm.Options{Rank: r, Addrs: addrs, Listener: lns[r]})
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

// runStealMesh executes one real run on every rank of the mesh, all ranks
// handed the identical options, and returns the per-rank results.
func runStealMesh(t testing.TB, v Variant, cfg Config, base runtime.Options, ts []*netcomm.Transport) []*RealResult {
	t.Helper()
	n := len(ts)
	res := make([]*RealResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			opts := base
			opts.Dist = &runtime.Dist{Rank: r, Ranks: n, Net: ts[r]}
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

// forcedPlan scripts count forced migrations: the first migratable tasks
// (in graph order) owned by victim-rank nodes, pinned to the thief.
func forcedPlan(t testing.TB, v Variant, cfg Config, ranks, victim, thief, count int) []runtime.ForcedSteal {
	t.Helper()
	g, err := BuildGraph(v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	part, err := cfg.Partition()
	if err != nil {
		t.Fatal(err)
	}
	nodes := part.Nodes()
	var plan []runtime.ForcedSteal
	for i := range g.Tasks {
		tk := &g.Tasks[i]
		if tk.Mig == nil || runtime.RankOfNode(int(tk.Node), nodes, ranks) != victim {
			continue
		}
		plan = append(plan, runtime.ForcedSteal{Task: int32(i), Thief: thief})
		if len(plan) == count {
			return plan
		}
	}
	t.Fatalf("graph offers only %d migratable tasks on rank %d, want %d", len(plan), victim, count)
	return nil
}

// TestDistributedStealDeterminism is the steal tentpole's determinism suite:
// on the skewed two-rank shape, every dynamic policy (off, greedy, gated)
// crossed with both coalesce modes must produce a grid bitwise identical to
// the single-process run and keep halo-counter parity — steal traffic is
// accounted apart and never leaks into Messages/BytesSent.
func TestDistributedStealDeterminism(t *testing.T) {
	cfg := stealSkewed()
	ts := connectMeshN(t, 2)
	gate := machineForTest().Net
	policies := []struct {
		name string
		pol  *runtime.StealPolicy
	}{
		{"off", nil},
		{"greedy", &runtime.StealPolicy{Mode: runtime.StealGreedy}},
		{"gated", &runtime.StealPolicy{Mode: runtime.StealGated, Gate: gate.MigrationTime}},
	}
	for _, mode := range []ptg.CoalesceMode{ptg.CoalesceOff, ptg.CoalesceStep} {
		base := runtime.Options{Workers: 1, Coalesce: mode}
		single, err := RunReal(WF, cfg, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range policies {
			t.Run(fmt.Sprintf("coalesce=%s/steal=%s", mode, p.name), func(t *testing.T) {
				opts := base
				opts.Steal = p.pol
				dist := runStealMesh(t, WF, cfg, opts, ts)
				assertGridsBitwiseEqual(t, "steal "+p.name, single.Grid, dist[0].Grid)
				d, s := dist[0].Exec, single.Exec
				if d.Messages != s.Messages || d.BytesSent != s.BytesSent {
					t.Errorf("halo counters drifted under steal=%s: (%d msgs, %d B) vs single-process (%d, %d)",
						p.name, d.Messages, d.BytesSent, s.Messages, s.BytesSent)
				}
				if p.pol == nil && (d.StealsRemote != 0 || d.MigratedTasks != 0 || d.MigratedBytes != 0) {
					t.Errorf("steal-off run reports migration: %d remote, %d tasks, %d B",
						d.StealsRemote, d.MigratedTasks, d.MigratedBytes)
				}
			})
		}
	}
}

// TestDistributedStealFourRanks folds 9 nodes onto 4 ranks (2/2/2/3, every
// rank with a steal endpoint), the smallest mesh where a steal's victim and
// thief can both be bystanders to rank 0's gather: greedy stealing must keep
// the grid bitwise identical and the folded counters consistent on the
// wider mesh too.
func TestDistributedStealFourRanks(t *testing.T) {
	cfg := Config{N: 48, TileRows: 16, P: 3, Steps: 6, Wavefront: 2}
	ts := connectMeshN(t, 4)
	base := runtime.Options{Workers: 1}
	single, err := RunReal(WF, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	opts := base
	opts.Steal = &runtime.StealPolicy{Mode: runtime.StealGreedy}
	dist := runStealMesh(t, WF, cfg, opts, ts)
	assertGridsBitwiseEqual(t, "4-rank greedy steal", single.Grid, dist[0].Grid)
	if d, s := dist[0].Exec, single.Exec; d.Messages != s.Messages || d.BytesSent != s.BytesSent {
		t.Errorf("4-rank traffic (%d msgs, %d B) != single-process (%d, %d)",
			d.Messages, d.BytesSent, s.Messages, s.BytesSent)
	}
}

// TestDistributedStealForcedParity pins the migration machinery across every
// kernel family: a scripted forced plan must migrate exactly its tasks, with
// byte-for-byte agreement between the real mesh and the virtual-time
// simulator (same MigratedTasks, same MigratedBytes — the counters both
// engines derive from the same ptg.Migration sizes), a bitwise-identical
// grid, and the thief's StealsRemote matching the victim's MigratedTasks
// after the fold.
func TestDistributedStealForcedParity(t *testing.T) {
	cases := []struct {
		v   Variant
		cfg Config
	}{
		{Base, Config{N: 80, TileRows: 16, P: 2, Steps: 4}},
		{CA, Config{N: 80, TileRows: 16, P: 2, Steps: 4, StepSize: 2}},
		{WF, stealSkewed()},
	}
	ts := connectMeshN(t, 2)
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v", c.v), func(t *testing.T) {
			plan := forcedPlan(t, c.v, c.cfg, 2, 0, 1, 3)
			base := runtime.Options{Workers: 1}
			single, err := RunReal(c.v, c.cfg, base)
			if err != nil {
				t.Fatal(err)
			}
			opts := base
			opts.Steal = &runtime.StealPolicy{Force: plan}
			dist := runStealMesh(t, c.v, c.cfg, opts, ts)
			assertGridsBitwiseEqual(t, "forced migration", single.Grid, dist[0].Grid)

			d := dist[0].Exec
			if d.MigratedTasks != len(plan) {
				t.Errorf("migrated %d tasks, plan scripted %d", d.MigratedTasks, len(plan))
			}
			if d.StealsRemote != len(plan) {
				t.Errorf("folded StealsRemote = %d, want %d", d.StealsRemote, len(plan))
			}
			sim, err := Simulate(c.v, c.cfg, SimOptions{
				Machine: machineForTest(),
				Steal:   &SimSteal{Ranks: 2, Force: plan},
			})
			if err != nil {
				t.Fatal(err)
			}
			if sim.MigratedTasks != d.MigratedTasks || sim.MigratedBytes != d.MigratedBytes {
				t.Errorf("sim migration (%d tasks, %d B) != real (%d, %d)",
					sim.MigratedTasks, sim.MigratedBytes, d.MigratedTasks, d.MigratedBytes)
			}
			if d.Messages != single.Exec.Messages {
				t.Errorf("halo messages %d != single-process %d", d.Messages, single.Exec.Messages)
			}
		})
	}
}

// TestDistributedStealExactlyOnce runs a forced plan over a faulty wire —
// ~30% of all delivery attempts dropped, or ~30% duplicated and delayed,
// steal messages included — and demands exactly-once migration: each
// scripted task migrates once, the grid stays bitwise identical, and the
// counters prove the schedule fired. Steal messages ride the same reliable
// layer as halos, so on every rank each ack timeout is one retransmit and
// nothing is dropped.
func TestDistributedStealExactlyOnce(t *testing.T) {
	cfg := stealSkewed()
	plan := forcedPlan(t, WF, cfg, 2, 0, 1, 3)
	ts := connectMeshN(t, 2)
	base := runtime.Options{Workers: 1}
	single, err := RunReal(WF, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []fault.Plan{{Seed: 7, Drop: 0.3}, {Seed: 7, Dup: 0.3, Delay: 0.3}} {
		opts := base
		opts.Fault = &fp
		opts.Steal = &runtime.StealPolicy{Force: plan}
		dist := runStealMesh(t, WF, cfg, opts, ts)
		assertGridsBitwiseEqual(t, "faulty forced migration", single.Grid, dist[0].Grid)
		d := dist[0].Exec
		if d.MigratedTasks != len(plan) || d.StealsRemote != len(plan) {
			t.Errorf("%+v broke exactly-once: %d migrated / %d remote, plan scripted %d",
				fp, d.MigratedTasks, d.StealsRemote, len(plan))
		}
		if d.Fault.Dropped+d.Fault.Duplicated == 0 || (fp.Drop > 0 && d.Fault.Retransmits == 0) {
			t.Errorf("%+v fired no faults or no retransmits: %+v", fp, d.Fault)
		}
		for r, res := range dist {
			if f := res.Exec.Fault; f.Timeouts != f.Retransmits || res.Exec.Dropped != 0 {
				t.Errorf("%+v rank %d: %d timeouts vs %d retransmits, %d dropped", fp, r, f.Timeouts, f.Retransmits, res.Exec.Dropped)
			}
		}
	}
	// No Messages parity here: retransmitted deliveries count, so a lossy
	// wire legitimately carries more messages than a clean one. Exactly-once
	// is the grid equality plus the exact migration count above.
}

// TestDistributedStealPolicyMismatch hands only the victim a forced plan:
// the thief, running without Options.Steal, must fail the run at the first
// steal message, and the victim with it, instead of stranding the migration.
func TestDistributedStealPolicyMismatch(t *testing.T) {
	cfg := stealSkewed()
	plan := forcedPlan(t, WF, cfg, 2, 0, 1, 1)
	ts := connectMeshN(t, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range ts {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			opts := runtime.Options{Workers: 1, Dist: &runtime.Dist{Rank: r, Ranks: 2, Net: ts[r]}}
			if r == 0 {
				opts.Steal = &runtime.StealPolicy{Force: plan}
			}
			_, errs[r] = RunReal(WF, cfg, opts)
		}(r)
	}
	wg.Wait()
	if errs[0] == nil || errs[1] == nil || !strings.Contains(errs[1].Error(), "without Options.Steal") {
		t.Fatalf("mismatched policies: victim error %v, thief error %v", errs[0], errs[1])
	}
}
