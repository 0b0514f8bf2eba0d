package castencil_test

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	castencil "castencil"
)

// sameGrids reports bitwise equality of two gathered result grids.
func sameGrids(t *testing.T, a, b *castencil.Tile) bool {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("grid shapes differ: %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			if math.Float64bits(a.At(r, c)) != math.Float64bits(b.At(r, c)) {
				return false
			}
		}
	}
	return true
}

func TestSimRequiresMachine(t *testing.T) {
	cfg := castencil.Config{N: 2880, TileRows: 288, P: 2, Steps: 5, StepSize: 5}
	if _, err := castencil.Sim(castencil.CA, cfg); err == nil {
		t.Fatal("Sim without WithMachine should fail")
	}
}

// TestSimRefusesFaults: the simulator models lossless runs, so a fault plan
// or a recovery policy is an error.
func TestSimRefusesFaults(t *testing.T) {
	cfg := castencil.Config{N: 64, TileRows: 16, P: 2, Steps: 4, StepSize: 2}
	nacl := castencil.WithMachine(castencil.NaCL())
	for name, opt := range map[string]castencil.Option{
		"fault plan": castencil.WithFaultPlan(&castencil.FaultPlan{Seed: 1, Drop: 0.01}),
		"recovery":   castencil.WithRecovery(castencil.DefaultFaultRecovery()),
	} {
		if _, err := castencil.Sim(castencil.CA, cfg, nacl, opt); err == nil {
			t.Errorf("Sim with a %s: no error", name)
		}
	}
}

// TestFacadeFaultDeterminism is the facade-level determinism claim: a
// maskable fault schedule (drops, duplicates, delays — all recoverable)
// leaves the numerics bitwise identical to the clean run, on both variants
// and both code paths (p2p and coalesced), while the fault counters show
// the schedule actually fired.
func TestFacadeFaultDeterminism(t *testing.T) {
	cfg := castencil.Config{N: 48, TileRows: 6, P: 2, Steps: 12, StepSize: 4}
	plan := &castencil.FaultPlan{Seed: 23, Drop: 0.1, Dup: 0.1, Delay: 0.2, DelayBy: 100 * time.Microsecond}
	for _, v := range []castencil.Variant{castencil.Base, castencil.CA} {
		for _, mode := range []castencil.CoalesceMode{castencil.CoalesceOff, castencil.CoalesceStep} {
			clean, err := castencil.Run(v, cfg, castencil.WithWorkers(2), castencil.WithCoalesce(mode))
			if err != nil {
				t.Fatal(err)
			}
			faulty, err := castencil.Run(v, cfg, castencil.WithWorkers(2), castencil.WithCoalesce(mode),
				castencil.WithFaultPlan(plan))
			if err != nil {
				t.Fatal(err)
			}
			if !faulty.Exec.Fault.Any() {
				t.Errorf("%v/%v: plan injected nothing", v, mode)
			}
			if !sameGrids(t, clean.Grid, faulty.Grid) {
				t.Errorf("%v/%v: faulted grid diverged from clean run", v, mode)
			}
		}
	}
}

// TestFacadeFaultReportPausedNode pauses one node for far longer than the
// recovery deadline: the run must terminate promptly with a structured
// FaultReport blaming that node, not hang.
func TestFacadeFaultReportPausedNode(t *testing.T) {
	cfg := castencil.Config{N: 48, TileRows: 6, P: 2, Steps: 12, StepSize: 4}
	plan := &castencil.FaultPlan{
		Seed:   1,
		Pauses: []castencil.NodePause{{Node: 1, AfterTasks: 2, Pause: 10 * time.Second}},
	}
	rec := &castencil.FaultRecovery{Timeout: 5 * time.Millisecond, Deadline: 40 * time.Millisecond}
	start := time.Now()
	_, err := castencil.Run(castencil.Base, cfg,
		castencil.WithWorkers(2),
		castencil.WithFaultPlan(plan),
		castencil.WithRecovery(rec))
	if err == nil {
		t.Fatal("run with a 10s node pause and a 40ms deadline should fail")
	}
	var rep *castencil.FaultReport
	if !errors.As(err, &rep) {
		t.Fatalf("error is not a *FaultReport: %v", err)
	}
	if rep.ID.Dst != 1 {
		t.Errorf("report blames node %d, want the paused node 1 (%v)", rep.ID.Dst, rep)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("degradation took %v; the 10s pause leaked into the run", elapsed)
	}
}

// TestFacadeContextCancellation exercises the service layer's load-bearing
// plumbing: WithContext threads a context through both engines, and a
// cancelled or expired context surfaces as a *CancelError that unwraps to
// the context error.
func TestFacadeContextCancellation(t *testing.T) {
	cfg := castencil.Config{N: 64, TileRows: 8, P: 2, Steps: 50, StepSize: 4}

	t.Run("real", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := castencil.Run(castencil.CA, cfg, castencil.WithContext(ctx))
		var ce *castencil.CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("error %v is not a *CancelError", err)
		}
		if ce.Engine != "runtime" {
			t.Errorf("engine = %q", ce.Engine)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error %v does not unwrap to context.Canceled", err)
		}
	})

	t.Run("sim", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := castencil.Sim(castencil.CA, cfg,
			castencil.WithMachine(castencil.NaCL()), castencil.WithContext(ctx))
		var ce *castencil.CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("error %v is not a *CancelError", err)
		}
		if ce.Engine != "desim" {
			t.Errorf("engine = %q", ce.Engine)
		}
	})

	t.Run("progress", func(t *testing.T) {
		var last atomic.Int64
		res, err := castencil.Run(castencil.Base, cfg,
			castencil.WithContext(context.Background()),
			castencil.WithProgress(func(done, total int64) {
				for {
					cur := last.Load()
					if done <= cur || last.CompareAndSwap(cur, done) {
						return
					}
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Exec.Completed == 0 || last.Load() != int64(res.Exec.Completed) {
			t.Errorf("progress saw %d, run completed %d tasks", last.Load(), res.Exec.Completed)
		}
	})
}
