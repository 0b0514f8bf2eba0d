package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	castencil "castencil"
)

// waitGoroutines fails the test if the goroutine count does not settle back
// to at most base within 15s (cancellation and shutdown must not leak; the
// generous window absorbs race-detector scheduling on a loaded 1-CPU host).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, j *Job, want State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if s := j.State(); s == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s (err: %v)", j.ID, s, want, j.Err())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func shutdownNow(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

func quickSpec(seed uint64) Spec {
	return Spec{Engine: "real", Variant: "ca", N: 64, Tile: 16, Steps: 6, StepSize: 3, Seed: seed, Workers: 1}
}

// gridHash is the determinism fingerprint: sha256 over the grid's
// canonical byte form (the same bytes /result serves).
func gridHash(res *castencil.RealResult) [32]byte {
	return sha256.Sum256(castencil.GridBytes(res.Grid))
}

// TestConcurrentJobsDeterministic is the service's core guarantee: N jobs
// running concurrently under the manager produce bitwise-identical grids to
// direct castencil.Run calls with the same seeds, whatever interleaving the
// executor pool and worker-budget division produce.
func TestConcurrentJobsDeterministic(t *testing.T) {
	seeds := []uint64{1, 7, 42, 7} // includes a duplicate: equal seeds, equal bits
	want := make(map[uint64][32]byte)
	for _, s := range seeds {
		if _, ok := want[s]; ok {
			continue
		}
		cfg := castencil.Config{N: 64, TileRows: 16, P: 1, Steps: 6, StepSize: 3, Init: castencil.HashInit(s)}
		res, err := castencil.Run(castencil.CA, cfg, castencil.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		want[s] = gridHash(res)
	}

	m := New(Config{MaxJobs: 3, QueueSize: 16})
	defer shutdownNow(t, m)
	var jobs []*Job
	for _, s := range seeds {
		j, err := m.Submit(quickSpec(s))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		waitState(t, j, StateDone, 30*time.Second)
		got := gridHash(j.RealResult())
		if got != want[seeds[i]] {
			t.Errorf("job %s (seed %d): grid differs from direct Run", j.ID, seeds[i])
		}
	}
}

// TestQueueFullBackpressure checks the bounded queue rejects explicitly
// instead of blocking: with one busy executor and a full queue, the next
// submit fails with ErrQueueFull and the rejection counter moves.
func TestQueueFullBackpressure(t *testing.T) {
	m := New(Config{MaxJobs: 1, QueueSize: 2})
	// A blocker big enough to outlive three Submit calls.
	blocker, err := m.Submit(Spec{N: 256, Tile: 32, Steps: 400, StepSize: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning, 10*time.Second)
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(quickSpec(1)); err != nil {
			t.Fatalf("queue fill %d: %v", i, err)
		}
	}
	_, err = m.Submit(quickSpec(1))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit: got %v, want ErrQueueFull", err)
	}
	if n := m.mRejected.Value(); n != 1 {
		t.Errorf("rejected counter = %d, want 1", n)
	}
	// Cancelling the blocker frees the slot; force-drain cleans the rest.
	if err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expire instantly: exercise the force-cancel path
	_ = m.Shutdown(ctx)
	for _, j := range m.Jobs() {
		if s := j.State(); !s.Terminal() {
			t.Errorf("job %s not terminal after shutdown: %s", j.ID, s)
		}
	}
}

// TestCancelRunningRealJob cancels a real-engine job mid-flight: the job
// must report cancelled promptly (not run to completion) and the manager
// must not leak goroutines.
func TestCancelRunningRealJob(t *testing.T) {
	base := runtime.NumGoroutine()
	m := New(Config{MaxJobs: 1, QueueSize: 4})
	j, err := m.Submit(Spec{N: 256, Tile: 32, Steps: 400, StepSize: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning, 10*time.Second)
	// Let it make some progress so the cancel is genuinely mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for j.progDone.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateCancelled, 30*time.Second)
	var ce *castencil.CancelError
	if !errors.As(j.Err(), &ce) {
		t.Errorf("err = %v, want *CancelError", j.Err())
	} else if ce.Done >= ce.Total {
		t.Errorf("cancelled job completed all %d tasks", ce.Total)
	}
	shutdownNow(t, m)
	waitGoroutines(t, base)
}

// TestCancelRunningSimJob cancels a virtual-time job mid-replay.
func TestCancelRunningSimJob(t *testing.T) {
	m := New(Config{MaxJobs: 1, QueueSize: 4})
	defer shutdownNow(t, m)
	// Big enough that the cancel (issued the moment the job goes running)
	// always lands before the replay completes: the graph build alone
	// outlasts the sub-millisecond gap, and a cancel during build is
	// caught by the engine's entry check, one during replay by its event
	// polling.
	j, err := m.Submit(Spec{Engine: "sim", N: 1024, Tile: 32, Steps: 20, StepSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning, 10*time.Second)
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateCancelled, 30*time.Second)
	if !errors.Is(j.Err(), context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", j.Err())
	}
}

// TestCancelQueuedJob cancels before an executor picks the job up: the job
// goes terminal immediately and never runs.
func TestCancelQueuedJob(t *testing.T) {
	m := New(Config{MaxJobs: 1, QueueSize: 4})
	blocker, err := m.Submit(Spec{N: 256, Tile: 32, Steps: 400, StepSize: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning, 10*time.Second)
	queued, err := m.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if s := queued.State(); s != StateCancelled {
		t.Fatalf("queued job state = %s, want cancelled", s)
	}
	if queued.RealResult() != nil {
		t.Error("cancelled queued job has a result")
	}
	if err := m.Cancel("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id: got %v, want ErrNotFound", err)
	}
	_ = m.Cancel(blocker.ID)
	shutdownNow(t, m)
}

// TestJobDeadline submits a job whose timeout_ms cannot be met: it must
// stop promptly and report failed with a deadline error.
func TestJobDeadline(t *testing.T) {
	m := New(Config{MaxJobs: 1, QueueSize: 4})
	defer shutdownNow(t, m)
	j, err := m.Submit(Spec{N: 256, Tile: 32, Steps: 400, StepSize: 8, Workers: 1, TimeoutMS: 30})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed, 30*time.Second)
	if !errors.Is(j.Err(), context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", j.Err())
	}
}

// TestPriorityDispatch: with one executor busy, a high-priority job
// submitted after a low-priority one must start first.
func TestPriorityDispatch(t *testing.T) {
	m := New(Config{MaxJobs: 1, QueueSize: 8})
	defer shutdownNow(t, m)
	blocker, err := m.Submit(Spec{N: 128, Tile: 32, Steps: 100, StepSize: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning, 10*time.Second)
	low, err := m.Submit(withPriority(quickSpec(1), "low"))
	if err != nil {
		t.Fatal(err)
	}
	high, err := m.Submit(withPriority(quickSpec(2), "high"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, low, StateDone, 30*time.Second)
	waitState(t, high, StateDone, 30*time.Second)
	high.mu.Lock()
	hs := high.started
	high.mu.Unlock()
	low.mu.Lock()
	ls := low.started
	low.mu.Unlock()
	if !hs.Before(ls) {
		t.Errorf("high started %v, low %v: high should dispatch first", hs, ls)
	}
}

func withPriority(s Spec, p string) Spec { s.Priority = p; return s }

// TestGracefulShutdown drains queued and running work, rejects new
// submissions, and returns with no executor goroutines left.
func TestGracefulShutdown(t *testing.T) {
	base := runtime.NumGoroutine()
	m := New(Config{MaxJobs: 2, QueueSize: 8})
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := m.Submit(quickSpec(uint64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	for _, j := range jobs {
		if s := j.State(); s != StateDone {
			t.Errorf("job %s = %s after graceful drain, want done", j.ID, s)
		}
	}
	if _, err := m.Submit(quickSpec(1)); !errors.Is(err, ErrDraining) {
		t.Errorf("post-shutdown submit: got %v, want ErrDraining", err)
	}
	waitGoroutines(t, base)
}

// TestSpecValidation: bad specs are rejected at admission with a useful
// error, before anything queues.
func TestSpecValidation(t *testing.T) {
	m := New(Config{})
	defer shutdownNow(t, m)
	cases := []Spec{
		{},                                    // no geometry
		{N: 64, Tile: 16, Steps: 4, Nodes: 3}, // not a perfect square
		{N: 64, Tile: 16, Steps: 4, Engine: "gpu"},
		{N: 64, Tile: 16, Steps: 4, Variant: "fancy"},
		{N: 64, Tile: 16, Steps: 4, Plan: "manual"},
		{N: 64, Tile: 16, Steps: 4, Priority: "urgent"},
		{N: 64, Tile: 16, Steps: 4, Workers: -1},
		{N: 64, Tile: 16, Steps: 4, Machine: "Cray-1"},
		{N: 64, Tile: 16, Steps: 4, TimeoutMS: -1},
		{N: 64, Tile: 16, Steps: 4, StepSize: 64, Variant: "ca"},  // step > tile
		{N: 64, Tile: 16, Steps: 4, Wavefront: 64, Variant: "wf"}, // width > tile
		{N: 64, Tile: 8, Steps: 2},                                // default CA step 15 > tile
		{N: 64, Tile: 16, Steps: 4, Coalesce: "sideways"},
		{N: 64, Tile: 16, Steps: 4, Machine: "Frontier"},
		{N: 64, Tile: 16, Steps: 4, Fault: "drop=2"},
		{N: 64, Tile: 16, Steps: 4, Engine: "sim", Fault: "drop=0.01,seed=1"}, // the simulator has no faults
	}
	hostile := []Spec{ // must be refused in O(1), never built
		{N: 1, Tile: 1, Steps: 1, Nodes: math.MaxInt64},
		{N: 1, Tile: 1, Steps: 1, Nodes: 1 << 62},
		{Variant: "base", N: 1 << 32, Tile: 1, Steps: 1},       // 2^64 tiles wrap an int to 0
		{Variant: "base", N: 1 << 31, Tile: 1, Steps: 1},       // 2^62 tiles
		{Variant: "base", N: 1 << 20, Tile: 1, Steps: 1 << 30}, // 2^40 tiles x 2^30 steps
		{N: 1 << 30, Tile: 1 << 15, Steps: 1},                  // 2^31 tasks overflow int32
	}
	for i, spec := range append(cases, hostile...) {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("case %d (%+v): accepted, want rejection", i, spec)
		}
	}
	for _, spec := range hostile {
		best := time.Hour
		for i := 0; i < 3; i++ {
			start := time.Now()
			_, _ = NewJob(spec)
			best = min(best, time.Since(start))
		}
		if best > time.Millisecond {
			t.Errorf("rejecting %+v took %v", spec, best)
		}
	}
	if n := len(m.Jobs()); n != 0 {
		t.Errorf("%d jobs queued from invalid specs", n)
	}
}

// TestAutoPlanJob submits plan=auto: the job must record the planner's
// decision and still produce the exact grid for the chosen configuration.
func TestAutoPlanJob(t *testing.T) {
	m := New(Config{MaxJobs: 1, QueueSize: 4})
	defer shutdownNow(t, m)
	j, err := m.Submit(Spec{Plan: "auto", N: 64, Tile: 16, Steps: 6, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone, 60*time.Second)
	plan := j.Plan()
	if plan == nil {
		t.Fatal("plan=auto job recorded no plan")
	}
	v := j.Snapshot()
	if v.PlanStepSize == nil || *v.PlanStepSize != plan.BestStepSize {
		t.Errorf("view plan step = %v, want %d", v.PlanStepSize, plan.BestStepSize)
	}
	if v.PlanFamily == nil || *v.PlanFamily != plan.BestFamily.String() {
		t.Errorf("view plan family = %v, want %q", v.PlanFamily, plan.BestFamily)
	}
	// Replay the planner's choice directly: grids must match bitwise.
	variant, cfg := plan.Apply(castencil.Config{N: 64, TileRows: 16, P: 1, Steps: 6, Init: castencil.HashInit(3)})
	res, err := castencil.Run(variant, cfg, castencil.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	got := gridHash(j.RealResult())
	want := gridHash(res)
	if got != want {
		t.Error("plan=auto grid differs from direct run of the planned configuration")
	}
}

// TestWavefrontJob submits variant=wf and checks the service path produces
// the exact grid a direct library run does.
func TestWavefrontJob(t *testing.T) {
	m := New(Config{MaxJobs: 1, QueueSize: 4})
	defer shutdownNow(t, m)
	j, err := m.Submit(Spec{Engine: "real", Variant: "wf", N: 64, Tile: 16, Steps: 8, Wavefront: 4, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone, 60*time.Second)
	cfg := castencil.Config{N: 64, TileRows: 16, P: 1, Steps: 8, Wavefront: 4, Init: castencil.HashInit(5)}
	res, err := castencil.Run(castencil.WF, cfg, castencil.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if gridHash(j.RealResult()) != gridHash(res) {
		t.Error("variant=wf job grid differs from direct run")
	}
}

// TestMetricsWiring: after a mixed workload the registry must expose the
// service families with sane values.
func TestMetricsWiring(t *testing.T) {
	m := New(Config{MaxJobs: 2, QueueSize: 8})
	j1, err := m.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(Spec{Engine: "sim", N: 64, Tile: 16, Steps: 6, StepSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone, 30*time.Second)
	waitState(t, j2, StateDone, 30*time.Second)
	shutdownNow(t, m)
	if n := m.mSubmitted.Value(); n != 2 {
		t.Errorf("submitted = %d, want 2", n)
	}
	if n := m.mTerminal[StateDone].Value(); n != 2 {
		t.Errorf("done = %d, want 2", n)
	}
	if m.mTasks.Value() == 0 {
		t.Error("tasks counter never moved")
	}
	var b bytes.Buffer
	if err := m.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, fam := range []string{
		"stencild_jobs_submitted_total", "stencild_jobs_total",
		"stencild_queue_depth", "stencild_jobs_running",
		"stencild_tasks_executed_total", "stencild_job_duration_seconds_bucket",
		"stencild_job_queue_wait_seconds_count",
	} {
		if !bytes.Contains(b.Bytes(), []byte(fam)) {
			t.Errorf("exposition missing family %s\n%s", fam, out)
		}
	}
}

// TestWorkerBudgetDivision: the manager divides its budget across job
// slots and nodes, flooring at one worker.
func TestWorkerBudgetDivision(t *testing.T) {
	m := New(Config{MaxJobs: 2, WorkerBudget: 8})
	defer shutdownNow(t, m)
	for _, tc := range []struct {
		workers, nodes, want int
	}{
		{0, 1, 4},  // 8 / (2*1)
		{0, 4, 1},  // 8 / (2*4)
		{3, 1, 3},  // explicit request wins
		{0, 16, 1}, // floor at 1
	} {
		spec := Spec{N: 64, Tile: 4, Steps: 2, StepSize: 2, Nodes: tc.nodes, Workers: tc.workers}
		j, err := NewJob(spec)
		if err != nil {
			t.Fatalf("nodes=%d: %v", tc.nodes, err)
		}
		if got := m.workersFor(j); got != tc.want {
			t.Errorf("workers=%d nodes=%d: got %d, want %d", tc.workers, tc.nodes, got, tc.want)
		}
	}
}
