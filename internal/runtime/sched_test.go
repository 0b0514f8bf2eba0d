package runtime

import (
	"fmt"
	"testing"
	"time"

	"castencil/internal/ptg"
	"castencil/internal/trace"
)

// TestWorkStealingChain re-runs the cross-node pipeline tests at several
// worker counts: same result, same message accounting.
func TestWorkStealingChain(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		g := buildChain(t, 20, 3)
		res, err := Run(g, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Completed != 20 || res.Messages != 19 || res.Dropped != 0 {
			t.Fatalf("workers=%d: completed=%d messages=%d dropped=%d",
				workers, res.Completed, res.Messages, res.Dropped)
		}
		if got := chainValue(res, 19, 3); got != 20 {
			t.Errorf("workers=%d: final value = %d, want 20", workers, got)
		}
	}
}

// fanOutGraph is one root on node 0 fanning out to `fan` children, each
// followed by a chain of `depth` extra tasks. All tasks run `body`.
func fanOutGraph(t testing.TB, fan, depth int, body func()) *ptg.Graph {
	b := ptg.NewBuilder(1)
	root := ptg.TaskID{Class: "root"}
	if _, err := b.AddTask(ptg.Task{ID: root, Node: 0, Run: func(ptg.Env) {}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fan; i++ {
		prev := root
		for d := 0; d <= depth; d++ {
			id := ptg.TaskID{Class: "w", I: i, J: d}
			if _, err := b.AddTask(ptg.Task{ID: id, Node: 0, Run: func(ptg.Env) {
				if body != nil {
					body()
				}
			}}); err != nil {
				t.Fatal(err)
			}
			if err := b.AddDep(id, prev, ptg.Dep{}); err != nil {
				t.Fatal(err)
			}
			prev = id
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWorkStealingActuallySteals forces the steal path: one root fans out
// onto the completing worker's own deque while every task is slow enough
// that siblings must wake and steal to participate.
func TestWorkStealingActuallySteals(t *testing.T) {
	g := fanOutGraph(t, 32, 0, func() { time.Sleep(time.Millisecond) })
	tr := trace.New()
	res, err := Run(g, Options{Workers: 4, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 33 {
		t.Fatalf("completed = %d, want 33", res.Completed)
	}
	if res.NodeSteals[0] == 0 {
		t.Error("no steals recorded: siblings never took work from the fanning worker's deque")
	}
	stolen := 0
	for _, e := range tr.Events() {
		if e.Stolen {
			stolen++
		}
	}
	if stolen != res.NodeSteals[0] {
		t.Errorf("trace records %d stolen tasks, Result says %d", stolen, res.NodeSteals[0])
	}
}

// TestWorkStealingLocalityChains checks locality-first placement: a single
// worker running chains must take nearly everything from its own deque.
func TestWorkStealingLocalityChains(t *testing.T) {
	g := fanOutGraph(t, 4, 50, nil)
	res, err := Run(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 4*51 + 1
	if res.Completed != total {
		t.Fatalf("completed = %d, want %d", res.Completed, total)
	}
	// Only the root arrives via the injection queue; every successor is
	// pushed to (and popped from) the lone worker's own deque.
	if res.NodeLocalHits[0] != total-1 {
		t.Errorf("local hits = %d, want %d", res.NodeLocalHits[0], total-1)
	}
	if res.NodeSteals[0] != 0 {
		t.Errorf("steals = %d with one worker", res.NodeSteals[0])
	}
}

// TestStealStormTinyTasks is the steal-storm stress: thousands of tiny
// tasks released from single points, many workers hammering the deques.
// Meant to run under -race (the CI race gate covers this package).
func TestStealStormTinyTasks(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		g := fanOutGraph(t, 500, 3, nil)
		res, err := Run(g, Options{Workers: 8})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := 500*4 + 1
		if res.Completed != want || res.Dropped != 0 {
			t.Fatalf("trial %d: completed=%d dropped=%d want %d,0", trial, res.Completed, res.Dropped, want)
		}
		if hits := res.NodeLocalHits[0] + res.NodeSteals[0]; hits > res.Completed {
			t.Fatalf("trial %d: localHits+steals = %d > completed %d", trial, hits, res.Completed)
		}
	}
}

// TestWorkStealingWorkersOutnumberTasks: workers >> tasks must neither
// deadlock nor drop work — most workers just park and exit. The chain
// sleeps so the run outlives worker spin-up and the idle 15 must park.
func TestWorkStealingWorkersOutnumberTasks(t *testing.T) {
	g := fanOutGraph(t, 1, 5, func() { time.Sleep(time.Millisecond) })
	res, err := Run(g, Options{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 7 || res.Dropped != 0 {
		t.Fatalf("completed=%d dropped=%d", res.Completed, res.Dropped)
	}
	if res.NodeParks[0] == 0 {
		t.Error("16 workers on a sequential 7-task chain should have parked at least once")
	}
}

// TestWorkStealingRandomDAGStress mirrors TestRandomDAGStress across worker
// counts, cross-node messages included.
func TestWorkStealingRandomDAGStress(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		nodes := trial%3 + 1
		g := buildChain(t, 40, nodes)
		res, err := Run(g, Options{Workers: trial%4 + 1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Completed != 40 {
			t.Fatalf("trial %d: completed %d of 40", trial, res.Completed)
		}
	}
}

// TestWorkStealingPanicPropagates: failure handling must survive the deque
// worker loop (parked siblings wake and exit).
func TestWorkStealingPanicPropagates(t *testing.T) {
	b := ptg.NewBuilder(1)
	b.AddTask(ptg.Task{ID: ptg.TaskID{Class: "boom"}, Node: 0, Run: func(ptg.Env) { panic("kaboom") }})
	g, _ := b.Build()
	if _, err := Run(g, Options{Workers: 4}); err == nil {
		t.Error("panic not propagated with four workers")
	}
}

// TestSchedulerEquivalence runs the same dataflow at every worker count and
// checks the computed values agree — the runtime-level half of the
// determinism invariant (the stencil-level half lives in internal/core).
func TestSchedulerEquivalence(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		g := buildChain(t, 24, 3)
		res, err := Run(g, Options{Workers: workers})
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		if res.Completed != 24 || res.Dropped != 0 {
			t.Fatalf("w=%d: completed=%d dropped=%d", workers, res.Completed, res.Dropped)
		}
		if got := chainValue(res, 23, 3); got != 24 {
			t.Errorf("w=%d: final value = %d, want 24", workers, got)
		}
	}
}

// BenchmarkSchedulerThroughput measures pure scheduling overhead: a
// prebuilt single-node graph of tiny tasks (wide fan-out, short chains) run
// to completion across worker counts.
func BenchmarkSchedulerThroughput(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			g := fanOutGraph(b, 64, 30, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(g, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Dropped != 0 {
					b.Fatalf("dropped %d", res.Dropped)
				}
			}
			b.ReportMetric(float64(64*31+1), "tasks/op")
		})
	}
}
