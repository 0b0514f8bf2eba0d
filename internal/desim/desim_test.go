package desim

import (
	"testing"
	"time"

	"castencil/internal/machine"
	"castencil/internal/netsim"
	"castencil/internal/ptg"
	"castencil/internal/trace"
)

func tid(class string, i, j, k int) ptg.TaskID { return ptg.TaskID{Class: class, I: i, J: j, K: k} }

func constCost(d time.Duration) CostFn {
	return func(*ptg.Task) time.Duration { return d }
}

func chainGraph(t *testing.T, length, nodes int, bytes int) *ptg.Graph {
	t.Helper()
	b := ptg.NewBuilder(nodes)
	for i := 0; i < length; i++ {
		if _, err := b.AddTask(ptg.Task{ID: tid("t", i, 0, 0), Node: int32(i % nodes)}); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			d := ptg.Dep{}
			if (i-1)%nodes != i%nodes {
				d.Bytes = bytes
			}
			if err := b.AddDep(tid("t", i, 0, 0), tid("t", i-1, 0, 0), d); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestChainMakespanLocal(t *testing.T) {
	g := chainGraph(t, 10, 1, 0)
	res, err := Run(g, Options{Cores: 4, Cost: constCost(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 10*time.Millisecond {
		t.Errorf("makespan = %v, want 10ms (serial chain)", res.Makespan)
	}
	if res.Tasks != 10 {
		t.Errorf("tasks = %d", res.Tasks)
	}
}

func TestParallelTasksUseAllCores(t *testing.T) {
	// 8 independent tasks, 4 cores => two waves.
	b := ptg.NewBuilder(1)
	for i := 0; i < 8; i++ {
		b.AddTask(ptg.Task{ID: tid("t", i, 0, 0), Node: 0})
	}
	g, _ := b.Build()
	res, err := Run(g, Options{Cores: 4, Cost: constCost(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 2*time.Millisecond {
		t.Errorf("makespan = %v, want 2ms", res.Makespan)
	}
	if res.BusyTime[0] != 8*time.Millisecond {
		t.Errorf("busy = %v, want 8ms", res.BusyTime[0])
	}
	if occ := res.Occupancy(0, 4); occ != 1 {
		t.Errorf("occupancy = %v, want 1", occ)
	}
}

func TestCoreContentionSerializes(t *testing.T) {
	b := ptg.NewBuilder(1)
	for i := 0; i < 5; i++ {
		b.AddTask(ptg.Task{ID: tid("t", i, 0, 0), Node: 0})
	}
	g, _ := b.Build()
	res, err := Run(g, Options{Cores: 1, Cost: constCost(2 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 10*time.Millisecond {
		t.Errorf("makespan = %v, want 10ms on one core", res.Makespan)
	}
}

func TestCrossNodeChainIncludesTransfer(t *testing.T) {
	net := machine.NaCL().Net
	fabric := netsim.NewFabric(net, 2)
	g := chainGraph(t, 2, 2, 1<<20)
	res, err := Run(g, Options{Cores: 1, Cost: constCost(time.Millisecond), Fabric: fabric})
	if err != nil {
		t.Fatal(err)
	}
	transfer := 2*fabric.Serialization(1<<20) + net.Latency
	want := 2*time.Millisecond + transfer
	if res.Makespan != want {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.Messages != 1 || res.BytesSent != 1<<20 {
		t.Errorf("messages/bytes = %d/%d", res.Messages, res.BytesSent)
	}
}

func TestOverlapHidesCommunication(t *testing.T) {
	// Node 0: a producer sends to node 1 and then continues with a long
	// local chain. Node 1's consumer waits for the message. With enough
	// local work, communication is fully hidden: makespan equals the local
	// chain length.
	b := ptg.NewBuilder(2)
	b.AddTask(ptg.Task{ID: tid("p", 0, 0, 0), Node: 0})
	for i := 1; i <= 10; i++ {
		b.AddTask(ptg.Task{ID: tid("w", i, 0, 0), Node: 0})
		prev := tid("p", 0, 0, 0)
		if i > 1 {
			prev = tid("w", i-1, 0, 0)
		}
		b.AddDep(tid("w", i, 0, 0), prev, ptg.Dep{})
	}
	b.AddTask(ptg.Task{ID: tid("c", 0, 0, 0), Node: 1})
	b.AddDep(tid("c", 0, 0, 0), tid("p", 0, 0, 0), ptg.Dep{Bytes: 4096})
	g, _ := b.Build()
	fabric := netsim.NewFabric(machine.NaCL().Net, 2)
	res, err := Run(g, Options{Cores: 2, Cost: constCost(time.Millisecond), Fabric: fabric})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 11*time.Millisecond {
		t.Errorf("makespan = %v, want 11ms (comm fully overlapped)", res.Makespan)
	}
}

func TestPriorityPolicyOrdersWaiters(t *testing.T) {
	// Single core, a root task, then two waiters with different priority:
	// the high one runs first although the low one was enqueued first.
	b := ptg.NewBuilder(1)
	b.AddTask(ptg.Task{ID: tid("root", 0, 0, 0), Node: 0})
	b.AddTask(ptg.Task{ID: tid("low", 0, 0, 0), Node: 0, Priority: 1})
	b.AddTask(ptg.Task{ID: tid("high", 0, 0, 0), Node: 0, Priority: 9})
	b.AddDep(tid("low", 0, 0, 0), tid("root", 0, 0, 0), ptg.Dep{})
	b.AddDep(tid("high", 0, 0, 0), tid("root", 0, 0, 0), ptg.Dep{})
	g, _ := b.Build()
	tr := trace.New()
	if _, err := Run(g, Options{Cores: 1, Cost: constCost(time.Millisecond), Trace: tr, TraceNode: -1}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range tr.Events() {
		got = append(got, e.ID.Class)
	}
	if got[1] != "high" {
		t.Errorf("priority order = %v", got)
	}
}

func TestDeterminism(t *testing.T) {
	g := chainGraph(t, 50, 4, 1024)
	run := func() time.Duration {
		fabric := netsim.NewFabric(machine.Stampede2().Net, 4)
		res, err := Run(g, Options{Cores: 3, Cost: constCost(123 * time.Microsecond), Fabric: fabric})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic makespan: %v vs %v", a, b)
	}
}

func TestTraceNodeFilter(t *testing.T) {
	g := chainGraph(t, 10, 2, 64)
	tr := trace.New()
	fabric := netsim.NewFabric(machine.NaCL().Net, 2)
	_, err := Run(g, Options{Cores: 1, Cost: constCost(time.Millisecond), Fabric: fabric, Trace: tr, TraceNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5 {
		t.Errorf("trace has %d events, want 5 (node 1 only)", tr.Len())
	}
	for _, e := range tr.Events() {
		if e.Node != 1 {
			t.Errorf("event from node %d leaked into filtered trace", e.Node)
		}
	}
}

func TestValidation(t *testing.T) {
	g := chainGraph(t, 3, 1, 0)
	if _, err := Run(g, Options{Cores: 0, Cost: constCost(1)}); err == nil {
		t.Error("zero cores must be rejected")
	}
	if _, err := Run(g, Options{Cores: 1}); err == nil {
		t.Error("missing cost fn must be rejected")
	}
	gc := chainGraph(t, 3, 2, 8)
	if _, err := Run(gc, Options{Cores: 1, Cost: constCost(1)}); err == nil {
		t.Error("cross-node graph without fabric must be rejected")
	}
	small := netsim.NewFabric(machine.NaCL().Net, 1)
	if _, err := Run(gc, Options{Cores: 1, Cost: constCost(1), Fabric: small}); err == nil {
		t.Error("undersized fabric must be rejected")
	}
}

func TestNegativeCostClamped(t *testing.T) {
	g := chainGraph(t, 3, 1, 0)
	res, err := Run(g, Options{Cores: 1, Cost: constCost(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 {
		t.Errorf("makespan = %v, want 0", res.Makespan)
	}
}

func TestBusyTimeAndOccupancy(t *testing.T) {
	// 6 independent 1ms tasks on 3 cores: busy 6ms, makespan 2ms,
	// occupancy 1.0.
	b := ptg.NewBuilder(1)
	for i := 0; i < 6; i++ {
		b.AddTask(ptg.Task{ID: tid("t", i, 0, 0), Node: 0})
	}
	g, _ := b.Build()
	res, err := Run(g, Options{Cores: 3, Cost: constCost(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if res.BusyTime[0] != 6*time.Millisecond {
		t.Errorf("busy = %v", res.BusyTime[0])
	}
	if occ := res.Occupancy(0, 3); occ != 1 {
		t.Errorf("occupancy = %v", occ)
	}
	if occ := res.Occupancy(0, 0); occ != 0 {
		t.Errorf("zero-core occupancy = %v", occ)
	}
}

func TestWaitQueueFIFOAmongEqualPriorities(t *testing.T) {
	// Equal priorities must preserve ready order.
	b := ptg.NewBuilder(1)
	b.AddTask(ptg.Task{ID: tid("root", 0, 0, 0), Node: 0})
	for i := 0; i < 4; i++ {
		b.AddTask(ptg.Task{ID: tid("w", i, 0, 0), Node: 0, Priority: 5})
		b.AddDep(tid("w", i, 0, 0), tid("root", 0, 0, 0), ptg.Dep{})
	}
	g, _ := b.Build()
	tr := trace.New()
	if _, err := Run(g, Options{Cores: 1, Cost: constCost(time.Millisecond), Trace: tr, TraceNode: -1}); err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	for i := 1; i < len(events); i++ {
		if events[i].ID.Class == "w" && events[i-1].ID.Class == "w" {
			if events[i].ID.I < events[i-1].ID.I {
				t.Errorf("equal-priority tasks reordered: %v after %v", events[i].ID, events[i-1].ID)
			}
		}
	}
}
