package runtime

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"castencil/internal/fault"
	"castencil/internal/ptg"
	"castencil/internal/trace"
)

func tid(class string, i, j, k int) ptg.TaskID { return ptg.TaskID{Class: class, I: i, J: j, K: k} }

// buildChain makes a cross-node pipeline: t0 on node 0 produces a counter,
// each subsequent task (alternating nodes) increments it. Step i keeps its
// result in general slot i/nodes of node i%nodes (see chainValue); a hop
// across nodes arrives in a buffer slot of the consumer's node.
func buildChain(t *testing.T, length, nodes int) *ptg.Graph {
	t.Helper()
	b := ptg.NewBuilder(nodes)
	for i := 0; i < length; i++ {
		i := i
		node := int32(i % nodes)
		own, prev := b.AllocSlot(node), int32((i-1)/nodes)
		cross := i > 0 && (i-1)%nodes != i%nodes
		var in int32
		if cross {
			in = b.AllocBufSlot(node)
		}
		_, err := b.AddTask(ptg.Task{
			ID:   tid("step", i, 0, 0),
			Node: node,
			Run: func(e ptg.Env) {
				v := 0
				if cross {
					v = int(binary.LittleEndian.Uint64(e.TakeBufSlot(in)))
				} else if i > 0 {
					v = e.GetSlot(prev).(int)
				}
				e.PutSlot(own, v+1)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			dep := ptg.Dep{}
			if cross {
				dep.Bytes = 8
				dep.Pack = func(e ptg.Env) []byte {
					return binary.LittleEndian.AppendUint64(nil, uint64(e.GetSlot(prev).(int)))
				}
				dep.Unpack = func(e ptg.Env, data []byte) { e.PutBufSlot(in, data) }
			}
			if err := b.AddDep(tid("step", i, 0, 0), tid("step", i-1, 0, 0), dep); err != nil {
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

// chainValue reads step i's result from a finished buildChain run over
// nodes nodes.
func chainValue(res *Result, i, nodes int) int {
	return res.Stores[i%nodes].GetSlot(int32(i / nodes)).(int)
}

func TestRunSingleNodeChain(t *testing.T) {
	g := buildChain(t, 10, 1)
	res, err := Run(g, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 10 {
		t.Errorf("completed = %d", res.Completed)
	}
	if res.Messages != 0 {
		t.Errorf("single node sent %d messages", res.Messages)
	}
	if got := chainValue(res, 9, 1); got != 10 {
		t.Errorf("final value = %d, want 10", got)
	}
}

func TestRunCrossNodeChain(t *testing.T) {
	g := buildChain(t, 20, 3)
	res, err := Run(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Every hop crosses nodes (i%3 != (i+1)%3 always), so 19 messages.
	if res.Messages != 19 {
		t.Errorf("messages = %d, want 19", res.Messages)
	}
	if res.BytesSent != 19*8 {
		t.Errorf("bytes = %d, want %d", res.BytesSent, 19*8)
	}
	if final := chainValue(res, 19, 3); final != 20 {
		t.Errorf("final value = %d, want 20", final)
	}
}

func TestRunFanOutFanIn(t *testing.T) {
	// One producer, N parallel consumers on other nodes, one reducer.
	const fan = 16
	b := ptg.NewBuilder(4)
	src := make([]int32, fan) // node 0's slot for consumer i's input
	for i := range src {
		src[i] = b.AllocBufSlot(0)
	}
	b.AddTask(ptg.Task{
		ID: tid("src", 0, 0, 0), Node: 0,
		Run: func(e ptg.Env) {
			for i, s := range src {
				e.PutBufSlot(s, binary.LittleEndian.AppendUint64(nil, uint64(i)))
			}
		},
	})
	var sum atomic.Int64
	for i := 0; i < fan; i++ {
		i := i
		node := int32(i % 4)
		in := src[i]
		if node != 0 {
			in = b.AllocBufSlot(node)
		}
		b.AddTask(ptg.Task{
			ID: tid("mid", i, 0, 0), Node: node,
			Run: func(e ptg.Env) {
				sum.Add(int64(binary.LittleEndian.Uint64(e.TakeBufSlot(in))))
			},
		})
		dep := ptg.Dep{}
		if node != 0 {
			dep.Bytes = 8
			dep.Pack = func(e ptg.Env) []byte { return e.TakeBufSlot(src[i]) }
			dep.Unpack = func(e ptg.Env, data []byte) { e.PutBufSlot(in, data) }
		}
		b.AddDep(tid("mid", i, 0, 0), tid("src", 0, 0, 0), dep)
	}
	b.AddTask(ptg.Task{ID: tid("sink", 0, 0, 0), Node: 1, Run: func(e ptg.Env) {}})
	for i := 0; i < fan; i++ {
		dep := ptg.Dep{Bytes: 1}
		dep.Pack = func(e ptg.Env) []byte { return []byte{1} }
		b.AddDep(tid("sink", 0, 0, 0), tid("mid", i, 0, 0), dep)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != fan*(fan-1)/2 {
		t.Errorf("sum = %d, want %d", sum.Load(), fan*(fan-1)/2)
	}
}

// TestRunAllPolicies runs a two-node chain at two workers per node, where
// the injection queue and the workers' deques both feed the workers.
func TestRunAllPolicies(t *testing.T) {
	res, err := Run(buildChain(t, 30, 2), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 30 {
		t.Errorf("completed %d", res.Completed)
	}
}

func TestPriorityOrderRespected(t *testing.T) {
	// Single worker, tasks all ready at once: must run in priority order.
	b := ptg.NewBuilder(1)
	var mu sync.Mutex
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		b.AddTask(ptg.Task{
			ID: tid("t", i, 0, 0), Node: 0, Priority: int32(i),
			Run: func(e ptg.Env) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			},
		})
	}
	g, _ := b.Build()
	if _, err := Run(g, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	// Every root is queued before the worker starts, so the order is exact.
	if !slices.Equal(order, []int{7, 6, 5, 4, 3, 2, 1, 0}) {
		t.Errorf("tasks ran in order %v, want descending priority", order)
	}
}

func TestRunTaskPanicPropagates(t *testing.T) {
	b := ptg.NewBuilder(1)
	b.AddTask(ptg.Task{ID: tid("boom", 0, 0, 0), Node: 0, Run: func(e ptg.Env) { panic("kaboom") }})
	g, _ := b.Build()
	_, err := Run(g, Options{})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("panic not propagated: %v", err)
	}
}

func TestRunPanicDoesNotHangDependents(t *testing.T) {
	b := ptg.NewBuilder(2)
	b.AddTask(ptg.Task{ID: tid("boom", 0, 0, 0), Node: 0, Run: func(e ptg.Env) { panic("x") }})
	b.AddTask(ptg.Task{ID: tid("after", 0, 0, 0), Node: 1, Run: func(e ptg.Env) {}})
	b.AddDep(tid("after", 0, 0, 0), tid("boom", 0, 0, 0), ptg.Dep{Bytes: 1, Pack: func(e ptg.Env) []byte { return nil }})
	g, _ := b.Build()
	if _, err := Run(g, Options{Workers: 2}); err == nil {
		t.Error("expected error from panicking task")
	}
}

func TestDelayPlanReordering(t *testing.T) {
	// A delay plan holds back some messages while later ones overtake
	// them: the dataflow must still complete correctly because messages
	// are tag-addressed, not order-dependent.
	const pairs = 8
	plan := &fault.Plan{Seed: 4, Delay: 0.5, DelayBy: 2 * time.Millisecond}
	// Independent concurrent transfers: node 0 produces 8 values, node 1
	// consumes each.
	b := ptg.NewBuilder(2)
	for i := 0; i < pairs; i++ {
		i := i
		out, in := b.AllocBufSlot(0), b.AllocBufSlot(1)
		b.AddTask(ptg.Task{ID: tid("p", i, 0, 0), Node: 0, Run: func(e ptg.Env) {
			e.PutBufSlot(out, binary.LittleEndian.AppendUint64(nil, uint64(i)))
		}})
		b.AddTask(ptg.Task{ID: tid("c", i, 0, 0), Node: 1, Run: func(e ptg.Env) {
			if got := int(binary.LittleEndian.Uint64(e.TakeBufSlot(in))); got != i {
				panic(fmt.Sprintf("pair %d got %d", i, got))
			}
		}})
		b.AddDep(tid("c", i, 0, 0), tid("p", i, 0, 0), ptg.Dep{
			Bytes:  8,
			Pack:   func(e ptg.Env) []byte { return e.TakeBufSlot(out) },
			Unpack: func(e ptg.Env, data []byte) { e.PutBufSlot(in, data) },
		})
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{Workers: 2, Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2*pairs {
		t.Errorf("completed = %d", res.Completed)
	}
	// Some messages held back and some not: delivery order differs from
	// send order.
	if d := res.Fault.Delayed; d == 0 || d == pairs {
		t.Errorf("delayed %d of %d messages; the plan must delay some but not all", d, pairs)
	}
}

func TestDelayPlanAsyncDelivery(t *testing.T) {
	// Every message is delayed, so each one reaches its consumer's inbox
	// from a background goroutine rather than the sender's comm goroutine.
	plan := &fault.Plan{Delay: 1, DelayBy: 100 * time.Microsecond}
	g := buildChain(t, 25, 4)
	res, err := Run(g, Options{Workers: 1, Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 25 {
		t.Errorf("completed = %d", res.Completed)
	}
	if got := chainValue(res, 24, 4); got != 25 {
		t.Errorf("final value = %d, want 25", got)
	}
	if res.Fault.Delayed != res.Messages || res.Messages != 24 {
		t.Errorf("delayed %d of %d messages, want all 24", res.Fault.Delayed, res.Messages)
	}
}

func TestTraceRecordsAllTasks(t *testing.T) {
	tr := trace.New()
	g := buildChain(t, 12, 2)
	if _, err := Run(g, Options{Workers: 2, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 12 {
		t.Errorf("trace has %d events, want 12", tr.Len())
	}
	for _, e := range tr.Events() {
		if e.End < e.Start {
			t.Errorf("event %v ends before it starts", e.ID)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	b := ptg.NewBuilder(3)
	g, _ := b.Build()
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || len(res.Stores) != 3 {
		t.Errorf("empty run: %+v", res)
	}
}

func TestNodeIsolation(t *testing.T) {
	// A value stored on node 0 must not be visible on node 1, even under the
	// same slot index.
	b := ptg.NewBuilder(2)
	secret, probe := b.AllocSlot(0), b.AllocSlot(1)
	b.AddTask(ptg.Task{ID: tid("a", 0, 0, 0), Node: 0, Run: func(e ptg.Env) { e.PutSlot(secret, 42) }})
	b.AddTask(ptg.Task{ID: tid("b", 0, 0, 0), Node: 1, Run: func(e ptg.Env) {
		if e.GetSlot(probe) != nil {
			panic("node isolation violated")
		}
	}})
	b.AddDep(tid("b", 0, 0, 0), tid("a", 0, 0, 0), ptg.Dep{Bytes: 1, Pack: func(e ptg.Env) []byte { return []byte{0} }})
	g, _ := b.Build()
	if _, err := Run(g, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomDAGStress(t *testing.T) {
	// Random layered DAGs across nodes with random payloads: every run
	// must complete all tasks without deadlock.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		nodes := rng.Intn(4) + 1
		layers := rng.Intn(5) + 2
		width := rng.Intn(6) + 1
		b := ptg.NewBuilder(nodes)
		for l := 0; l < layers; l++ {
			for w := 0; w < width; w++ {
				b.AddTask(ptg.Task{
					ID: tid("t", l, w, 0), Node: int32(rng.Intn(nodes)),
					Run: func(e ptg.Env) {},
				})
			}
		}
		count := 0
		for l := 1; l < layers; l++ {
			for w := 0; w < width; w++ {
				for p := 0; p < width; p++ {
					if rng.Float64() < 0.4 {
						dep := ptg.Dep{Bytes: 4, Pack: func(e ptg.Env) []byte { return make([]byte, 4) }}
						if err := b.AddDep(tid("t", l, w, 0), tid("t", l-1, p, 0), dep); err != nil {
							t.Fatal(err)
						}
						count++
					}
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(g, Options{Workers: rng.Intn(3) + 1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Completed != layers*width {
			t.Fatalf("trial %d: completed %d of %d", trial, res.Completed, layers*width)
		}
	}
}

func TestPerNodeStats(t *testing.T) {
	g := buildChain(t, 10, 2)
	res, err := Run(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeTasks) != 2 || res.NodeTasks[0]+res.NodeTasks[1] != 10 {
		t.Errorf("node tasks = %v", res.NodeTasks)
	}
	if res.NodeTasks[0] != 5 || res.NodeTasks[1] != 5 {
		t.Errorf("alternating chain should split evenly: %v", res.NodeTasks)
	}
	for n, b := range res.NodeBusy {
		if b < 0 {
			t.Errorf("node %d busy = %v", n, b)
		}
	}
}

func TestDuplicatedMessageIsDetected(t *testing.T) {
	// Buffer slots are write-once: a second payload landing in an occupied
	// slot must surface as a run error, never as silent corruption. Two
	// deps of one consumer unpack into the same slot. The consumer runs
	// only once both have arrived, so the second unpack always finds the
	// first payload still there, and the violation happens on the
	// receiving node's comm goroutine.
	b := ptg.NewBuilder(2)
	in := b.AllocBufSlot(1)
	b.AddTask(ptg.Task{ID: tid("c", 0, 0, 0), Node: 1, Run: func(e ptg.Env) { e.TakeBufSlot(in) }})
	for i := 0; i < 2; i++ {
		b.AddTask(ptg.Task{ID: tid("p", i, 0, 0), Node: 0})
		b.AddDep(tid("c", 0, 0, 0), tid("p", i, 0, 0), ptg.Dep{
			Bytes:  1,
			Pack:   func(ptg.Env) []byte { return []byte{1} },
			Unpack: func(e ptg.Env, data []byte) { e.PutBufSlot(in, data) },
		})
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(g, Options{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "produced twice") {
		t.Errorf("second write into one slot: err = %v, want a write-once violation", err)
	}
}
