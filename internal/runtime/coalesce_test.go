package runtime

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"

	"castencil/internal/ptg"
	"castencil/internal/trace"
)

// TestCoalesceStepErrorsOnChain pins the mode semantics on a graph whose
// epoch stamps make bundling cyclic (the cross-node chain leaves every task
// at epoch 0, so the first bundle would wait on tasks the bundle itself
// feeds): step mode must refuse to run, and the same graph must still
// complete with coalescing off.
func TestCoalesceStepErrorsOnChain(t *testing.T) {
	g := buildChain(t, 12, 3)
	if _, err := Run(g, Options{Workers: 1, Coalesce: ptg.CoalesceStep}); err == nil {
		t.Error("step mode ran a graph whose bundling deadlocks")
	}
	res, err := Run(g, Options{Workers: 1, Coalesce: ptg.CoalesceOff})
	if err != nil {
		t.Fatal(err)
	}
	if res.BundlesSent != 0 {
		t.Errorf("point-to-point run sent %d bundles", res.BundlesSent)
	}
	if res.Dropped != 0 {
		t.Errorf("point-to-point run dropped %d transfers", res.Dropped)
	}
}

// epochGrid builds a synthetic many-small-tiles exchange: tiles tasks per
// node per epoch, each depending on its k-th counterpart on every node at
// the previous epoch. All cross payloads one node sends another per epoch
// share a bundle of exactly tiles members. Each cross payload carries its
// producer's index; unpackCount[consumer dep] checks exactly-once delivery
// and runFlags records which task bodies completed (for exact Dropped
// accounting against the graph).
type epochGrid struct {
	g           *ptg.Graph
	runFlags    []atomic.Bool
	unpackCount []atomic.Int32 // one counter per cross dep, indexed in graph order
}

func buildEpochGrid(t *testing.T, nodes, epochs, tiles int, panicTask ptg.TaskID) *epochGrid {
	t.Helper()
	eg := &epochGrid{}
	b := ptg.NewBuilder(nodes)
	idx := func(e, n, k int) int { return (e*nodes+n)*tiles + k }
	eg.runFlags = make([]atomic.Bool, epochs*nodes*tiles)
	for e := 0; e < epochs; e++ {
		for n := 0; n < nodes; n++ {
			for k := 0; k < tiles; k++ {
				id := tid("t", e, n, k)
				me := idx(e, n, k)
				shouldPanic := id == panicTask
				if _, err := b.AddTask(ptg.Task{
					ID: id, Node: int32(n), Epoch: int32(e),
					Run: func(ptg.Env) {
						if shouldPanic {
							panic("stress: induced failure")
						}
						eg.runFlags[me].Store(true)
					},
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for e := 1; e < epochs; e++ {
		for n := 0; n < nodes; n++ {
			for k := 0; k < tiles; k++ {
				for m := 0; m < nodes; m++ {
					dep := ptg.Dep{}
					if m != n {
						producer := int64(idx(e-1, m, k))
						ci := len(eg.unpackCount)
						eg.unpackCount = append(eg.unpackCount, atomic.Int32{})
						dep.Bytes = 8
						dep.Pack = func(ptg.Env) []byte {
							buf := GetBuf(8)
							binary.LittleEndian.PutUint64(buf, uint64(producer))
							return buf
						}
						cnt := ci // capture the counter slot, not the slice header
						dep.Unpack = func(_ ptg.Env, data []byte) {
							if got := int64(binary.LittleEndian.Uint64(data)); got != producer {
								t.Errorf("dep %d delivered payload of task %d, want %d", cnt, got, producer)
							}
							PutBuf(data)
							eg.unpackCount[cnt].Add(1)
						}
					}
					if err := b.AddDep(tid("t", e, n, k), tid("t", e-1, m, k), dep); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eg.g = g
	return eg
}

// audit compares a finished run against the instrumented graph: every
// produced cross payload must be either delivered exactly once or counted
// in Result.Dropped, and nothing may be delivered twice.
func (eg *epochGrid) audit(t *testing.T, label string, res *Result) {
	t.Helper()
	produced := 0
	ci := 0
	delivered := 0
	for i := range eg.g.Tasks {
		task := &eg.g.Tasks[i]
		for di := range task.Deps {
			d := &task.Deps[di]
			if eg.g.Tasks[d.Producer].Node == task.Node {
				continue
			}
			// Cross deps were appended in the same (e, n, k, m) order the
			// builder added them, so ci walks unpackCount in step.
			n := eg.unpackCount[ci].Load()
			if n > 1 {
				t.Errorf("%s: dep %d of %v delivered %d times", label, di, task.ID, n)
			}
			delivered += int(n)
			if eg.runFlags[d.Producer].Load() {
				produced++
			}
			ci++
		}
	}
	if delivered+int(res.Dropped) != produced {
		t.Errorf("%s: delivered %d + dropped %d != produced %d (payloads lost or invented)",
			label, delivered, res.Dropped, produced)
	}
}

// TestCoalescedExactlyOnce runs the epoch grid to completion under
// coalescing and checks full delivery: every cross payload arrives exactly
// once, Messages collapses to one bundle per ordered node pair per
// exchange, and the counters agree.
func TestCoalescedExactlyOnce(t *testing.T) {
	const nodes, epochs, tiles = 4, 6, 5
	eg := buildEpochGrid(t, nodes, epochs, tiles, ptg.TaskID{})
	res, err := Run(eg.g, Options{Workers: 2, Coalesce: ptg.CoalesceStep})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Fatalf("successful run dropped %d transfers", res.Dropped)
	}
	eg.audit(t, "complete", res)
	wantBundles := nodes * (nodes - 1) * (epochs - 1)
	if res.BundlesSent != wantBundles || res.Messages != wantBundles {
		t.Errorf("sent %d messages / %d bundles, want %d (one per ordered pair per exchange)",
			res.Messages, res.BundlesSent, wantBundles)
	}
	if res.BundleSegments != wantBundles*tiles {
		t.Errorf("bundles carried %d segments, want %d", res.BundleSegments, wantBundles*tiles)
	}
	if fill := res.BundleFill(); fill != float64(tiles) {
		t.Errorf("bundle fill = %v, want %d", fill, tiles)
	}
}

// TestCoalescedShutdownRace is the -race stress test for the coalesced comm
// path: many small tiles on four nodes, with a mid-graph panic so bundle
// completion races shutdown. Whatever interleaving results, the exactly-once
// audit must hold: produced payloads are delivered once or dropped, with
// Result.Dropped exact — never lost, never duplicated.
func TestCoalescedShutdownRace(t *testing.T) {
	const nodes, epochs, tiles = 4, 6, 4
	iters := 20
	if testing.Short() {
		iters = 5
	}
	for i := 0; i < iters; i++ {
		// Move the failure around the grid so different epochs and nodes
		// are mid-exchange when shutdown begins.
		panicAt := tid("t", 1+i%(epochs-1), i%nodes, i%tiles)
		eg := buildEpochGrid(t, nodes, epochs, tiles, panicAt)
		res, err := Run(eg.g, Options{Workers: 2, Coalesce: ptg.CoalesceStep})
		if err == nil {
			t.Fatalf("iter %d: run with a panicking task reported no error", i)
		}
		if res == nil {
			t.Fatalf("iter %d: failed run returned no partial result", i)
		}
		eg.audit(t, fmt.Sprintf("iter %d (panic at %v)", i, panicAt), res)
	}
}

// bundleGraph builds a two-node graph in which consumer i, on node 1,
// depends on producer i, on node 0, through deps[i], and returns it with
// the bundle members naming those edges in order.
func bundleGraph(tb testing.TB, deps []ptg.Dep) (*ptg.Graph, []ptg.BundleMember) {
	tb.Helper()
	b := ptg.NewBuilder(2)
	members := make([]ptg.BundleMember, len(deps))
	for i := range deps {
		if _, err := b.AddTask(ptg.Task{ID: tid("p", i, 0, 0), Node: 0}); err != nil {
			tb.Fatal(err)
		}
	}
	for i, d := range deps {
		c, err := b.AddTask(ptg.Task{ID: tid("c", i, 0, 0), Node: 1})
		if err == nil {
			err = b.AddDepIdx(c, int32(i), d)
		}
		if err != nil {
			tb.Fatal(err)
		}
		members[i] = ptg.BundleMember{Task: c, Dep: 0}
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g, members
}

// TestBundleRoundTripZeroAlloc pins the arena contract: once the arena is
// warm, a full pack -> fan-out -> recycle cycle of a bundle performs no
// heap allocation.
func TestBundleRoundTripZeroAlloc(t *testing.T) {
	const segBytes, segs = 64, 8
	deps := make([]ptg.Dep, segs)
	for i := range deps {
		deps[i] = ptg.Dep{
			Bytes: segBytes,
			Pack: func(ptg.Env) []byte {
				return GetBuf(segBytes)
			},
			Unpack: func(_ ptg.Env, data []byte) {
				PutBuf(data)
			},
		}
	}
	g, members := bundleGraph(t, deps)
	wire := 4*(1+segs) + segs*segBytes
	var fanErr error
	allocs := testing.AllocsPerRun(100, func() {
		buf := packBundle(GetBuf(wire)[:0], nil, g, members)
		if err := fanOutBundle(nil, g, members, buf); err != nil && fanErr == nil {
			fanErr = err
		}
		PutBuf(buf)
	})
	if fanErr != nil {
		t.Fatal(fanErr)
	}
	if allocs != 0 {
		t.Errorf("coalesced round trip allocates %.1f times per cycle, want 0", allocs)
	}
}

// BenchmarkBundleRoundTrip measures the steady-state coalesced hot path:
// pack a bundle from pooled payloads, fan it back out, recycle the wire
// buffer into the arena.
func BenchmarkBundleRoundTrip(b *testing.B) {
	const segBytes, segs = 2048, 8
	deps := make([]ptg.Dep, segs)
	for i := range deps {
		deps[i] = ptg.Dep{
			Bytes:  segBytes,
			Pack:   func(ptg.Env) []byte { return GetBuf(segBytes) },
			Unpack: func(_ ptg.Env, data []byte) { PutBuf(data) },
		}
	}
	g, members := bundleGraph(b, deps)
	wire := 4*(1+segs) + segs*segBytes
	b.SetBytes(int64(wire))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := packBundle(GetBuf(wire)[:0], nil, g, members)
		if err := fanOutBundle(nil, g, members, buf); err != nil {
			b.Fatal(err)
		}
		PutBuf(buf)
	}
}

// TestTraceCommRecordsWireEvents checks the opt-in comm tracing: with
// Options.TraceComm, every bundle send and receive lands in the trace as a
// KindComm event on the comm goroutine's core (one past the workers),
// carrying the segment and byte counters.
func TestTraceCommRecordsWireEvents(t *testing.T) {
	const nodes, epochs, tiles = 2, 3, 2
	eg := buildEpochGrid(t, nodes, epochs, tiles, ptg.TaskID{})
	tr := trace.New()
	res, err := Run(eg.g, Options{Workers: 2, Coalesce: ptg.CoalesceStep, Trace: tr, TraceComm: true})
	if err != nil {
		t.Fatal(err)
	}
	sends, recvs := 0, 0
	for _, e := range tr.Events() {
		if e.Kind != ptg.KindComm {
			continue
		}
		if e.Core != 2 {
			t.Errorf("comm event %v on core %d, want 2 (one past the workers)", e.ID, e.Core)
		}
		if e.Msgs != tiles {
			t.Errorf("comm event %v carries %d transfers, want %d", e.ID, e.Msgs, tiles)
		}
		if e.Bytes <= 0 {
			t.Errorf("comm event %v has no byte count", e.ID)
		}
		switch e.ID.Class {
		case "send":
			sends++
		case "recv":
			recvs++
		}
	}
	if sends != res.BundlesSent || recvs != res.BundlesSent {
		t.Errorf("traced %d sends / %d recvs, want %d each", sends, recvs, res.BundlesSent)
	}
}
