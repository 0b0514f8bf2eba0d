package ptg

import (
	"slices"
	"sync"
	"testing"
)

// TestPlanOutEdgeOrder pins Plan.Out against the walk engines used to make
// by hand — each consumer once, in increasing index, then each of its deps
// on the producer in dep order — on a graph where one consumer has two deps
// on the same producer. Under CoalesceStep every cross edge must name the
// bundle that lists it as a member, and local edges none.
func TestPlanOutEdgeOrder(t *testing.T) {
	b := NewBuilder(2)
	for i, n := range []int32{0, 0, 1, 1, 0, 1} {
		if _, err := b.AddTask(Task{ID: id("t", i, 0, 0), Node: n, Epoch: int32(i / 2)}); err != nil {
			t.Fatal(err)
		}
	}
	// (consumer, producer), interleaved across consumers; task 5 depends
	// twice on task 1 and task 3 twice on task 0.
	for _, e := range [][2]int32{{5, 1}, {2, 0}, {3, 0}, {5, 0}, {4, 1}, {3, 0}, {5, 1}, {4, 2}, {3, 1}} {
		if err := b.AddDepIdx(e[0], e[1], Dep{Bytes: 8}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	walk := func(prod int32) (out []OutEdge) {
		for c := range g.Tasks {
			for di, d := range g.Tasks[c].Deps {
				if d.Producer == prod {
					out = append(out, OutEdge{Consumer: int32(c), Dep: int32(di), Bundle: -1})
				}
			}
		}
		return out
	}
	off, err := g.Plan(CoalesceOff)
	if err != nil {
		t.Fatal(err)
	}
	step, err := g.Plan(CoalesceStep)
	if err != nil {
		t.Fatal(err)
	}
	if off.Bundles != nil || len(step.Bundles) == 0 {
		t.Fatalf("off plan has %d bundles, step plan %d", len(off.Bundles), len(step.Bundles))
	}
	member := map[BundleMember]int32{}
	for bi, bu := range step.Bundles {
		for _, m := range bu.Members {
			member[m] = int32(bi)
		}
	}
	for p := range g.Tasks {
		want := walk(int32(p))
		if got := off.Out(int32(p)); !slices.Equal(got, want) {
			t.Errorf("off: Out(%d) = %v, want %v", p, got, want)
		}
		for i := range want {
			bi, ok := member[BundleMember{Task: want[i].Consumer, Dep: want[i].Dep}]
			if ok != (g.Tasks[p].Node != g.Tasks[want[i].Consumer].Node) {
				t.Fatalf("edge %v: bundled = %v on a %v edge", want[i], ok, g.Tasks[p].Node)
			}
			if ok {
				want[i].Bundle = bi
			}
		}
		if got := step.Out(int32(p)); !slices.Equal(got, want) {
			t.Errorf("step: Out(%d) = %v, want %v", p, got, want)
		}
	}
}

// TestPlanCountsAndLanes checks the per-node message counts and bundle
// wire sizes: one message per cross dep point to point, one per bundle
// under coalescing, and each bundle's wire size its header plus payloads.
func TestPlanCountsAndLanes(t *testing.T) {
	b := NewBuilder(2)
	p0 := bundleTask(t, b, "p0", 0, 0)
	p1 := bundleTask(t, b, "p1", 0, 1)
	c := bundleTask(t, b, "c", 1, 2)
	for _, d := range []struct {
		prod  TaskID
		bytes int
	}{{p0, 8}, {p0, 16}, {p1, 40}} {
		if err := b.AddDep(c, d.prod, Dep{Bytes: d.bytes}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	off, _ := g.Plan(CoalesceOff)
	if !slices.Equal(off.CrossOut, []int{3, 0}) || !slices.Equal(off.CrossIn, []int{0, 3}) || off.Bundles != nil {
		t.Errorf("off: out %v in %v bundles %v; want [3 0] [0 3] none", off.CrossOut, off.CrossIn, off.Bundles)
	}
	step, err := g.Plan(CoalesceStep)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(step.CrossOut, []int{2, 0}) || !slices.Equal(step.CrossIn, []int{0, 2}) {
		t.Errorf("step: out %v in %v; want [2 0] [0 2]", step.CrossOut, step.CrossIn)
	}
	// Bundle (0->1, e0) carries 24 payload bytes in 2 segments, (0->1, e1)
	// 40 bytes in 1.
	if len(step.Bundles) != 2 {
		t.Fatalf("step: %d bundles, want 2", len(step.Bundles))
	}
	for i, want := range []int{4*3 + 24, 4*2 + 40} {
		if got := step.Bundles[i].WireBytes(); got != want {
			t.Errorf("Bundles[%d].WireBytes() = %d, want %d", i, got, want)
		}
	}
}

// chainGraph builds a chain bouncing between two nodes, its epochs given:
// all zero deadlocks under bundling, advancing ones bundle one hop each.
func chainGraph(t *testing.T, epochs ...int32) *Graph {
	t.Helper()
	b := NewBuilder(2)
	for i, e := range epochs {
		if _, err := b.AddTask(Task{ID: id("c", i, 0, 0), Node: int32(i % 2), Epoch: e}); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := b.AddDepIdx(int32(i), int32(i-1), Dep{Bytes: 8}); err != nil {
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

// TestPlanMemoized checks a graph resolves its bundled plan once: a repeated
// Plan call returns the same *Plan (or, where bundling deadlocks, the same
// error) without allocating, and concurrent first callers agree on one plan.
func TestPlanMemoized(t *testing.T) {
	g := chainGraph(t, 0, 1, 2, 3)
	step, err := g.Plan(CoalesceStep)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := g.Plan(CoalesceStep); again != step {
		t.Error("a second CoalesceStep plan is a new one")
	}
	if n := testing.AllocsPerRun(100, func() { g.Plan(CoalesceStep) }); n != 0 {
		t.Errorf("a repeated Plan allocates %v times, want 0", n)
	}

	dead := chainGraph(t, 0, 0, 0, 0)
	_, err1 := dead.Plan(CoalesceStep)
	_, err2 := dead.Plan(CoalesceStep)
	if err1 == nil || err1 != err2 {
		t.Errorf("deadlocking graph: errors %v and %v, want one memoized error", err1, err2)
	}
	if n := testing.AllocsPerRun(100, func() { dead.Plan(CoalesceStep) }); n != 0 {
		t.Errorf("a repeated plan of a deadlocking graph allocates %v times, want 0", n)
	}

	g = chainGraph(t, 0, 1, 2, 3)
	plans := make([]*Plan, 8)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[i], _ = g.Plan(CoalesceStep)
		}()
	}
	wg.Wait()
	if plans[0] == nil || len(plans[0].Bundles) != 3 {
		t.Fatalf("concurrent caller 0 got plan %+v, want 3 bundles", plans[0])
	}
	for i, p := range plans {
		if p != plans[0] {
			t.Errorf("concurrent caller %d got plan %p, caller 0 %p", i, p, plans[0])
		}
	}
}
