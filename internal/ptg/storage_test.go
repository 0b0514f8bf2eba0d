package ptg

import (
	"math"
	"reflect"
	"runtime"
	"testing"
)

// ringGraph builds w chains of steps+1 tasks over two nodes: task (i, k)
// depends on (i, k-1) and on both ring neighbors at k-1, which live on the
// other node when w is even, so the graph has cross-node edges, bundles and
// an index to probe. st, when non-nil, is the storage to build into.
func ringGraph(t *testing.T, w, steps int, st *Storage) *Graph {
	t.Helper()
	b := NewBuilder(2)
	b.Reuse(st)
	b.Grow(w*(steps+1), 3*w*steps)
	for i := 0; i < w; i++ {
		for k := 0; k <= steps; k++ {
			if _, err := b.AddTask(Task{ID: id("r", i, 0, k), Node: int32(i % 2), Epoch: int32(k)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < w; i++ {
		for k := 1; k <= steps; k++ {
			for _, p := range []int{i, (i + w - 1) % w, (i + 1) % w} {
				d := Dep{}
				if p%2 != i%2 {
					d.Bytes = 8 * (p + 1)
				}
				if err := b.AddDep(id("r", i, 0, k), id("r", p, 0, k-1), d); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameGraph fails unless got and want hold the same tasks, edges, index,
// plans and stats.
func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if !reflect.DeepEqual(got.Tasks, want.Tasks) {
		t.Fatal("tasks differ")
	}
	if !reflect.DeepEqual(got.ComputeStats(), want.ComputeStats()) {
		t.Fatalf("stats %+v, want %+v", got.ComputeStats(), want.ComputeStats())
	}
	for _, mode := range []CoalesceMode{CoalesceOff, CoalesceStep} {
		pg, err := got.Plan(mode)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := want.Plan(mode)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pg, pw) {
			t.Fatalf("plan %v differs", mode)
		}
	}
	for i := range want.Tasks {
		if idx, ok := got.Lookup(want.Tasks[i].ID); !ok || idx != int32(i) {
			t.Fatalf("Lookup(%v) = %d, %v; want %d", want.Tasks[i].ID, idx, ok, i)
		}
	}
	if _, ok := got.Lookup(id("r", -1, 0, 0)); ok {
		t.Fatal("Lookup found a task the graph does not have")
	}
}

// TestStorageReuse checks that a graph built into a released graph's
// storage uses its arrays and equals a fresh build: of the same shape, of a
// smaller one (whose unused task tail is cleared) and of a larger one,
// which outgrows the storage and allocates instead.
func TestStorageReuse(t *testing.T) {
	old := ringGraph(t, 8, 6, nil)
	tasks, deps := &old.Tasks[0], &old.Tasks[len(old.Tasks)-1].Deps[0]
	st := old.Release()
	if old.Tasks != nil || old.stats != nil || old.plan != nil {
		t.Fatal("Release left the graph usable")
	}
	if cap(st.tasks) == 0 || cap(st.deps) == 0 {
		t.Fatal("released storage is empty")
	}
	same := ringGraph(t, 8, 6, st)
	if &same.Tasks[0] != tasks {
		t.Error("same-shape build did not reuse the task list")
	}
	if last := &same.Tasks[len(same.Tasks)-1].Deps[0]; last != deps {
		t.Error("same-shape build did not reuse the edge array")
	}
	sameGraph(t, same, ringGraph(t, 8, 6, nil))

	small := ringGraph(t, 6, 4, same.Release())
	if &small.Tasks[0] != tasks {
		t.Error("smaller build did not reuse the task list")
	}
	for i, tk := range small.Tasks[len(small.Tasks):cap(small.Tasks)] {
		if !reflect.DeepEqual(tk, Task{}) {
			t.Fatalf("task tail %d not cleared: %+v", i, tk)
		}
	}
	sameGraph(t, small, ringGraph(t, 6, 4, nil))

	large := ringGraph(t, 10, 9, small.Release())
	sameGraph(t, large, ringGraph(t, 10, 9, nil))
}

// TestStorageReuseAllocates gates what reuse saves: a build into a released
// graph's storage of the same shape allocates under a quarter of a fresh
// build's bytes. Each is measured as its smallest of three, since the
// process-wide counter also counts whatever the runtime allocates meanwhile.
func TestStorageReuseAllocates(t *testing.T) {
	least := func(f func()) uint64 {
		n := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			f()
			runtime.ReadMemStats(&m1)
			n = min(n, m1.TotalAlloc-m0.TotalAlloc)
		}
		return n
	}
	fresh := least(func() { ringGraph(t, 64, 32, nil) })
	st := ringGraph(t, 64, 32, nil).Release()
	reused := least(func() { st = ringGraph(t, 64, 32, st).Release() })
	t.Logf("fresh build %d B, into released storage %d B", fresh, reused)
	if reused > fresh/4 {
		t.Errorf("a build into released storage allocates %d B, a fresh one %d B; want under a quarter", reused, fresh)
	}
}
