package ptg

import (
	"slices"
	"strings"
	"testing"
)

func id(class string, i, j, k int) TaskID { return TaskID{Class: class, I: i, J: j, K: k} }

func TestBuilderBasicChain(t *testing.T) {
	b := NewBuilder(2)
	a, err := b.AddTask(Task{ID: id("a", 0, 0, 0), Node: 0, Kind: KindInit})
	if err != nil || a != 0 {
		t.Fatalf("AddTask: %v %v", a, err)
	}
	if _, err := b.AddTask(Task{ID: id("b", 0, 0, 0), Node: 1, Kind: KindInterior}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDep(id("b", 0, 0, 0), id("a", 0, 0, 0), Dep{Bytes: 64}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Tasks) != 2 {
		t.Fatalf("tasks = %d", len(g.Tasks))
	}
	if len(g.Tasks[0].Succs) != 1 || g.Tasks[0].Succs[0] != 1 {
		t.Errorf("successor list wrong: %v", g.Tasks[0].Succs)
	}
	roots := g.Roots()
	if len(roots) != 1 || roots[0] != 0 {
		t.Errorf("roots = %v", roots)
	}
	c, bytes := g.CrossNodeDeps()
	if c != 1 || bytes != 64 {
		t.Errorf("cross deps = %d/%d, want 1/64", c, bytes)
	}
}

func TestBuilderRejectsDuplicates(t *testing.T) {
	b := NewBuilder(1)
	if _, err := b.AddTask(Task{ID: id("a", 1, 2, 3), Node: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddTask(Task{ID: id("a", 1, 2, 3), Node: 0}); err == nil {
		t.Error("duplicate task must be rejected")
	}
}

func TestBuilderRejectsBadNode(t *testing.T) {
	b := NewBuilder(2)
	if _, err := b.AddTask(Task{ID: id("a", 0, 0, 0), Node: 2}); err == nil {
		t.Error("node out of range must be rejected")
	}
	if _, err := b.AddTask(Task{ID: id("b", 0, 0, 0), Node: -1}); err == nil {
		t.Error("negative node must be rejected")
	}
}

func TestBuilderRejectsUnknownEndpoints(t *testing.T) {
	b := NewBuilder(1)
	b.AddTask(Task{ID: id("a", 0, 0, 0), Node: 0})
	if err := b.AddDep(id("a", 0, 0, 0), id("ghost", 0, 0, 0), Dep{}); err == nil {
		t.Error("unknown producer must be rejected")
	}
	if err := b.AddDep(id("ghost", 0, 0, 0), id("a", 0, 0, 0), Dep{}); err == nil {
		t.Error("unknown consumer must be rejected")
	}
}

func TestBuilderRejectsCrossNodeDepWithoutBytes(t *testing.T) {
	b := NewBuilder(2)
	b.AddTask(Task{ID: id("a", 0, 0, 0), Node: 0})
	b.AddTask(Task{ID: id("b", 0, 0, 0), Node: 1})
	if err := b.AddDep(id("b", 0, 0, 0), id("a", 0, 0, 0), Dep{}); err == nil {
		t.Error("cross-node dep without payload must be rejected")
	}
	// Local deps are fine without payload.
	b.AddTask(Task{ID: id("c", 0, 0, 0), Node: 0})
	if err := b.AddDep(id("c", 0, 0, 0), id("a", 0, 0, 0), Dep{}); err != nil {
		t.Errorf("local dep rejected: %v", err)
	}
}

func TestBuildDetectsCycle(t *testing.T) {
	b := NewBuilder(1)
	b.AddTask(Task{ID: id("a", 0, 0, 0), Node: 0})
	b.AddTask(Task{ID: id("b", 0, 0, 0), Node: 0})
	b.AddDep(id("b", 0, 0, 0), id("a", 0, 0, 0), Dep{})
	b.AddDep(id("a", 0, 0, 0), id("b", 0, 0, 0), Dep{})
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestComputeStats(t *testing.T) {
	// Diamond: a -> b, a -> c, b -> d, c -> d over 2 nodes.
	b := NewBuilder(2)
	b.AddTask(Task{ID: id("a", 0, 0, 0), Node: 0, Kind: KindInit})
	b.AddTask(Task{ID: id("b", 0, 0, 0), Node: 0, Kind: KindInterior})
	b.AddTask(Task{ID: id("c", 0, 0, 0), Node: 1, Kind: KindBoundary})
	b.AddTask(Task{ID: id("d", 0, 0, 0), Node: 1, Kind: KindBoundary})
	b.AddDep(id("b", 0, 0, 0), id("a", 0, 0, 0), Dep{})
	b.AddDep(id("c", 0, 0, 0), id("a", 0, 0, 0), Dep{Bytes: 8})
	b.AddDep(id("d", 0, 0, 0), id("b", 0, 0, 0), Dep{Bytes: 16})
	b.AddDep(id("d", 0, 0, 0), id("c", 0, 0, 0), Dep{})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := g.ComputeStats()
	if s.Tasks != 4 || s.Deps != 4 {
		t.Errorf("tasks/deps = %d/%d, want 4/4", s.Tasks, s.Deps)
	}
	if s.CrossDeps != 2 || s.CrossBytes != 24 {
		t.Errorf("cross = %d/%d, want 2/24", s.CrossDeps, s.CrossBytes)
	}
	if s.CriticalPathTasks != 3 {
		t.Errorf("critical path = %d, want 3 (a,b,d)", s.CriticalPathTasks)
	}
	if s.TasksPerNodeMin != 2 || s.TasksPerNodeMax != 2 {
		t.Errorf("per-node = %d..%d, want 2..2", s.TasksPerNodeMin, s.TasksPerNodeMax)
	}
	if s.KindCounts["boundary"] != 2 || s.KindCounts["interior"] != 1 || s.KindCounts["init"] != 1 {
		t.Errorf("kind counts = %v", s.KindCounts)
	}
}

func TestMultipleDepsFromSameProducer(t *testing.T) {
	// A CA boundary task consumes both an edge and a corner flow from the
	// same producer: the successor list must stay deduplicated and the
	// topological machinery must still see both dependencies.
	b := NewBuilder(2)
	b.AddTask(Task{ID: id("p", 0, 0, 0), Node: 0})
	b.AddTask(Task{ID: id("c", 0, 0, 0), Node: 1})
	b.AddDep(id("c", 0, 0, 0), id("p", 0, 0, 0), Dep{Bytes: 8})
	b.AddDep(id("c", 0, 0, 0), id("p", 0, 0, 0), Dep{Bytes: 16})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Tasks[0].Succs) != 1 {
		t.Errorf("Succs = %v, want a single deduplicated entry", g.Tasks[0].Succs)
	}
	if len(g.Tasks[1].Deps) != 2 {
		t.Errorf("Deps = %d, want 2", len(g.Tasks[1].Deps))
	}
	s := g.ComputeStats()
	if s.CriticalPathTasks != 2 {
		t.Errorf("critical path = %d, want 2", s.CriticalPathTasks)
	}
	if s.CrossDeps != 2 || s.CrossBytes != 24 {
		t.Errorf("cross = %d/%d, want 2/24", s.CrossDeps, s.CrossBytes)
	}
}

func TestLookup(t *testing.T) {
	b := NewBuilder(1)
	b.AddTask(Task{ID: id("x", 3, 1, 4), Node: 0})
	g, _ := b.Build()
	if i, ok := g.Lookup(id("x", 3, 1, 4)); !ok || i != 0 {
		t.Errorf("Lookup = %d,%v", i, ok)
	}
	if _, ok := g.Lookup(id("x", 0, 0, 0)); ok {
		t.Error("missing task found")
	}
}

func TestKindString(t *testing.T) {
	if KindBoundary.String() != "boundary" || KindInterior.String() != "interior" || KindInit.String() != "init" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind should print its number")
	}
}

func TestTaskIDString(t *testing.T) {
	if got := id("jacobi", 1, 2, 3).String(); got != "jacobi(1,2,3)" {
		t.Errorf("TaskID.String = %q", got)
	}
}

func TestWriteDOT(t *testing.T) {
	b := NewBuilder(2)
	b.AddTask(Task{ID: id("a", 0, 0, 0), Node: 0, Kind: KindInit})
	b.AddTask(Task{ID: id("b", 0, 0, 0), Node: 0, Kind: KindInterior})
	b.AddTask(Task{ID: id("c", 0, 0, 0), Node: 1, Kind: KindBoundary})
	b.AddDep(id("b", 0, 0, 0), id("a", 0, 0, 0), Dep{})
	b.AddDep(id("c", 0, 0, 0), id("b", 0, 0, 0), Dep{Bytes: 128})
	g, _ := b.Build()
	var sb strings.Builder
	if err := g.WriteDOT(&sb, "test"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"digraph", "cluster_node0", "cluster_node1",
		"a(0,0,0)", "style=bold, color=red, label=\"128B\"",
		"lightsalmon", "lightgrey",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

// TestCSRLayoutOrder pins the ordering contract of the package comment:
// with dependencies added for interleaved consumers, each Task.Deps keeps
// its own insertion order, each Task.Succs lists its consumers once in
// increasing index, and every window is capacity-clamped so an append
// cannot overwrite a neighbor's entries.
func TestCSRLayoutOrder(t *testing.T) {
	b := NewBuilder(1)
	b.Grow(4, 6)
	for i := 0; i < 4; i++ {
		if _, err := b.AddTask(Task{ID: id("t", i, 0, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]int32{{3, 1}, {2, 0}, {3, 0}, {2, 1}, {3, 1}, {1, 0}} {
		if err := b.AddDepIdx(e[0], e[1], Dep{Bytes: int(10*e[0] + e[1])}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	deps := func(i int) (out []int) {
		for _, d := range g.Tasks[i].Deps {
			out = append(out, int(d.Producer), d.Bytes)
		}
		return out
	}
	for i, want := range [][]int{nil, {0, 10}, {0, 20, 1, 21}, {1, 31, 0, 30, 1, 31}} {
		if got := deps(i); !slices.Equal(got, want) {
			t.Errorf("task %d Deps (producer, bytes) = %v, want %v", i, got, want)
		}
	}
	for i, want := range [][]int32{{1, 2, 3}, {2, 3}, nil, nil} {
		if got := g.Tasks[i].Succs; !slices.Equal(got, want) {
			t.Errorf("task %d Succs = %v, want %v", i, got, want)
		}
	}
	for i := range g.Tasks {
		if tk := &g.Tasks[i]; cap(tk.Deps) != len(tk.Deps) || cap(tk.Succs) != len(tk.Succs) {
			t.Errorf("task %d windows not capacity-clamped", i)
		}
	}
}

// TestAddDepIdxChecks checks the index-addressed edge keeps AddDep's
// validation: indices in range, and a payload on cross-node edges.
func TestAddDepIdxChecks(t *testing.T) {
	b := NewBuilder(2)
	b.AddTask(Task{ID: id("a", 0, 0, 0), Node: 0})
	b.AddTask(Task{ID: id("b", 0, 0, 0), Node: 1})
	for _, e := range [][2]int32{{2, 0}, {0, -1}, {-1, 0}} {
		if err := b.AddDepIdx(e[0], e[1], Dep{Bytes: 8}); err == nil {
			t.Errorf("AddDepIdx(%d, %d) accepted an out-of-range index", e[0], e[1])
		}
	}
	if err := b.AddDepIdx(1, 0, Dep{}); err == nil || !strings.Contains(err.Error(), "payload") {
		t.Errorf("cross-node edge without payload: err = %v", err)
	}
	if err := b.AddDepIdx(1, 0, Dep{Bytes: 8}); err != nil {
		t.Fatal(err)
	}
}
