package ptg

import (
	"errors"
	"strings"
	"testing"
)

// chainGraph builds a 3-task chain a -> b -> c on one node.
func chainGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(1)
	a := TaskID{Class: "a"}
	m := TaskID{Class: "m"}
	z := TaskID{Class: "z"}
	for _, id := range []TaskID{a, m, z} {
		if _, err := b.AddTask(Task{ID: id, Kind: KindInterior}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddDep(m, a, Dep{}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDep(z, m, Dep{}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fnPass adapts a function to the Transform interface for tests.
type fnPass struct {
	name string
	fn   func(*Graph) (*Graph, error)
}

func (p fnPass) Name() string                   { return p.name }
func (p fnPass) Apply(g *Graph) (*Graph, error) { return p.fn(g) }

// TestApplyTransformsPipeline runs two passes in order — one that doubles
// every task's priority and one that appends a sentinel task — and checks
// the output graph reflects both, with fresh stats.
func TestApplyTransformsPipeline(t *testing.T) {
	g := chainGraph(t)
	boost := fnPass{"boost", func(in *Graph) (*Graph, error) {
		nb := NewBuilder(in.NumNodes)
		nb.PresetSlots(in.NodeSlots, in.NodeBufSlots)
		for i := range in.Tasks {
			task := in.Tasks[i]
			task.Priority *= 2
			task.Priority += 5
			if _, err := nb.AddTask(task); err != nil {
				return nil, err
			}
		}
		for i := range in.Tasks {
			for _, d := range in.Tasks[i].Deps {
				if err := nb.AddDep(in.Tasks[i].ID, in.Tasks[d.Producer].ID, in.Dep(d)); err != nil {
					return nil, err
				}
			}
		}
		return nb.Build()
	}}
	sentinel := fnPass{"sentinel", func(in *Graph) (*Graph, error) {
		nb := NewBuilder(in.NumNodes)
		nb.PresetSlots(in.NodeSlots, in.NodeBufSlots)
		for i := range in.Tasks {
			if _, err := nb.AddTask(in.Tasks[i]); err != nil {
				return nil, err
			}
		}
		if _, err := nb.AddTask(Task{ID: TaskID{Class: "end"}, Kind: KindInterior}); err != nil {
			return nil, err
		}
		for i := range in.Tasks {
			for _, d := range in.Tasks[i].Deps {
				if err := nb.AddDep(in.Tasks[i].ID, in.Tasks[d.Producer].ID, in.Dep(d)); err != nil {
					return nil, err
				}
			}
		}
		if err := nb.AddDep(TaskID{Class: "end"}, TaskID{Class: "z"}, Dep{}); err != nil {
			return nil, err
		}
		return nb.Build()
	}}
	out, err := ApplyTransforms(g, boost, sentinel)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tasks) != len(g.Tasks)+1 {
		t.Fatalf("pipeline output has %d tasks, want %d", len(out.Tasks), len(g.Tasks)+1)
	}
	for i := range g.Tasks {
		if out.Tasks[i].Priority != g.Tasks[i].Priority*2+5 {
			t.Fatalf("task %d priority %d, want %d", i, out.Tasks[i].Priority, g.Tasks[i].Priority*2+5)
		}
	}
	s := out.ComputeStats()
	if s.Tasks != len(out.Tasks) || s.CriticalPathTasks != 4 {
		t.Fatalf("stats stale after pipeline: %+v", s)
	}
	// The input graph must be untouched.
	if gs := g.ComputeStats(); gs.Tasks != 3 {
		t.Fatalf("input graph mutated: %+v", gs)
	}
}

// TestApplyTransformsIdentity allows a pass to return its input unchanged.
func TestApplyTransformsIdentity(t *testing.T) {
	g := chainGraph(t)
	out, err := ApplyTransforms(g, fnPass{"id", func(in *Graph) (*Graph, error) { return in, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if out != g {
		t.Error("identity pass did not return the input graph")
	}
}

// TestApplyTransformsErrorWrapping checks a failing pass is reported with
// its name and the underlying error preserved for errors.Is.
func TestApplyTransformsErrorWrapping(t *testing.T) {
	g := chainGraph(t)
	sentinelErr := errors.New("boom")
	_, err := ApplyTransforms(g, fnPass{"exploder", func(*Graph) (*Graph, error) { return nil, sentinelErr }})
	if err == nil {
		t.Fatal("no error from a failing pass")
	}
	if !errors.Is(err, sentinelErr) {
		t.Errorf("wrapped error lost the cause: %v", err)
	}
	if !strings.Contains(err.Error(), "exploder") {
		t.Errorf("error does not name the pass: %v", err)
	}
	if _, err := ApplyTransforms(g, fnPass{"nilpass", func(*Graph) (*Graph, error) { return nil, nil }}); err == nil {
		t.Error("nil output graph accepted")
	}
}

// TestApplyTransformsRejectsCycle checks a pass that introduces a
// dependency cycle is caught by the rebuild's Kahn validation.
func TestApplyTransformsRejectsCycle(t *testing.T) {
	g := chainGraph(t)
	cyclic := fnPass{"cycle", func(in *Graph) (*Graph, error) {
		nb := NewBuilder(in.NumNodes)
		for i := range in.Tasks {
			if _, err := nb.AddTask(in.Tasks[i]); err != nil {
				return nil, err
			}
		}
		for i := range in.Tasks {
			for _, d := range in.Tasks[i].Deps {
				if err := nb.AddDep(in.Tasks[i].ID, in.Tasks[d.Producer].ID, in.Dep(d)); err != nil {
					return nil, err
				}
			}
		}
		// Close the loop: a depends on z.
		if err := nb.AddDep(TaskID{Class: "a"}, TaskID{Class: "z"}, Dep{}); err != nil {
			return nil, err
		}
		return nb.Build()
	}}
	if _, err := ApplyTransforms(g, cyclic); err == nil {
		t.Fatal("cyclic rewrite passed validation")
	}
}

// TestPresetSlotsCarriesAllocations checks a rewrite seeded with
// PresetSlots continues slot numbering where the original builder stopped,
// so closures compiled against old slot indices stay valid and new
// allocations never collide.
func TestPresetSlotsCarriesAllocations(t *testing.T) {
	b := NewBuilder(2)
	if _, err := b.AddTask(Task{ID: TaskID{Class: "a"}}); err != nil {
		t.Fatal(err)
	}
	s0 := b.AllocSlot(0)
	s1 := b.AllocSlot(0)
	bs0 := b.AllocBufSlot(1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s0 != 0 || s1 != 1 || bs0 != 0 {
		t.Fatalf("unexpected slot layout: %d %d %d", s0, s1, bs0)
	}
	nb := NewBuilder(g.NumNodes)
	nb.PresetSlots(g.NodeSlots, g.NodeBufSlots)
	if next := nb.AllocSlot(0); next != 2 {
		t.Errorf("AllocSlot(0) after preset = %d, want 2", next)
	}
	if next := nb.AllocBufSlot(1); next != 1 {
		t.Errorf("AllocBufSlot(1) after preset = %d, want 1", next)
	}
	if next := nb.AllocSlot(1); next != 0 {
		t.Errorf("AllocSlot(1) after preset = %d, want 0", next)
	}
}

// TestStatsEagerAndInvalidate checks Build memoizes stats eagerly, the
// memo survives repeated reads, and InvalidateStats forces a fresh
// recomputation that matches.
func TestStatsEagerAndInvalidate(t *testing.T) {
	g := chainGraph(t)
	s1 := g.ComputeStats()
	s2 := g.ComputeStats()
	if s1.Tasks != 3 || s1.Deps != 2 || s1.CriticalPathTasks != 3 {
		t.Fatalf("unexpected stats: %+v", s1)
	}
	if s2.Tasks != s1.Tasks || s2.CriticalPathTasks != s1.CriticalPathTasks {
		t.Fatalf("memoized read diverged: %+v vs %+v", s1, s2)
	}
	// The returned copy owns its map: mutating it must not poison the memo.
	s1.KindCounts["interior"] = -1
	if g.ComputeStats().KindCounts["interior"] == -1 {
		t.Fatal("caller mutation leaked into the stats memo")
	}
	g.InvalidateStats()
	if s3 := g.ComputeStats(); s3.Tasks != 3 || s3.KindCounts["interior"] != 3 {
		t.Fatalf("recomputation after invalidate diverged: %+v", s3)
	}
}
