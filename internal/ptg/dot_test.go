package ptg

import (
	"strings"
	"testing"
)

// dotTestGraph hand-builds a two-node, two-epoch graph exercising every
// task kind the renderer styles — init, interior and boundary — with one
// cross-node dependency.
func dotTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(2)
	add := func(id TaskID, node int32, kind Kind, epoch int32) {
		if _, err := b.AddTask(Task{ID: id, Node: node, Kind: kind, Epoch: epoch}); err != nil {
			t.Fatal(err)
		}
	}
	init0 := TaskID{Class: "in", I: 0}
	init1 := TaskID{Class: "in", I: 1}
	inner := TaskID{Class: "st", I: 0, K: 1}
	edge := TaskID{Class: "st", J: 1, K: 1}
	bnd := TaskID{Class: "st", I: 1, K: 1}
	add(init0, 0, KindInit, 0)
	add(init1, 1, KindInit, 0)
	add(inner, 0, KindInterior, 1)
	add(edge, 0, KindBoundary, 1)
	add(bnd, 1, KindBoundary, 1)
	dep := func(consumer, producer TaskID, d Dep) {
		if err := b.AddDep(consumer, producer, d); err != nil {
			t.Fatal(err)
		}
	}
	dep(inner, init0, Dep{})
	dep(edge, init0, Dep{})
	dep(edge, init1, Dep{Bytes: 96})
	dep(bnd, init1, Dep{})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWriteDOTGolden pins the exact DOT rendering: per-node clusters,
// nested per-epoch rank groups, per-kind shapes (init = grey ellipse,
// interior = white box, boundary = salmon box), and bold red cross-node
// edges labeled with their payload size. A rendering change must update
// this golden deliberately.
func TestWriteDOTGolden(t *testing.T) {
	g := dotTestGraph(t)
	var sb strings.Builder
	if err := g.WriteDOT(&sb, "sample"); err != nil {
		t.Fatal(err)
	}
	const want = `digraph "sample" {
  rankdir=TB;
  node [shape=box, fontsize=10];
  subgraph cluster_node0 {
    label="node 0";
    { rank=same; // epoch 0
      t0 [label="in(0,0,0)", shape=ellipse, style=filled, fillcolor=lightgrey];
    }
    { rank=same; // epoch 1
      t2 [label="st(0,0,1)", shape=box, style=filled, fillcolor=white];
      t3 [label="st(0,1,1)", shape=box, style=filled, fillcolor=lightsalmon];
    }
  }
  subgraph cluster_node1 {
    label="node 1";
    { rank=same; // epoch 0
      t1 [label="in(1,0,0)", shape=ellipse, style=filled, fillcolor=lightgrey];
    }
    { rank=same; // epoch 1
      t4 [label="st(1,0,1)", shape=box, style=filled, fillcolor=lightsalmon];
    }
  }
  t0 -> t2;
  t0 -> t3;
  t1 -> t3 [style=bold, color=red, label="96B"];
  t1 -> t4;
}
`
	if got := sb.String(); got != want {
		t.Errorf("WriteDOT output diverged from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWriteDOTDeterministic renders the same graph twice and requires
// byte-identical output (map iteration must not leak into the rendering).
func TestWriteDOTDeterministic(t *testing.T) {
	g := dotTestGraph(t)
	var a, b strings.Builder
	if err := g.WriteDOT(&a, "x"); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteDOT(&b, "x"); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two renders of the same graph differ")
	}
}
