package ptg

import (
	"fmt"
	"io"
	"sort"
)

// dotStyle maps a task kind to its Graphviz shape and fill.
func dotStyle(k Kind) (shape, fill string) {
	switch k {
	case KindInit:
		return "ellipse", "lightgrey"
	case KindBoundary:
		return "box", "lightsalmon"
	default:
		return "box", "white"
	}
}

// WriteDOT renders the graph in Graphviz DOT format for debugging: tasks
// grouped into per-node clusters with nested per-epoch rank groups (so a
// node's timeline reads top to bottom and epochs align horizontally),
// per-kind shapes, and cross-node dependencies drawn bold with their payload
// sizes. Output is deterministic for golden-file testing. Intended for
// small graphs (a few hundred tasks); use ComputeStats for anything larger.
func (g *Graph) WriteDOT(w io.Writer, title string) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n", title); err != nil {
		return err
	}
	byNode := make(map[int32][]int32)
	for i := range g.Tasks {
		byNode[g.Tasks[i].Node] = append(byNode[g.Tasks[i].Node], int32(i))
	}
	nodes := make([]int32, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		fmt.Fprintf(w, "  subgraph cluster_node%d {\n    label=\"node %d\";\n", n, n)
		// Group the node's tasks by epoch; within an epoch keep build
		// order so repeated renders of the same graph are identical.
		byEpoch := make(map[int32][]int32)
		for _, i := range byNode[n] {
			e := g.Tasks[i].Epoch
			byEpoch[e] = append(byEpoch[e], i)
		}
		epochs := make([]int32, 0, len(byEpoch))
		for e := range byEpoch {
			epochs = append(epochs, e)
		}
		sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
		for _, e := range epochs {
			fmt.Fprintf(w, "    { rank=same; // epoch %d\n", e)
			for _, i := range byEpoch[e] {
				t := &g.Tasks[i]
				shape, fill := dotStyle(t.Kind)
				fmt.Fprintf(w, "      t%d [label=%q, shape=%s, style=filled, fillcolor=%s];\n",
					i, t.ID.String(), shape, fill)
			}
			fmt.Fprintln(w, "    }")
		}
		fmt.Fprintln(w, "  }")
	}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		for _, d := range t.Deps {
			p := &g.Tasks[d.Producer]
			if p.Node != t.Node {
				fmt.Fprintf(w, "  t%d -> t%d [style=bold, color=red, label=\"%dB\"];\n", d.Producer, i, d.Bytes)
			} else {
				fmt.Fprintf(w, "  t%d -> t%d;\n", d.Producer, i)
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
