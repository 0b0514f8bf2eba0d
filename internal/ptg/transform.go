package ptg

import "fmt"

// Transform is a graph rewrite pass. A pass receives a frozen Graph and
// returns a rewritten one — typically by replaying tasks into a fresh
// Builder (seeded with PresetSlots so reused closures keep addressing the
// same store slots), re-wiring dependencies, and calling Build, which
// re-runs the Kahn acyclicity check and recomputes Stats.
//
// Contract for passes:
//   - The input graph is read-only; never mutate it.
//   - Preserve Task.Epoch on every task that produces cross-node payloads,
//     so the halo-bundle plan (Graph.Bundles groups cross deps by producer
//     epoch) survives the rewrite.
//   - Reused Pack/Unpack closures and task bodies must see the same slot
//     indices; seed the new builder with PresetSlots.
//
// The first pass is inner/border splitting (internal/core's split pass);
// the framework exists so future rewrites — task fusion, priority
// recomputation — compose without touching the graph builders.
type Transform interface {
	// Name identifies the pass in errors and logs.
	Name() string
	// Apply rewrites g into a new graph. Returning g unchanged is legal
	// for passes that find nothing to rewrite.
	Apply(g *Graph) (*Graph, error)
}

// ApplyTransforms runs a pipeline of rewrite passes in order. Every pass
// output comes from Builder.Build, which has already run the Kahn check and
// computed fresh stats, so no stale pre-rewrite summary can leak through
// ComputeStats or CrossNodeDeps.
func ApplyTransforms(g *Graph, passes ...Transform) (*Graph, error) {
	for _, p := range passes {
		out, err := p.Apply(g)
		if err != nil {
			return nil, fmt.Errorf("ptg: transform %s: %w", p.Name(), err)
		}
		if out == nil {
			return nil, fmt.Errorf("ptg: transform %s returned nil graph", p.Name())
		}
		g = out
	}
	return g, nil
}
