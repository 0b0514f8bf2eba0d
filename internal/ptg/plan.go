package ptg

import (
	"fmt"
	"slices"
)

// OutEdge is one dependency seen from its producer: the consumer task, the
// index of the dependency in the consumer's Deps, and the bundle that
// carries it.
type OutEdge struct {
	Consumer int32
	Dep      int32
	// Bundle indexes Plan.Bundles; -1 marks a local or point-to-point edge.
	Bundle int32
}

// Plan is the execution plan of a graph under one coalescing mode: what
// both engines derive from the graph before running it, resolved once.
// Each engine adds only its own clock and mutable state (bundle countdowns,
// pending counters). A Plan is immutable and may be shared by concurrent
// runs.
type Plan struct {
	// Bundles is the resolved bundle list, in first-seen order over
	// consumers and their deps. It is nil when coalescing is off or the
	// graph has no cross-node dependency.
	// Wire messages number bundle i as i+1 (see fault.BundleMsgID).
	Bundles []Bundle
	// CrossIn and CrossOut count, per node, the wire messages the node
	// receives and sends in one run: one per point-to-point edge, one per
	// bundle.
	CrossIn, CrossOut []int
	out               []OutEdge
	outOff            []int32 // task i's out-edges are out[outOff[i]:outOff[i+1]]
	// cross lists the cross-node edges in (consumer, dep) order, recorded by
	// the point-to-point plan for bundled to group.
	cross []crossEdge
}

// crossEdge is one cross-node dependency: the consumer task, the index of
// the dependency in its Deps, and the position of its out-edge in Plan.out.
type crossEdge struct {
	task, dep, out int32
}

// Out returns the out-edges of task producer, ordered by consumer index,
// then dependency index.
func (p *Plan) Out(producer int32) []OutEdge {
	lo, hi := p.outOff[producer], p.outOff[producer+1]
	return p.out[lo:hi:hi]
}

// Plan resolves a coalescing mode against the graph. CoalesceOff returns
// the point-to-point plan Build computed. CoalesceStep bundles every
// cross-node dependency by (producer node, consumer node, producer epoch)
// and fails when bundling would deadlock the graph (see Bundles). It
// resolves bundling once per graph, and every later or concurrent call
// shares it.
func (g *Graph) Plan(mode CoalesceMode) (*Plan, error) {
	if mode == CoalesceOff || g.stats.CrossDeps == 0 {
		return g.plan, nil
	}
	g.bundleOnce.Do(func() { g.bundle, g.bundleErr = g.bundled() })
	if g.bundleErr != nil {
		return nil, g.bundleErr
	}
	return g.bundle, nil
}

// pointToPoint lays out the graph's out-edges in CSR form, counts one wire
// message per cross-node dependency and records those dependencies: the
// CoalesceOff plan, computed once by Build and shared by every plan of the
// graph.
func (g *Graph) pointToPoint() *Plan {
	n := len(g.Tasks)
	p := &Plan{
		CrossIn:  make([]int, g.NumNodes),
		CrossOut: make([]int, g.NumNodes),
		outOff:   make([]int32, n+1),
	}
	cross := 0
	for i := range g.Tasks {
		t := &g.Tasks[i]
		for _, d := range t.Deps {
			p.outOff[d.Producer+1]++
			if src := g.Tasks[d.Producer].Node; src != t.Node {
				p.CrossOut[src]++
				p.CrossIn[t.Node]++
				cross++
			}
		}
	}
	for i := range n {
		p.outOff[i+1] += p.outOff[i]
	}
	// Walking consumers in index order fills each producer's window in
	// (consumer, dep) order.
	p.out = make([]OutEdge, p.outOff[n])
	p.cross = make([]crossEdge, 0, cross)
	next := slices.Clone(p.outOff[:n])
	for i := range g.Tasks {
		t := &g.Tasks[i]
		for di, d := range t.Deps {
			k := next[d.Producer]
			p.out[k] = OutEdge{Consumer: int32(i), Dep: int32(di), Bundle: -1}
			next[d.Producer]++
			if g.Tasks[d.Producer].Node != t.Node {
				p.cross = append(p.cross, crossEdge{task: int32(i), dep: int32(di), out: k})
			}
		}
	}
	return p
}

// bundleKey groups cross deps by (source node, destination node, producer
// epoch).
type bundleKey struct {
	src, dst, epoch int32
}

// bundled builds the CoalesceStep plan: every cross-node dependency joins
// the bundle of its (producer node, consumer node, producer epoch) triple.
// It walks only the cross-node edges the point-to-point plan recorded.
func (g *Graph) bundled() (*Plan, error) {
	base := g.plan
	// Number the bundles in first-seen order and size them, remembering
	// each cross edge's bundle, then carve every bundle's member list out
	// of one array and fill it in the same (task, dep) order.
	byKey := map[bundleKey]int32{}
	var bundles []Bundle
	var count []int
	of := make([]int32, len(base.cross))
	for k, c := range base.cross {
		cons := &g.Tasks[c.task]
		d := cons.Deps[c.dep]
		prod := &g.Tasks[d.Producer]
		key := bundleKey{src: prod.Node, dst: cons.Node, epoch: prod.Epoch}
		bi, ok := byKey[key]
		if !ok {
			bi = int32(len(bundles))
			byKey[key] = bi
			bundles = append(bundles, Bundle{Src: key.src, Dst: key.dst, Epoch: key.epoch})
			count = append(count, 0)
		}
		bundles[bi].Bytes += int(d.Bytes)
		count[bi]++
		of[k] = bi
	}
	members := make([]BundleMember, len(base.cross))
	for bi := range bundles {
		bundles[bi].Members, members = members[:0:count[bi]], members[count[bi]:]
	}

	p := &Plan{
		Bundles:  bundles,
		CrossIn:  make([]int, g.NumNodes),
		CrossOut: make([]int, g.NumNodes),
		out:      slices.Clone(base.out),
		outOff:   base.outOff,
	}
	for k, c := range base.cross {
		b := &bundles[of[k]]
		b.Members = append(b.Members, BundleMember{Task: c.task, Dep: c.dep})
		p.out[c.out].Bundle = of[k]
	}
	for i := range bundles {
		b := &bundles[i]
		p.CrossOut[b.Src]++
		p.CrossIn[b.Dst]++
	}
	if reached := p.reachable(g); reached != len(g.Tasks) {
		return nil, fmt.Errorf("ptg: bundling by epoch deadlocks the graph (%d of %d tasks reachable); run with coalescing off",
			reached, len(g.Tasks))
	}
	return p, nil
}

// reachable counts the tasks a bundled run can reach: Kahn's algorithm over
// the tasks plus one barrier per bundle, which a bundle's member edges
// enter and its member consumers leave. A bundle is sent only once all its
// members are produced, so every member consumer waits on every member
// producer; with degenerate epochs (a chain bouncing between two nodes
// within one epoch) that wait is cyclic and the count falls short.
func (p *Plan) reachable(g *Graph) int {
	n := len(g.Tasks)
	indeg := make([]int32, n+len(p.Bundles)) // tasks, then bundles
	queue := make([]int32, 0, n)
	for i := range g.Tasks {
		if indeg[i] = int32(len(g.Tasks[i].Deps)); indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	for bi := range p.Bundles {
		indeg[n+bi] = int32(len(p.Bundles[bi].Members))
	}
	release := func(t int32) {
		if indeg[t]--; indeg[t] == 0 {
			queue = append(queue, t)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, e := range p.Out(queue[head]) {
			if e.Bundle < 0 {
				release(e.Consumer)
				continue
			}
			b := n + int(e.Bundle)
			if indeg[b]--; indeg[b] == 0 {
				for _, m := range p.Bundles[e.Bundle].Members {
					release(m.Task)
				}
			}
		}
	}
	return len(queue)
}
