package ptg

import "testing"

func bundleTask(t *testing.T, b *Builder, name string, node, epoch int32) TaskID {
	t.Helper()
	id := TaskID{Class: name}
	if _, err := b.AddTask(Task{ID: id, Node: node, Epoch: epoch}); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestBundlesGroupByTriple checks the planner's grouping and its
// deterministic member order: deps sharing (src node, dst node, producer
// epoch) coalesce, everything else stays apart.
func TestBundlesGroupByTriple(t *testing.T) {
	b := NewBuilder(3)
	// Node 0 producers at epoch 0 and 1; consumers on nodes 1 and 2.
	p0 := bundleTask(t, b, "p0", 0, 0)
	p1 := bundleTask(t, b, "p1", 0, 0)
	p2 := bundleTask(t, b, "p2", 0, 1)
	c0 := bundleTask(t, b, "c0", 1, 0)
	c1 := bundleTask(t, b, "c1", 1, 0)
	c2 := bundleTask(t, b, "c2", 2, 0)
	for _, d := range []struct {
		cons, prod TaskID
		bytes      int
	}{
		{c0, p0, 8},  // bundle (0->1, e0)
		{c1, p1, 16}, // bundle (0->1, e0)
		{c1, p2, 32}, // bundle (0->1, e1): different epoch
		{c2, p0, 8},  // bundle (0->2, e0): different destination
	} {
		if err := b.AddDep(d.cons, d.prod, Dep{Bytes: d.bytes}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bundles, err := g.Bundles()
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 3 {
		t.Fatalf("got %d bundles, want 3: %+v", len(bundles), bundles)
	}
	first := bundles[0]
	if first.Src != 0 || first.Dst != 1 || first.Epoch != 0 {
		t.Fatalf("bundle 0 = (%d->%d, e%d), want (0->1, e0)", first.Src, first.Dst, first.Epoch)
	}
	if len(first.Members) != 2 || first.Bytes != 24 {
		t.Fatalf("bundle 0 has %d members, %d bytes; want 2 members, 24 bytes", len(first.Members), first.Bytes)
	}
	if first.WireBytes() != 4*(1+2)+24 {
		t.Fatalf("WireBytes = %d, want %d", first.WireBytes(), 4*3+24)
	}
	// Members must be in task-index order (c0 before c1).
	i0, _ := g.Lookup(c0)
	i1, _ := g.Lookup(c1)
	if first.Members[0].Task != i0 || first.Members[1].Task != i1 {
		t.Fatalf("member order %+v, want tasks [%d %d]", first.Members, i0, i1)
	}
}

// TestBundlesNoCrossDeps returns an empty plan for single-node graphs.
func TestBundlesNoCrossDeps(t *testing.T) {
	b := NewBuilder(1)
	a := bundleTask(t, b, "a", 0, 0)
	c := bundleTask(t, b, "c", 0, 0)
	if err := b.AddDep(c, a, Dep{}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bundles, err := g.Bundles()
	if err != nil {
		t.Fatal(err)
	}
	if bundles != nil {
		t.Fatalf("single-node graph planned %d bundles, want none", len(bundles))
	}
}

// TestBundlesDetectDeadlock: a chain bouncing between two nodes with
// degenerate (all-zero) epochs becomes cyclic under bundling — the first
// hop's bundle would wait for a payload that transitively needs the bundle
// itself. The planner must refuse rather than hand the engines a deadlock.
func TestBundlesDetectDeadlock(t *testing.T) {
	b := NewBuilder(2)
	a := bundleTask(t, b, "a", 0, 0)
	bb := bundleTask(t, b, "b", 1, 0)
	c := bundleTask(t, b, "c", 0, 0)
	d := bundleTask(t, b, "d", 1, 0)
	for _, e := range []struct{ cons, prod TaskID }{{bb, a}, {c, bb}, {d, c}} {
		if err := b.AddDep(e.cons, e.prod, Dep{Bytes: 8}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Bundles(); err == nil {
		t.Fatal("Bundles accepted a plan that deadlocks an alternating-node chain")
	}
	// The same chain with advancing epochs is bundle-safe: each hop lands
	// in its own bundle.
	b2 := NewBuilder(2)
	ids := []TaskID{
		bundleTask(t, b2, "a", 0, 0),
		bundleTask(t, b2, "b", 1, 1),
		bundleTask(t, b2, "c", 0, 2),
		bundleTask(t, b2, "d", 1, 3),
	}
	for i := 1; i < len(ids); i++ {
		if err := b2.AddDep(ids[i], ids[i-1], Dep{Bytes: 8}); err != nil {
			t.Fatal(err)
		}
	}
	g2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	bundles, err := g2.Bundles()
	if err != nil {
		t.Fatalf("epoch-stamped chain refused: %v", err)
	}
	if len(bundles) != 3 {
		t.Fatalf("epoch-stamped chain planned %d bundles, want 3", len(bundles))
	}
}

func TestParseCoalesce(t *testing.T) {
	for _, c := range []struct {
		name string
		want CoalesceMode
	}{{"off", CoalesceOff}, {"none", CoalesceOff}, {"", CoalesceOff}, {"step", CoalesceStep}} {
		got, err := ParseCoalesce(c.name)
		if err != nil || got != c.want {
			t.Errorf("ParseCoalesce(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
		if c.name != "" && c.name != "none" && got.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), c.name)
		}
	}
	for _, name := range []string{"bogus", "auto"} {
		if _, err := ParseCoalesce(name); err == nil {
			t.Errorf("ParseCoalesce accepted the unknown mode %q", name)
		}
	}
}
