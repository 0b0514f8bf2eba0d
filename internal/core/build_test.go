package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"castencil/internal/ptg"
)

// graphHash folds everything the engines read from a built graph into one
// FNV-64a sum: per task its ID, node, kind, priority, epoch and cost hint;
// its Deps in order (producer, bytes, which of Pack/Unpack are set); its
// Succs in order; its migration sizes; and the graph's Stats. Any reordering of dependencies or
// successors changes the sum.
func graphHash(g *ptg.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	flag := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	put(g.NumNodes)
	put(len(g.Tasks))
	for i := range g.Tasks {
		t := &g.Tasks[i]
		h.Write([]byte(t.ID.Class))
		put(t.ID.I)
		put(t.ID.J)
		put(t.ID.K)
		put(int(t.Node))
		put(int(t.Kind))
		put(int(t.Priority))
		put(int(t.Epoch))
		put(t.Hint.Rows)
		put(t.Hint.Cols)
		put(t.Hint.Updates)
		put(t.Hint.RedundantUpdates)
		put(t.Hint.CopyPoints)
		flag(t.Run != nil)
		put(len(t.Deps))
		for _, d := range t.Deps {
			put(int(d.Producer))
			put(d.Bytes)
			flag(d.Pack != nil)
			flag(d.Unpack != nil)
		}
		put(len(t.Succs))
		for _, s := range t.Succs {
			put(int(s))
		}
		flag(t.Mig != nil)
		if t.Mig != nil {
			put(t.Mig.InBytes)
			put(t.Mig.OutBytes)
		}
	}
	st := g.ComputeStats()
	for _, v := range []int{st.Tasks, st.Deps, st.CrossDeps, st.CrossBytes,
		st.TasksPerNodeMin, st.TasksPerNodeMax, st.CriticalPathTasks} {
		put(v)
	}
	for k := ptg.Kind(0); k < ptg.NumKinds; k++ {
		put(st.KindCounts[k.String()])
	}
	return h.Sum64()
}

// TestGoldenGraphs pins the exact graphs BuildGraph produces — tasks, the
// order of every task's Deps and Succs, hints and migration sizes — for
// every variant, both stencils, split on and off, with and without bodies.
// The constants were captured before the flat (CSR) graph build landed; a
// graph-representation change must reproduce them bit for bit.
func TestGoldenGraphs(t *testing.T) {
	// 51 = 6*8 + 3: ragged edge tiles; 7 steps with s = w = 3: a truncated
	// final phase and block.
	base := Config{N: 51, TileRows: 8, P: 2, Steps: 7, StepSize: 3, Wavefront: 3}
	cases := []struct {
		name  string
		v     Variant
		nine  bool
		split bool
		// want is the cost-only graph's hash, bodies the with-bodies one.
		want, bodies uint64
	}{
		{"base/5pt", Base, false, false, 0xfaaf1653ec3d155, 0x3d5e823877f1d011},
		{"base/5pt/split", Base, false, true, 0x901746a25f74ef94, 0x95e28eea51274e91},
		{"base/9pt", Base, true, false, 0xfee7b084ab21dd91, 0x6cf2f21005f5533d},
		{"base/9pt/split", Base, true, true, 0x9f6bd54852ab7d4d, 0x5aeb01aa324414d4},
		{"ca/5pt", CA, false, false, 0xeddfc2c4a5e8e62c, 0x84ebc8161554b60c},
		{"ca/5pt/split", CA, false, true, 0x1ff38655ceea01c4, 0x75786a916d8a2ed},
		{"ca/9pt", CA, true, false, 0x1fdddfa2f901ebec, 0xa421d73393505588},
		{"ca/9pt/split", CA, true, true, 0x2bcfa40d8217f69e, 0x6df69fea87e4e127},
		{"wf/5pt", WF, false, false, 0x60366a0cc33e2b68, 0xd6c9d5a82c45dab0},
		{"wf/9pt", WF, true, false, 0x75a0b21340c6e978, 0xe995433fe5fce10},
	}
	for _, c := range cases {
		for _, bodies := range []bool{false, true} {
			cfg := base
			cfg.NinePoint = c.nine
			cfg.WithBodies = bodies
			if c.split {
				cfg.Transform = TransformSplit
			}
			g, err := BuildGraph(c.v, cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want, name := c.want, c.name
			if bodies {
				want, name = c.bodies, name+"/bodies"
			}
			if got := graphHash(g); got != want {
				t.Errorf("%s: graph hash %#x, want %#x", name, got, want)
			}
		}
	}
}

// TestGoldenSimulate pins the simulated makespan and traffic of one CA
// configuration: a graph change that keeps the structure hash but moves the
// simulator still fails here.
func TestGoldenSimulate(t *testing.T) {
	cfg := Config{N: 96, TileRows: 12, P: 2, Steps: 13, StepSize: 4}
	r, err := Simulate(CA, cfg, SimOptions{Machine: machineForTest()})
	if err != nil {
		t.Fatal(err)
	}
	const makespan, messages, bytes = 5591808, 336, 60320
	if r.Makespan != makespan || r.Messages != messages || r.BytesSent != bytes {
		t.Errorf("Simulate(CA) = makespan %d ns, %d messages, %d bytes; want %d, %d, %d",
			int64(r.Makespan), r.Messages, r.BytesSent, makespan, messages, bytes)
	}
}

// TestBuildAllocsPerTask checks the graph build allocates a fixed number of
// objects, not a few per task. Building the same shape at two Steps values,
// each added task may cost at most 0.05 allocations on a cost-only graph;
// with bodies it may add its body closure and the Pack/Unpack closures of
// its cross-node edges, and no more than 1.5 in all on a shape with
// ca-small-tiles' tile count (32 x 32 tiles of 8 x 8 on 2 x 2 nodes).
func TestBuildAllocsPerTask(t *testing.T) {
	for _, c := range []struct {
		name   string
		v      Variant
		bodies bool
	}{
		{"base", Base, false},
		{"ca", CA, false},
		{"base/bodies", Base, true},
		{"ca/bodies", CA, true},
	} {
		build := func(steps int) (allocs float64, tasks, cross int) {
			cfg := Config{N: 256, TileRows: 8, P: 2, Steps: steps, StepSize: 4, WithBodies: c.bodies}
			var g *ptg.Graph
			allocs = testing.AllocsPerRun(2, func() {
				var err error
				if g, err = BuildGraph(c.v, cfg); err != nil {
					t.Fatal(err)
				}
			})
			cross, _ = g.CrossNodeDeps()
			return allocs, len(g.Tasks), cross
		}
		a1, n1, x1 := build(4)
		a2, n2, x2 := build(12)
		added := float64(n2 - n1)
		per := (a2 - a1) / added
		limit := 0.05
		if c.bodies {
			limit += 1 + 2*float64(x2-x1)/added
			limit = min(limit, 1.5)
		}
		if per > limit {
			t.Errorf("%s: %.3f allocations per added task (%v for %d tasks, %v for %d), want <= %.3f",
				c.name, per, a1, n1, a2, n2, limit)
		}
	}
}
