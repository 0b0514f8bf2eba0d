package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"

	"castencil/internal/grid"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
)

// graphHash folds everything the engines read from a built graph into one
// FNV-64a sum: per task its ID, node, kind, priority, epoch and cost hint;
// its Deps in order (producer, bytes, which of Pack/Unpack are set); its
// successors in out-edge order, each consumer once; and the graph's Stats. Any reordering of dependencies or successors changes
// the sum.
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
	plan, _ := g.Plan(ptg.CoalesceOff)
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
		for _, e := range t.Deps {
			d := g.Dep(e)
			put(int(e.Producer))
			put(d.Bytes)
			flag(d.Pack != nil)
			flag(d.Unpack != nil)
		}
		succs := succsOf(plan.Out(int32(i)))
		put(len(succs))
		for _, s := range succs {
			put(int(s))
		}
	}
	st := g.ComputeStats()
	for _, v := range []int{st.Tasks, st.Deps, st.CrossDeps, st.CrossBytes,
		st.TasksPerNodeMin, st.TasksPerNodeMax, st.CriticalPathTasks} {
		put(v)
	}
	// The constants were captured when there were seven task kinds; the
	// two retired ones (5 and 6) keep their slots in the hash as zeros.
	for k := ptg.Kind(0); k < 7; k++ {
		put(st.KindCounts[k.String()])
	}
	return h.Sum64()
}

// succsOf lists the consumers of a producer's out-edges once each, in edge
// order.
func succsOf(out []ptg.OutEdge) []int32 {
	var succs []int32
	for _, e := range out {
		if n := len(succs); n == 0 || succs[n-1] != e.Consumer {
			succs = append(succs, e.Consumer)
		}
	}
	return succs
}

// TestGoldenGraphs pins the exact graphs BuildGraph produces — tasks, the
// order of every task's Deps and successors, and hints — for
// every variant, both stencils, with and without bodies.
// The constants were captured before the flat (CSR) graph build landed and
// re-pinned once, when the inter-node stealing sizes left the hash; a
// graph-representation change must reproduce them bit for bit.
func TestGoldenGraphs(t *testing.T) {
	// 51 = 6*8 + 3: ragged edge tiles; 7 steps with s = w = 3: a truncated
	// final phase and block.
	base := Config{N: 51, TileRows: 8, P: 2, Steps: 7, StepSize: 3, Wavefront: 3}
	cases := []struct {
		name string
		v    Variant
		nine bool
		// want is the cost-only graph's hash, bodies the with-bodies one.
		want, bodies uint64
	}{
		{"base/5pt", Base, false, 0xa56fcca99d38fe45, 0x7ef794cc86faf421},
		{"base/9pt", Base, true, 0x544f0d891805989e, 0x7ca8c6c61b566b32},
		{"ca/5pt", CA, false, 0xbcc4a11de452aaf4, 0x6ec4a95fa89338e4},
		{"ca/9pt", CA, true, 0x93dc72d6d97bc313, 0x85ecbdaaab45a20f},
		{"wf/5pt", WF, false, 0x36a8ffe2e6f7082d, 0xb088eefe82f9fde9},
		{"wf/9pt", WF, true, 0xc2bfdb856d0f2da9, 0xa9ad30b39260465d},
	}
	for _, c := range cases {
		for _, bodies := range []bool{false, true} {
			cfg := base
			cfg.NinePoint = c.nine
			cfg.WithBodies = bodies
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

// TestSimulateReusesGraph checks that Simulate takes its graph from the
// pool: a repeated call allocates at most a tenth of what a cost-only build
// of its graph does (each the smallest of three), and its result does not
// depend on what ran before — a different shape, or concurrent calls of one
// shape, each on a graph of its own.
func TestSimulateReusesGraph(t *testing.T) {
	cfg := Config{N: 576, TileRows: 18, P: 2, Steps: 20, StepSize: 5}
	opts := SimOptions{Machine: machineForTest()}
	sim := func(cfg Config) *SimResult {
		r, err := Simulate(CA, cfg, opts)
		if err != nil {
			t.Error(err)
		}
		return r
	}
	least := func(f func()) uint64 {
		n := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			n = min(n, allocBytes(f))
		}
		return n
	}
	want := sim(cfg)
	build := least(func() {
		if _, err := BuildGraph(CA, cfg.withDefaults()); err != nil {
			t.Fatal(err)
		}
	})
	again := least(func() { sim(cfg) })
	t.Logf("cost-only build %d B, repeated Simulate %d B", build, again)
	if again > build/10 {
		t.Errorf("a repeated Simulate allocates %d B, a cost-only build of its graph %d B; want at most a tenth", again, build)
	}

	sim(Config{N: 240, TileRows: 12, P: 2, Steps: 30, StepSize: 3})
	if got := sim(cfg); !reflect.DeepEqual(got, want) {
		t.Errorf("after another shape: %+v, want %+v", got, want)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				if got := sim(cfg); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent: %+v, want %+v", got, want)
				}
			}
		}()
	}
	wg.Wait()
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

// TestBuildGraphBytesPerTask gates the size of the cost-only graph, on
// TestBuildAllocsPerTask's shape and by its two-Steps method: each added
// task may cost at most 330 bytes in all — the task, its edges and
// out-edges, its slots in the task index and what Build's
// one topological pass allocates. Each build is measured as its smallest
// of three, as in TestBuildBytesPerTask.
func TestBuildGraphBytesPerTask(t *testing.T) {
	for _, v := range []Variant{Base, CA} {
		build := func(steps int) (bytes float64, tasks int) {
			cfg := Config{N: 256, TileRows: 8, P: 2, Steps: steps, StepSize: 4}
			least := uint64(math.MaxUint64)
			for i := 0; i < 3; i++ {
				least = min(least, allocBytes(func() {
					g, err := BuildGraph(v, cfg)
					if err != nil {
						t.Fatal(err)
					}
					tasks = len(g.Tasks)
				}))
			}
			return float64(least), tasks
		}
		b1, n1 := build(4)
		b2, n2 := build(12)
		per := (b2 - b1) / float64(n2-n1)
		t.Logf("%v: %.1f B per added task", v, per)
		if per > 330 {
			t.Errorf("%v: %.1f B per added task (%.0f B for %d tasks, %.0f B for %d), want <= 330",
				v, per, b1, n1, b2, n2)
		}
	}
}

// TestRunAllocsPerTask is the execution-side twin of TestBuildAllocsPerTask:
// running a cost-only graph allocates a fixed number of objects, not a few
// per task, with coalescing off and on. Each task added by running more
// steps of the same shape may cost at most 0.05 allocations.
func TestRunAllocsPerTask(t *testing.T) {
	for _, v := range []Variant{Base, CA} {
		for _, mode := range []ptg.CoalesceMode{ptg.CoalesceOff, ptg.CoalesceStep} {
			run := func(steps int) (allocs float64, tasks int) {
				g, err := BuildGraph(v, Config{N: 256, TileRows: 8, P: 2, Steps: steps, StepSize: 4})
				if err != nil {
					t.Fatal(err)
				}
				allocs = testing.AllocsPerRun(2, func() {
					if _, err := runtime.Run(g, runtime.Options{Coalesce: mode}); err != nil {
						t.Fatal(err)
					}
				})
				return allocs, len(g.Tasks)
			}
			a1, n1 := run(4)
			a2, n2 := run(12)
			if per := (a2 - a1) / float64(n2-n1); per > 0.05 {
				t.Errorf("%v/%v: %.3f allocations per added task (%v for %d tasks, %v for %d), want <= 0.05",
					v, mode, per, a1, n1, a2, n2)
			}
		}
	}
}

// BenchmarkBuildGraph times graph construction at three benchmark workload
// shapes: ca-small-tiles and mesh-base-p2p build with bodies for the real
// engine, sim-paper builds the cost-only graph the simulator replays.
func BenchmarkBuildGraph(b *testing.B) {
	for _, c := range []struct {
		name string
		v    Variant
		cfg  Config
	}{
		{"ca-small-tiles", CA, Config{N: 512, TileRows: 16, P: 2, Steps: 48, StepSize: 4, WithBodies: true}},
		{"mesh-base-p2p", Base, Config{N: 512, TileRows: 32, P: 2, Steps: 100, WithBodies: true}},
		{"sim-paper", CA, Config{N: 11520, TileRows: 288, P: 2, Steps: 50, StepSize: 15}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildGraph(c.v, c.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTileHaloMatchesFlows checks the claim flowKey rests on: on every
// tile, at every iteration, the halos tileHalo computes once per flow key
// are exactly those flow yields for that iteration — across variants,
// both stencils, step sizes and widths that divide the step count or
// truncate the final phase or block, and ragged edge tiles.
func TestTileHaloMatchesFlows(t *testing.T) {
	for _, v := range []Variant{Base, CA, WF} {
		for _, nine := range []bool{false, true} {
			for _, steps := range []int{1, 2, 5, 6, 12} {
				for _, s := range []int{1, 2, 3, 4} {
					cfg := Config{N: 52, TileRows: 8, P: 2, Steps: steps, StepSize: s, Wavefront: s, NinePoint: nine}
					bd, err := newBuilder(v, cfg.withDefaults())
					if err != nil {
						t.Fatalf("%v %+v: %v", v, cfg, err)
					}
					checkTileHalo(t, bd)
				}
			}
		}
	}
}

func checkTileHalo(t *testing.T, bd *builder) {
	t.Helper()
	direct := func(inf *tileInfo, it int) (in, out haloFlows) {
		for _, d := range grid.AllDirs {
			if p := inf.nbr[d]; p != nil {
				if depth, ok := bd.flow(p, d.Opposite(), it-1); ok {
					rc := bd.sendRect(p, d.Opposite(), depth)
					in.rect[d], in.count, in.points = rc, in.count+1, in.points+rc.Size()
				}
			}
			if depth, ok := bd.flow(inf, d, it); ok {
				rc := bd.sendRect(inf, d, depth)
				out.rect[d], out.count, out.points = rc, out.count+1, out.points+rc.Size()
			}
		}
		return in, out
	}
	var ins, outs [numFlowKeys]haloFlows
	for i := range bd.tiles {
		inf := &bd.tiles[i]
		bd.tileHalo(inf, &ins, &outs)
		for it := 0; it <= bd.epochs; it++ {
			in, out := direct(inf, it)
			if ins[bd.flowKey(it-1)] != in || outs[bd.flowKey(it)] != out {
				t.Fatalf("%v %+v: tile (%d,%d) iteration %d: tileHalo gives in %+v out %+v, flow gives in %+v out %+v",
					bd.v, bd.cfg, inf.ti, inf.tj, it, ins[bd.flowKey(it-1)], outs[bd.flowKey(it)], in, out)
			}
		}
	}
}
