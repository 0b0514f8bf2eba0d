package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
	"sync"
	"testing"

	"castencil/internal/grid"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
	"castencil/internal/stencil"
)

// TestGraphPoolEvictsOldest gates the pool's bound: with the cap lowered to
// 2 MiB, ten graphs of distinct shapes taken before any goes back leave the
// pool's idle bytes within the cap after every put, counted exactly, and
// the graphs kept are always the newest ones returned. A later hit hands
// out the kept graph itself, a miss builds afresh and keeps every idle
// graph, and a graph over the cap on its own is not kept at put.
func TestGraphPoolEvictsOldest(t *testing.T) {
	old := maxSpareGraph
	maxSpareGraph = 2 << 20
	t.Cleanup(func() { maxSpareGraph = old })
	var p graphPool
	get := func(steps int) *prepared {
		t.Helper()
		e, err := p.get(CA, Config{N: 96, TileRows: 8, P: 2, Steps: steps, StepSize: 4}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	var held []*prepared
	for steps := 1; steps <= 10; steps++ {
		held = append(held, get(steps))
	}
	for i, e := range held {
		p.put(e)
		sum := 0
		for _, k := range p.idle {
			sum += k.bytes
		}
		if sum != p.bytes || p.bytes > maxSpareGraph {
			t.Fatalf("after put %d: %d idle bytes counted, %d held, cap %d", i, p.bytes, sum, maxSpareGraph)
		}
		if kept := held[i+1-len(p.idle) : i+1]; !slices.Equal(p.idle, kept) {
			t.Fatalf("after put %d: the pool kept %d graphs that are not the newest", i, len(p.idle))
		}
	}
	if n := len(p.idle); n < 2 || n == len(held) {
		t.Fatalf("the pool kept %d of %d graphs; the test wants some kept and some evicted", n, len(held))
	}
	newest := held[len(held)-1]
	if get(10) != newest {
		t.Error("a hit did not hand out the idle graph of its shape")
	}

	idle := slices.Clone(p.idle)
	fresh := get(1)
	if !slices.Equal(p.idle, idle) || slices.Contains(held, fresh) {
		t.Error("a miss did not build afresh and keep every idle graph")
	}

	// A graph counted over the cap on its own, as every paper-scale graph
	// is, is dropped at put, and every graph idle before it stays idle.
	big := get(40)
	p.put(big)
	if big.bytes <= maxSpareGraph || slices.Contains(p.idle, big) || p.bytes > maxSpareGraph {
		t.Errorf("a %d B graph was kept under a %d B cap", big.bytes, maxSpareGraph)
	}
	if !slices.Equal(p.idle, idle) {
		t.Errorf("putting a %d B graph left %d of %d idle graphs", big.bytes, len(p.idle), len(idle))
	}
}

// TestGraphPoolAlternatingShapes gates the pool on the paper sweeps'
// pattern, a Base and a CA solve of one config in turn: once each has run,
// both stay idle and every later call hits. An idle graph holds no
// caller-supplied initial condition or boundary.
func TestGraphPoolAlternatingShapes(t *testing.T) {
	var p graphPool
	cfg := Config{N: 96, TileRows: 8, P: 2, Steps: 6, StepSize: 3, Init: stencil.HashInit(1)}.withDefaults()
	first := map[Variant]*prepared{}
	for round := range 3 {
		for _, v := range []Variant{Base, CA} {
			e, err := p.get(v, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first[v] = e
			} else if e != first[v] {
				t.Errorf("round %d: %v missed", round, v)
			}
			p.put(e)
			if e.bd.cfg.Init != nil || e.bd.cfg.Boundary != nil {
				t.Fatalf("an idle %v graph holds its run's Init or Boundary", v)
			}
		}
	}
}

// TestGraphPoolEstimate keeps taskBytes, what the pool counts per task,
// within a factor of two of what a graph with its bundled plan resolved
// holds live per task, on the benchmark's shapes and on nine-point graphs
// and 1 to 64 nodes, for every variant.
func TestGraphPoolEstimate(t *testing.T) {
	for _, cfg := range []Config{
		{N: 96, TileRows: 8, P: 2, Steps: 10, StepSize: 4, Wavefront: 4, NinePoint: true},
		{N: 256, TileRows: 8, P: 4, Steps: 12, StepSize: 4, Wavefront: 4, WithBodies: true, NinePoint: true},
		{N: 128, TileRows: 4, P: 8, Steps: 6, StepSize: 2, Wavefront: 2, WithBodies: true},
		{N: 128, TileRows: 32, Steps: 20, StepSize: 4, Wavefront: 4, WithBodies: true},
		{N: 512, TileRows: 16, P: 2, Steps: 48, StepSize: 4, Wavefront: 4, WithBodies: true},
		{N: 2048, TileRows: 256, P: 2, Steps: 50, StepSize: 15, Wavefront: 15, WithBodies: true},
		{N: 11520, TileRows: 288, P: 2, Steps: 50, StepSize: 15, Wavefront: 15},
	} {
		for _, v := range []Variant{Base, CA, WF} {
			var m0, m1 goruntime.MemStats
			goruntime.GC()
			goruntime.ReadMemStats(&m0)
			g, err := BuildGraph(v, cfg)
			if err != nil {
				t.Fatal(err)
			}
			g.Plan(ptg.CoalesceStep)
			goruntime.GC()
			goruntime.ReadMemStats(&m1)
			per := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(len(g.Tasks))
			goruntime.KeepAlive(g)
			t.Logf("%v N=%d P=%d Steps=%d: %.0f B per task", v, cfg.N, cfg.P, cfg.Steps, per)
			if per > 2*taskBytes || taskBytes > 2*per {
				t.Errorf("%v N=%d P=%d Steps=%d: %.0f B live per task, the pool counts %d", v, cfg.N, cfg.P, cfg.Steps, per, taskBytes)
			}
		}
	}
}

// TestTaskCount pins TaskCount's arithmetic to the graphs BuildGraph builds:
// every variant, ragged edge tiles, rectangular tiles and node grids, and a
// truncated final CA phase or WF block; and the configs whose tile grid
// overflows an int or whose task count overflows the int32 task index.
func TestTaskCount(t *testing.T) {
	for _, cfg := range []Config{
		{N: 51, TileRows: 8, P: 2, Steps: 7, StepSize: 3, Wavefront: 3},
		{N: 60, TileRows: 12, TileCols: 10, P: 2, Q: 3, Steps: 9, StepSize: 4, Wavefront: 4},
		{N: 32, TileRows: 8, Steps: 1, StepSize: 1, Wavefront: 1},
		{N: 90, TileRows: 9, P: 2, Steps: 17, StepSize: 5, Wavefront: 5},
	} {
		for _, v := range []Variant{Base, CA, WF} {
			want, err := GraphStats(v, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := TaskCount(v, cfg); err != nil || got != want.Tasks {
				t.Errorf("%v %+v: TaskCount = %d (%v), want %d", v, cfg, got, err, want.Tasks)
			}
		}
	}
	for _, v := range []Variant{Base, CA, WF} {
		cfg := Config{N: 32, TileRows: 8, Steps: math.MaxInt, StepSize: 3, Wavefront: 3}
		if got, err := TaskCount(v, cfg); err == nil {
			t.Errorf("%v at Steps math.MaxInt: TaskCount = %d, want an error", v, got)
		}
	}
	// One tile of MaxInt32 tasks is the largest graph; one more task is not.
	if got, err := TaskCount(Base, Config{N: 8, TileRows: 8, Steps: math.MaxInt32 - 1}); err != nil || got != math.MaxInt32 {
		t.Errorf("one tile, MaxInt32 tasks: TaskCount = %d (%v)", got, err)
	}
	for _, cfg := range []Config{
		{N: 8, TileRows: 8, Steps: math.MaxInt32},
		{N: 1 << 31, TileRows: 1, Steps: 1},
		{N: 1 << 20, TileRows: 1, Steps: 1 << 30},
		{N: 1 << 30, TileRows: 1 << 15, Steps: 1},
	} {
		if got, err := TaskCount(Base, cfg); err == nil {
			t.Errorf("N=%d tile=%d steps=%d: TaskCount = %d, want an error", cfg.N, cfg.TileRows, cfg.Steps, got)
		}
	}
	if _, err := TaskCount(CA, Config{N: 32, TileRows: 4, StepSize: 5, Steps: 3}); err == nil {
		t.Error("TaskCount accepted a CA step size over the tile size")
	}
	// A tile grid of 2^64 tiles wrapped to 0, and one of (MaxInt)^2 to 1.
	for _, n := range []int{1 << 32, math.MaxInt} {
		if got, err := TaskCount(Base, Config{N: n, TileRows: 1, Steps: 5}); err == nil {
			t.Errorf("N=%d in 1x1 tiles: TaskCount = %d, want an error", n, got)
		}
	}
	// ceil(N/tile) must not wrap for N near MaxInt: one tile, two tasks.
	if got, err := TaskCount(Base, Config{N: math.MaxInt, TileRows: math.MaxInt, Steps: 1}); err != nil || got != 2 {
		t.Errorf("N=MaxInt in one tile: TaskCount = %d (%v), want 2", got, err)
	}
}

// freshRun runs cfg on a graph built for this run alone, outside the pool.
func freshRun(t *testing.T, v Variant, cfg Config) *grid.Tile {
	t.Helper()
	cfg.WithBodies = true
	g, err := BuildGraph(v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Run(g, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	part, _ := cfg.Partition()
	full, err := Gather(part, res.Stores)
	if err != nil {
		t.Fatal(err)
	}
	releaseTiles(part, res.Stores)
	return full
}

// TestRunPerRunInputs checks that a pooled graph runs with the inputs of
// the run that took it: repeated RunReal calls of one shape with different
// initial conditions, boundaries and five- and nine-point weights,
// interleaved with other shapes, one on the graph of a run cancelled
// mid-flight, and four of them at once, each equal bitwise to the
// sequential oracle and to a run on a freshly built graph.
func TestRunPerRunInputs(t *testing.T) {
	ca := Config{N: 60, TileRows: 10, P: 2, Steps: 7, StepSize: 3}
	wf := Config{N: 48, TileRows: 8, P: 2, Steps: 5, Wavefront: 2}
	ramp := func(r, c int) float64 { return float64(r-c) / 64 }
	type run struct {
		v   Variant
		cfg Config
	}
	with := func(c Config, f func(*Config)) Config { f(&c); return c }
	runs := []run{
		{CA, ca},
		{CA, with(ca, func(c *Config) { c.Init = stencil.HashInit(7); c.Boundary = stencil.ConstBoundary(0.5) })},
		{CA, with(ca, func(c *Config) { c.Weights = stencil.Heat(0.2); c.Boundary = ramp })},
		{WF, with(wf, func(c *Config) { c.Init = stencil.HashInit(3) })},
		{CA, with(ca, func(c *Config) { c.Init = stencil.HashInit(9) })},
		{CA, with(ca, func(c *Config) { c.NinePoint = true })},
		{CA, with(ca, func(c *Config) {
			c.NinePoint, c.Weights9, c.Init = true, stencil.Weights9{C: 0.2, N: 0.1, S: 0.1, W: 0.1, E: 0.1, NW: 0.1, NE: 0.1, SW: 0.1, SE: 0.1}, stencil.HashInit(5)
		})},
		{Base, with(ca, func(c *Config) { c.Boundary = ramp })},
		{CA, with(ca, func(c *Config) { c.NinePoint, c.Boundary = true, ramp })},
		{WF, with(wf, func(c *Config) { c.Weights = stencil.Heat(0.1) })},
	}
	check := func(label string, r run, got *grid.Tile) {
		t.Helper()
		assertOracleBitwise(t, label+" vs oracle", oracle(t, r.cfg), got)
		fresh := freshRun(t, r.v, r.cfg)
		assertOracleBitwise(t, label+" vs fresh graph", fresh, got)
	}
	for round := range 2 {
		for i, r := range runs {
			res, err := RunReal(r.v, r.cfg, runtime.Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("round %d, run %d", round, i), r, res.Grid)
		}
	}

	// Sequential runs leave at most one idle graph of a shape, so the run
	// after the cancelled one takes the cancelled run's graph.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := runtime.Options{Workers: 2, Ctx: ctx, OnProgress: func(done, total int64) {
		if done > total/4 {
			cancel()
		}
	}}
	var ce *ptg.CancelError
	if _, err := RunReal(CA, runs[1].cfg, opts); !errors.As(err, &ce) {
		t.Fatalf("cancelled run returned %v, want a *ptg.CancelError", err)
	}
	res, err := RunReal(CA, runs[2].cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	check("after a cancelled run", runs[2], res.Grid)

	// Four runs of one shape at once: each takes a graph of its own.
	same := []run{runs[0], runs[1], runs[2], runs[4]}
	grids := make([]*grid.Tile, len(same))
	errs := make([]error, len(same))
	var wg sync.WaitGroup
	for i, r := range same {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunReal(r.v, r.cfg, runtime.Options{Workers: 2})
			if errs[i] = err; err == nil {
				grids[i] = res.Grid
			}
		}()
	}
	wg.Wait()
	for i, g := range grids {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		check(fmt.Sprintf("concurrent run %d", i), same[i], g)
	}
}
