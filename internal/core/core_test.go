package core

import (
	"math/rand"
	"testing"

	"castencil/internal/ptg"
	"castencil/internal/runtime"
	"castencil/internal/stencil"
)

// referenceFor runs the sequential oracle for a config.
func referenceFor(t *testing.T, cfg Config) *stencil.Reference {
	t.Helper()
	cfg = cfg.withDefaults()
	ref := stencil.NewReference(cfg.N, cfg.Weights, cfg.Init, cfg.Boundary)
	ref.Run(cfg.Steps)
	return ref
}

// assertMatchesReference runs a variant for real and checks the result is
// bitwise identical to the sequential oracle.
func assertMatchesReference(t *testing.T, v Variant, cfg Config, workers int) *RealResult {
	t.Helper()
	res, err := RunReal(v, cfg, runtime.Options{Workers: workers})
	if err != nil {
		t.Fatalf("%v %+v: %v", v, cfg, err)
	}
	ref := referenceFor(t, cfg)
	for r := 0; r < cfg.N; r++ {
		for c := 0; c < cfg.N; c++ {
			if got, want := res.Grid.At(r, c), ref.At(r, c); got != want {
				t.Fatalf("%v: (%d,%d) = %v, want %v (bitwise)", v, r, c, got, want)
			}
		}
	}
	return res
}

func TestBaseSingleNodeMatchesReference(t *testing.T) {
	assertMatchesReference(t, Base, Config{N: 24, TileRows: 6, P: 1, Steps: 10}, 3)
}

func TestBaseMultiNodeMatchesReference(t *testing.T) {
	assertMatchesReference(t, Base, Config{N: 24, TileRows: 6, P: 2, Steps: 10}, 2)
}

func TestBaseRaggedTilesMatchReference(t *testing.T) {
	// 25 does not divide by 6: edge tiles are 1 wide.
	assertMatchesReference(t, Base, Config{N: 25, TileRows: 6, P: 2, Steps: 7}, 2)
}

func TestBaseRectangularTilesAndGrid(t *testing.T) {
	assertMatchesReference(t, Base, Config{N: 24, TileRows: 4, TileCols: 8, P: 3, Q: 2, Steps: 6}, 2)
}

func TestCASingleNodeMatchesReference(t *testing.T) {
	// Single node: no boundary tiles at all; CA degenerates to base.
	assertMatchesReference(t, CA, Config{N: 24, TileRows: 6, P: 1, Steps: 10, StepSize: 4}, 3)
}

func TestCAMultiNodeMatchesReference(t *testing.T) {
	assertMatchesReference(t, CA, Config{N: 24, TileRows: 6, P: 2, Steps: 12, StepSize: 4}, 2)
}

func TestCAStepSizeSweepMatchesReference(t *testing.T) {
	// Includes step sizes that do not divide the iteration count (truncated
	// final phase) and s == 1 (degenerate: phase per step).
	for _, s := range []int{1, 2, 3, 5, 6} {
		cfg := Config{N: 24, TileRows: 6, P: 2, Steps: 11, StepSize: s}
		assertMatchesReference(t, CA, cfg, 2)
	}
}

func TestCANonSquareProcessGrid(t *testing.T) {
	assertMatchesReference(t, CA, Config{N: 30, TileRows: 5, P: 3, Q: 2, Steps: 9, StepSize: 3}, 2)
}

func TestCAWithHeatWeightsAndBoundary(t *testing.T) {
	cfg := Config{
		N: 20, TileRows: 5, P: 2, Steps: 8, StepSize: 4,
		Weights:  stencil.Heat(0.2),
		Boundary: func(gr, gc int) float64 { return float64(gr - gc) },
		Init:     stencil.HashInit(99),
	}
	assertMatchesReference(t, CA, cfg, 2)
}

func TestCAEqualsBaseBitwise(t *testing.T) {
	cfg := Config{N: 24, TileRows: 4, P: 2, Steps: 10, StepSize: 3}
	base, err := RunReal(Base, cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := RunReal(CA, cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertGridsBitwiseEqual(t, "CA vs base", base.Grid, ca.Grid)
}

func TestRandomizedEquivalence(t *testing.T) {
	// Property-style sweep: random problem geometry, both variants must
	// reproduce the oracle bitwise.
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 6; trial++ {
		n := rng.Intn(20) + 12
		tile := rng.Intn(4) + 4
		p := rng.Intn(2) + 1
		q := rng.Intn(2) + 1
		steps := rng.Intn(8) + 3
		s := rng.Intn(3) + 2
		cfg := Config{
			N: n, TileRows: tile, P: p, Q: q, Steps: steps, StepSize: s,
			Init: stencil.HashInit(uint64(trial)),
		}
		if part, err := cfg.Partition(); err != nil || part.TR < p || part.TC < q {
			continue
		}
		if _, err := cfg.Validate(CA); err != nil {
			continue // step size vs ragged tile; skip
		}
		assertMatchesReference(t, Base, cfg, rng.Intn(3)+1)
		assertMatchesReference(t, CA, cfg, rng.Intn(3)+1)
	}
}

func TestBufferHygiene(t *testing.T) {
	// Every halo buffer must be consumed: stores hold only tile states
	// after a run.
	for _, v := range []Variant{Base, CA} {
		res, err := RunReal(v, Config{N: 24, TileRows: 6, P: 2, Steps: 9, StepSize: 3}, runtime.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if n := LeftoverBuffers(res.Exec.Stores); n != 0 {
			t.Errorf("%v: %d unconsumed buffers", v, n)
		}
	}
}

func TestCASendsFewerMessages(t *testing.T) {
	// The whole point: with step size s, boundary tiles exchange ~1/s as
	// many messages (plus corner flows).
	cfg := Config{N: 32, TileRows: 8, P: 2, Steps: 12, StepSize: 6}
	base, err := RunReal(Base, cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := RunReal(CA, cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ca.Exec.Messages >= base.Exec.Messages/2 {
		t.Errorf("CA sent %d messages vs base %d; expected a large reduction",
			ca.Exec.Messages, base.Exec.Messages)
	}
	if ca.Exec.BytesSent >= base.Exec.BytesSent*2 {
		t.Errorf("CA bytes %d should not blow up vs base %d", ca.Exec.BytesSent, base.Exec.BytesSent)
	}
}

func TestMessageCountsExact(t *testing.T) {
	// 2x2 tiles on 2x2 nodes (one tile per node), N=8, tile 4, 3 steps.
	// Base: every tile has 2 remote cardinal neighbors; flows per step:
	// 4 tiles * 2 dirs = 8 messages for steps 0..2 (step 3 produces none).
	cfg := Config{N: 8, TileRows: 4, P: 2, Steps: 3}
	base, err := RunReal(Base, cfg, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 * 3; base.Exec.Messages != want {
		t.Errorf("base messages = %d, want %d", base.Exec.Messages, want)
	}
	// CA with s=3 (one phase): each tile sends once to each remote
	// neighbor: cardinal 2 + diagonal 1 = 3 flows per tile, at t=0 only.
	ca, err := RunReal(CA, Config{N: 8, TileRows: 4, P: 2, Steps: 3, StepSize: 3}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * 3; ca.Exec.Messages != want {
		t.Errorf("ca messages = %d, want %d", ca.Exec.Messages, want)
	}
}

func TestGraphStatsShape(t *testing.T) {
	cfg := Config{N: 16, TileRows: 4, P: 2, Steps: 5, StepSize: 4}
	for _, v := range []Variant{Base, CA} {
		s, err := GraphStats(v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantTasks := 16 * 6 // 4x4 tiles, steps 0..5
		if s.Tasks != wantTasks {
			t.Errorf("%v: tasks = %d, want %d", v, s.Tasks, wantTasks)
		}
		// Critical path: the serial chain of one tile, 6 tasks.
		if s.CriticalPathTasks != 6 {
			t.Errorf("%v: critical path = %d, want 6", v, s.CriticalPathTasks)
		}
	}
	b, _ := GraphStats(Base, cfg)
	c, _ := GraphStats(CA, cfg)
	if c.CrossDeps >= b.CrossDeps {
		t.Errorf("CA cross deps %d should be below base %d", c.CrossDeps, b.CrossDeps)
	}
}

func TestValidation(t *testing.T) {
	if _, err := BuildGraph(Base, Config{N: 16, TileRows: 4, P: 2}); err == nil {
		t.Error("Steps=0 must fail")
	}
	if _, err := BuildGraph(CA, Config{N: 16, TileRows: 4, P: 2, Steps: 5, StepSize: 4}); err != nil {
		t.Errorf("step size == tile size must be fine: %v", err)
	}
	if _, err := BuildGraph(CA, Config{N: 16, TileRows: 4, P: 2, Steps: 5, StepSize: 6}); err == nil {
		t.Error("step size > tile size must fail")
	}
	// Ragged: N=18, tile 4 -> last tile dim 2; s=3 must fail.
	if _, err := BuildGraph(CA, Config{N: 18, TileRows: 4, P: 2, Steps: 5, StepSize: 3}); err == nil {
		t.Error("step size > smallest ragged tile must fail")
	}
	if _, err := BuildGraph(Base, Config{N: 16, TileRows: 4, P: 8, Steps: 5}); err == nil {
		t.Error("process grid larger than tile grid must fail")
	}
}

func TestVariantString(t *testing.T) {
	if Base.String() != "base" || CA.String() != "ca" || Variant(7).String() != "unknown" {
		t.Error("variant names")
	}
}

func TestKindsAndPriorities(t *testing.T) {
	cfg := Config{N: 16, TileRows: 4, P: 2, Steps: 3, StepSize: 2}
	g, err := BuildGraph(CA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sawBoundary, sawInterior, sawInit bool
	for i := range g.Tasks {
		tk := &g.Tasks[i]
		switch tk.Kind {
		case ptg.KindInit:
			sawInit = true
			if tk.ID.K != 0 {
				t.Errorf("init task at step %d", tk.ID.K)
			}
		case ptg.KindBoundary:
			sawBoundary = true
		case ptg.KindInterior:
			sawInterior = true
		}
		// Earlier steps must have strictly higher priority for same tile.
		if tk.ID.K > 0 {
			prev, _ := g.Lookup(taskID(tk.ID.I, tk.ID.J, tk.ID.K-1))
			if g.Tasks[prev].Priority <= tk.Priority {
				t.Errorf("priority must decrease along the chain: %v", tk.ID)
			}
		}
	}
	if !sawBoundary || !sawInterior || !sawInit {
		t.Errorf("kinds missing: boundary=%v interior=%v init=%v", sawBoundary, sawInterior, sawInit)
	}
}

func TestHintsCAExcessWork(t *testing.T) {
	cfg := Config{N: 16, TileRows: 4, P: 2, Steps: 4, StepSize: 4}
	g, err := BuildGraph(CA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A boundary tile's first-phase task (k=1) must report redundant
	// updates; its last (k=s) must report none.
	var foundFirst, foundLast bool
	for i := range g.Tasks {
		tk := &g.Tasks[i]
		if tk.Kind != ptg.KindBoundary {
			continue
		}
		if tk.ID.K == 1 {
			foundFirst = true
			if tk.Hint.RedundantUpdates <= 0 {
				t.Errorf("%v: phase-start task needs redundant updates", tk.ID)
			}
		}
		if tk.ID.K == 4 {
			foundLast = true
			if tk.Hint.RedundantUpdates != 0 {
				t.Errorf("%v: phase-end task must have no redundant updates, got %d", tk.ID, tk.Hint.RedundantUpdates)
			}
		}
	}
	if !foundFirst || !foundLast {
		t.Error("boundary tasks not found")
	}
}

// TestRunRealThreeWorkers runs CA at three workers per node, a count the
// determinism suites do not sweep, against the reference.
func TestRunRealThreeWorkers(t *testing.T) {
	cfg := Config{N: 20, TileRows: 5, P: 2, Steps: 6, StepSize: 3}
	res, err := RunReal(CA, cfg, runtime.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := referenceFor(t, cfg).MaxAbsDiff(res.Grid.At); d != 0 {
		t.Errorf("max diff %v", d)
	}
}
