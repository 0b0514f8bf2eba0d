package core

import (
	"testing"

	"castencil/internal/runtime"
	"castencil/internal/stencil"
)

// assertMatches9 runs a variant with the nine-point kernel and checks the
// result is bitwise identical to the nine-point sequential oracle.
func assertMatches9(t *testing.T, v Variant, cfg Config, workers int) {
	t.Helper()
	cfg.NinePoint = true
	res, err := RunReal(v, cfg, runtime.Options{Workers: workers})
	if err != nil {
		t.Fatalf("%v: %v", v, err)
	}
	full := cfg.withDefaults()
	ref := stencil.NewReference9(full.N, full.Weights9, full.Init, full.Boundary)
	ref.Run(full.Steps)
	for r := 0; r < cfg.N; r++ {
		for c := 0; c < cfg.N; c++ {
			if got, want := res.Grid.At(r, c), ref.At(r, c); got != want {
				t.Fatalf("%v 9pt: (%d,%d) = %v, want %v", v, r, c, got, want)
			}
		}
	}
}

func TestNinePointBaseMatchesOracle(t *testing.T) {
	assertMatches9(t, Base, Config{N: 24, TileRows: 6, P: 2, Steps: 8}, 2)
}

func TestNinePointBaseSingleNode(t *testing.T) {
	assertMatches9(t, Base, Config{N: 20, TileRows: 5, P: 1, Steps: 6}, 3)
}

func TestNinePointCAMatchesOracle(t *testing.T) {
	for _, s := range []int{2, 3, 5} {
		assertMatches9(t, CA, Config{N: 24, TileRows: 6, P: 2, Steps: 9, StepSize: s}, 2)
	}
}

func TestNinePointCARagged(t *testing.T) {
	// 26 over tiles of 6: ragged 2-wide edge tiles; s must be <= 2.
	assertMatches9(t, CA, Config{N: 26, TileRows: 6, P: 2, Steps: 7, StepSize: 2}, 2)
}

func TestNinePointCustomWeights(t *testing.T) {
	cfg := Config{
		N: 18, TileRows: 6, P: 2, Steps: 5, StepSize: 2,
		NinePoint: true,
		Weights9: stencil.Weights9{
			C: 0.1, N: 0.1, S: 0.1, W: 0.1, E: 0.1,
			NW: 0.05, NE: 0.05, SW: 0.05, SE: 0.05,
		},
		Init:     stencil.HashInit(7),
		Boundary: func(gr, gc int) float64 { return 0.5 },
	}
	res, err := RunReal(CA, cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := stencil.NewReference9(cfg.N, cfg.Weights9, cfg.Init, cfg.Boundary)
	ref.Run(cfg.Steps)
	for r := 0; r < cfg.N; r++ {
		for c := 0; c < cfg.N; c++ {
			if res.Grid.At(r, c) != ref.At(r, c) {
				t.Fatalf("(%d,%d) mismatch", r, c)
			}
		}
	}
}

func TestNinePointBaseUsesCornerFlows(t *testing.T) {
	// Base 9-point must exchange more messages than base 5-point (corner
	// flows across node boundaries).
	cfg5 := Config{N: 16, TileRows: 4, P: 2, Steps: 4}
	cfg9 := cfg5
	cfg9.NinePoint = true
	g5, err := BuildGraph(Base, cfg5)
	if err != nil {
		t.Fatal(err)
	}
	g9, err := BuildGraph(Base, cfg9)
	if err != nil {
		t.Fatal(err)
	}
	c5, _ := g5.CrossNodeDeps()
	c9, _ := g9.CrossNodeDeps()
	if c9 <= c5 {
		t.Errorf("9-point cross deps %d must exceed 5-point %d", c9, c5)
	}
}

func TestNinePointCAMessageCountUnchanged(t *testing.T) {
	// CA boundary tiles already buffer corners, so the CA cross-node flow
	// count is the same for 5- and 9-point (only interior-local copies
	// change).
	cfg5 := Config{N: 16, TileRows: 4, P: 2, Steps: 4, StepSize: 4}
	cfg9 := cfg5
	cfg9.NinePoint = true
	g5, err := BuildGraph(CA, cfg5)
	if err != nil {
		t.Fatal(err)
	}
	g9, err := BuildGraph(CA, cfg9)
	if err != nil {
		t.Fatal(err)
	}
	c5, _ := g5.CrossNodeDeps()
	c9, _ := g9.CrossNodeDeps()
	if c5 != c9 {
		t.Errorf("CA cross deps changed: 5pt %d vs 9pt %d", c5, c9)
	}
}

func TestNinePointSimulateHigherAI(t *testing.T) {
	// Same memory traffic, 17 flops instead of 9: the 9-point run must
	// report higher GFLOP/s on the same machine (the section VII
	// arithmetic-intensity argument).
	m := machineForTest()
	cfg := Config{N: 2880, TileRows: 288, P: 2, Steps: 4, StepSize: 2}
	r5, err := Simulate(Base, cfg, SimOptions{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	cfg.NinePoint = true
	r9, err := Simulate(Base, cfg, SimOptions{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	if r9.GFLOPS <= r5.GFLOPS*1.5 {
		t.Errorf("9-point GFLOP/s %v should be ~17/9 of 5-point %v", r9.GFLOPS, r5.GFLOPS)
	}
}

func TestNinePointEqualGrids(t *testing.T) {
	cfg := Config{N: 20, TileRows: 5, P: 2, Steps: 6, StepSize: 3, NinePoint: true}
	b, err := RunReal(Base, cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunReal(CA, cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertGridsBitwiseEqual(t, "9-point CA vs base", b.Grid, c.Grid)
}
