// Package core implements the paper's contribution: the 2D five-point
// Jacobi stencil expressed as task graphs over the PaRSEC-analog runtime, in
// two flavors —
//
//   - Base: every tile carries a one-layer ghost region and exchanges halos
//     with its four cardinal neighbors every iteration (section IV-B1).
//   - CA: the PA1 communication-avoiding scheme of Demmel et al. Tiles on a
//     node boundary carry an s-layer ghost region, additionally buffer s x s
//     corner blocks from their diagonal neighbors, communicate only every s
//     iterations, and redundantly recompute the ghost region with a
//     shrinking-trapezoid update in between (section IV-B2).
//
// Graphs built here run on both engines: internal/runtime executes them for
// real (numerical correctness), internal/desim replays them against machine
// cost models (performance figures).
package core

import (
	"fmt"

	"castencil/internal/grid"
	"castencil/internal/stencil"
)

// Variant selects the stencil implementation.
type Variant int

const (
	// Base is the full-communication version: halo exchange every step.
	Base Variant = iota
	// CA is the PA1 communication-avoiding version.
	CA
	// WF is the wavefront temporal-blocking version: every tile carries a
	// w-layer ghost region (plus w x w corner blocks), all tiles exchange
	// only every w iterations, and one fused task advances a tile w steps
	// with an in-tile diagonal wavefront whose per-level update regions
	// shrink like the CA trapezoid. Where CA deepens only node-boundary
	// tiles and still runs one task per tile per step, WF trades more
	// ghost-region recompute for w-fold fewer tasks and exchanges on every
	// tile.
	WF
)

func (v Variant) String() string {
	switch v {
	case Base:
		return "base"
	case CA:
		return "ca"
	case WF:
		return "wf"
	}
	return "unknown"
}

// TransformMode selects an optional graph rewrite applied after BuildGraph
// (see internal/ptg's Transform framework).
type TransformMode int

const (
	// TransformNone runs the graph exactly as built.
	TransformNone TransformMode = iota
	// TransformSplit applies inner/border task splitting: each (tile,
	// iteration) task becomes one interior task that depends only on the
	// tile's own previous state — so it runs while halos are in flight —
	// plus thin border tasks gated on the original halo flows, and a
	// commit task that swaps buffers and publishes outgoing halos. The
	// rewrite is bitwise-neutral: the split parts cover the exact update
	// region of the unsplit task.
	TransformSplit
)

func (m TransformMode) String() string {
	switch m {
	case TransformNone:
		return "none"
	case TransformSplit:
		return "split"
	}
	return "unknown"
}

// TransformNames lists the accepted ParseTransform spellings.
const TransformNames = "none, split"

// ParseTransform maps a -transform flag value to a TransformMode. The empty
// string, "none", and "off" select no transform.
func ParseTransform(name string) (TransformMode, error) {
	switch name {
	case "", "none", "off":
		return TransformNone, nil
	case "split":
		return TransformSplit, nil
	}
	return TransformNone, fmt.Errorf("core: unknown transform %q (have %s)", name, TransformNames)
}

// Config describes one stencil problem instance and its decomposition.
type Config struct {
	// N is the global grid extent (N x N points).
	N int
	// TileRows, TileCols are the tile extents (the paper's mb, nb). If
	// TileCols is zero it defaults to TileRows.
	TileRows, TileCols int
	// P, Q are the process-grid extents (P*Q nodes). If Q is zero it
	// defaults to P.
	P, Q int
	// Steps is the iteration count (the paper runs 100).
	Steps int
	// StepSize is the CA exchange period s (the paper sweeps 5..40,
	// default 15). Ignored by the base variant.
	StepSize int
	// Wavefront is the WF block width w: the number of time steps one
	// fused wavefront task advances a tile, which is also its ghost depth
	// and exchange period (default 10). Ignored by the other variants.
	Wavefront int
	// Weights are the stencil coefficients (default stencil.Jacobi()).
	Weights stencil.Weights
	// NinePoint switches to the nine-point stencil (17 flops/update, the
	// higher-arithmetic-intensity variant of section VII). The base
	// version then exchanges corner flows every step; the CA version's
	// square shrinking trapezoid is already the nine-point dependence
	// cone, so its communication pattern is unchanged.
	NinePoint bool
	// Weights9 are the nine-point coefficients (default stencil.Jacobi9()
	// when NinePoint is set).
	Weights9 stencil.Weights9
	// Init is the initial condition (default stencil.HashInit(1)).
	Init stencil.Init
	// Boundary is the Dirichlet boundary (default zero).
	Boundary stencil.Boundary
	// WithBodies builds task bodies and pack/unpack closures for real
	// execution. Cost-only graphs (for the simulator) are much lighter.
	WithBodies bool
	// Transform selects an optional graph rewrite pass (default none).
	// TransformSplit composes with Base and CA and every scheduler policy,
	// coalescing, and fault mode; WF tasks are already fused across steps
	// and are not splittable.
	Transform TransformMode

	hasDefaults bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.hasDefaults {
		return c
	}
	if c.TileCols == 0 {
		c.TileCols = c.TileRows
	}
	if c.P == 0 {
		c.P = 1
	}
	if c.Q == 0 {
		c.Q = c.P
	}
	if c.StepSize == 0 {
		c.StepSize = 15
	}
	if c.Wavefront == 0 {
		c.Wavefront = 10
	}
	if c.Weights == (stencil.Weights{}) {
		c.Weights = stencil.Jacobi()
	}
	if c.NinePoint && c.Weights9 == (stencil.Weights9{}) {
		c.Weights9 = stencil.Jacobi9()
	}
	if c.Init == nil {
		c.Init = stencil.HashInit(1)
	}
	if c.Boundary == nil {
		c.Boundary = stencil.ConstBoundary(0)
	}
	c.hasDefaults = true
	return c
}

// Partition builds the grid partition for the configuration.
func (c Config) Partition() (*grid.Partition, error) {
	c = c.withDefaults()
	return grid.NewPartition(c.N, c.TileRows, c.TileCols, c.P, c.Q)
}

// validate checks the configuration for a given variant and returns the
// partition.
func (c Config) validate(v Variant) (*grid.Partition, error) {
	c = c.withDefaults()
	if c.Steps < 1 {
		return nil, fmt.Errorf("core: Steps must be >= 1, got %d", c.Steps)
	}
	p, err := c.Partition()
	if err != nil {
		return nil, err
	}
	if v == CA {
		if c.StepSize < 1 {
			return nil, fmt.Errorf("core: CA StepSize must be >= 1, got %d", c.StepSize)
		}
		// Deep halos are packed out of neighbor interiors, so the step
		// size may not exceed any tile dimension (ragged edge tiles
		// included).
		if minDim := p.MinTileDim(); c.StepSize > minDim {
			return nil, fmt.Errorf("core: CA StepSize %d exceeds smallest tile dimension %d", c.StepSize, minDim)
		}
	}
	if v == WF {
		if c.Wavefront < 1 {
			return nil, fmt.Errorf("core: WF Wavefront must be >= 1, got %d", c.Wavefront)
		}
		// The same feasibility rule as CA: w-deep halos are packed out of
		// neighbor interiors, so the width may not exceed any tile
		// dimension (ragged edge tiles included).
		if minDim := p.MinTileDim(); c.Wavefront > minDim {
			return nil, fmt.Errorf("core: WF Wavefront %d exceeds smallest tile dimension %d", c.Wavefront, minDim)
		}
		if c.Transform == TransformSplit {
			// A WF task already fuses w whole steps into one in-tile sweep;
			// there is no single-step interior to peel off.
			return nil, fmt.Errorf("core: transform split is not supported with the wf variant")
		}
	}
	return p, nil
}
