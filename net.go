package castencil

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"

	"castencil/internal/grid"
	"castencil/internal/metrics"
	"castencil/internal/netcomm"
	"castencil/internal/runtime"
)

// This file is the facade over the distributed transport: the handful of
// types a multi-process caller needs without importing internal packages.
// A process connects the mesh once with NetConnect and passes the
// transport to each run in ClusterOptions.Transport.

// Conduit is the wire transport of a distributed run — what
// ClusterOptions.Transport accepts. NetTransport is the TCP implementation;
// tests may substitute their own.
type Conduit = runtime.Conduit

// NetTransport is the TCP conduit: one persistent connection per rank pair,
// established by NetConnect and reusable across any number of sequential
// runs.
type NetTransport = netcomm.Transport

// NetOptions configures NetConnect: a pre-bound listener, the reconnection
// deadline, the frame limit, tracing and metrics.
type NetOptions = netcomm.Options

// NetMetricsRegistry is the metrics registry type NetOptions.Metrics
// accepts (stencild passes its own).
type NetMetricsRegistry = metrics.Registry

// NetConnect establishes the distributed mesh for rank among addrs (the
// full static member list, identical on every rank) and blocks until every
// rank pair is connected. Close the returned transport when done;
// o.Rank/o.Addrs are taken from the arguments. Pass the transport to each
// run in ClusterOptions.Transport; any number of sequential runs may share
// it.
func NetConnect(rank int, addrs []string, o NetOptions) (*NetTransport, error) {
	o.Rank, o.Addrs = rank, addrs
	return netcomm.Connect(o)
}

// WriteGrid writes a gathered grid row-major as little-endian float64 —
// the canonical byte form under the determinism fingerprint — through one
// row buffer, so no N²·8 copy is built. GridBytes, GridSHA256 and the
// service's /grid route all encode through it.
func WriteGrid(w io.Writer, g *Tile) error {
	var row []byte
	for r := 0; r < g.Rows; r++ {
		row = g.PackBytes(grid.Rect{R0: r, H: 1, W: g.Cols}, row)
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// GridBytes is the grid's canonical byte form (WriteGrid) as one slice.
func GridBytes(g *Tile) []byte {
	out := bytes.NewBuffer(make([]byte, 0, g.Rows*g.Cols*8))
	_ = WriteGrid(out, g) // a bytes.Buffer write never fails
	return out.Bytes()
}

// GridSHA256 fingerprints a gathered grid: sha256 over its canonical bytes,
// hex encoded — the same fingerprint stencild serves, so a distributed run
// can be checked bitwise against a single-process one without shipping
// data.
func GridSHA256(g *Tile) string {
	d := sha256.New()
	_ = WriteGrid(d, g) // a hash write never fails
	// The digits stay on the stack; the string is the one copy.
	var digits [2 * sha256.Size]byte
	hex.Encode(digits[:], d.Sum(nil))
	return string(digits[:])
}

// RankOfNode is the static node→rank placement every rank agrees on:
// virtual nodes are dealt to ranks in balanced contiguous blocks, rank r
// owning nodes [⌊r·nodes/ranks⌋, ⌊(r+1)·nodes/ranks⌋). Exposed so callers
// can predict which rank holds which node's data.
func RankOfNode(node, nodes, ranks int) int { return runtime.RankOfNode(node, nodes, ranks) }
