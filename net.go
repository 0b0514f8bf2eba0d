package castencil

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"castencil/internal/metrics"
	"castencil/internal/netcomm"
	"castencil/internal/runtime"
)

// This file is the facade over the distributed transport: the handful of
// types a multi-process caller needs without importing internal packages.
// The one-shot path is WithCluster with Rank/Ranks (Run connects and closes
// the mesh itself); long-lived processes (stencild, benchmarks) connect once
// with NetConnect and pass the transport to each run in
// ClusterOptions.Transport.

// Conduit is the wire transport of a distributed run — what
// ClusterOptions.Transport accepts. NetTransport is the TCP implementation;
// tests may substitute their own.
type Conduit = runtime.Conduit

// NetTransport is the TCP conduit: one persistent connection per rank pair,
// established by NetConnect and reusable across any number of sequential
// runs.
type NetTransport = netcomm.Transport

// NetOptions configures NetConnect.
//
// Deprecated: for per-run distribution use
// WithCluster(ClusterOptions{Rank: ..., Ranks: ...}); NetOptions remains
// for long-lived processes that tune the transport (listener reuse,
// metrics) before handing it to WithCluster.
type NetOptions = netcomm.Options

// NetMetricsRegistry is the metrics registry type NetOptions.Metrics
// accepts (stencild passes its own).
type NetMetricsRegistry = metrics.Registry

// NetConnect establishes the distributed mesh for rank among addrs (the
// full static member list, identical on every rank) and blocks until every
// rank pair is connected. Close the returned transport when done;
// o.Rank/o.Addrs are taken from the arguments.
//
// Deprecated: one-shot runs should pass membership directly with
// WithCluster(ClusterOptions{Rank: rank, Ranks: addrs}) and let Run manage
// the mesh. NetConnect remains the explicit connection path for processes
// that reuse one mesh across many runs (pass the transport via
// ClusterOptions.Transport) — results are bitwise identical either way.
func NetConnect(rank int, addrs []string, o NetOptions) (*NetTransport, error) {
	o.Rank, o.Addrs = rank, addrs
	return netcomm.Connect(o)
}

// GridBytes serializes a gathered grid row-major as little-endian float64 —
// the canonical byte form under the determinism fingerprint.
func GridBytes(g *Tile) []byte {
	out := make([]byte, 0, g.Rows*g.Cols*8)
	var buf [8]byte
	for r := 0; r < g.Rows; r++ {
		for _, v := range g.Row(r, 0, g.Cols) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			out = append(out, buf[:]...)
		}
	}
	return out
}

// GridSHA256 fingerprints a gathered grid: sha256 over GridBytes, hex
// encoded — the same fingerprint stencild serves, so a distributed run can
// be checked bitwise against a single-process one without shipping data.
func GridSHA256(g *Tile) string {
	sum := sha256.Sum256(GridBytes(g))
	return hex.EncodeToString(sum[:])
}

// RankOfNode is the static node→rank placement every rank agrees on:
// virtual nodes are dealt to ranks in contiguous blocks of
// ceil(nodes/ranks). Exposed so callers can predict which rank holds which
// node's data.
func RankOfNode(node, nodes, ranks int) int { return runtime.RankOfNode(node, nodes, ranks) }
