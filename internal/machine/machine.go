// Package machine defines calibrated models of the two clusters evaluated in
// the paper (NaCL and Stampede2) plus helpers to build custom models.
//
// A Model carries everything the cost engines need: core counts, the STREAM
// memory-bandwidth table (Table I of the paper), the network parameters that
// generate the NetPIPE curve (Figure 5), and the kernel calibration constants
// discussed in DESIGN.md. Absolute numbers come straight from the paper;
// where the paper gives only a plot, the constants are calibrated so the
// regenerated figure matches the published shape.
package machine

import (
	"fmt"
	"time"
)

// StreamResult holds the four STREAM kernels' sustained bandwidth in MB/s,
// exactly as reported in Table I of the paper.
type StreamResult struct {
	Copy  float64 // a[i] = b[i]
	Scale float64 // a[i] = q*b[i]
	Add   float64 // a[i] = b[i] + c[i]
	Triad float64 // a[i] = b[i] + q*c[i]
}

// BytesPerSec converts the COPY figure (the paper uses COPY as "achieved
// memory bandwidth") from MB/s to bytes per second.
func (s StreamResult) BytesPerSec() float64 { return s.Copy * 1e6 }

// Network describes the latency/bandwidth behaviour of the interconnect.
// Effective bandwidth follows the classic half-performance ramp
//
//	B(m) = Asymptote * m / (m + HalfSize)
//
// which reproduces the NetPIPE curve of Figure 5: ~20% of theoretical peak
// for small messages rising towards Asymptote for megabyte messages.
type Network struct {
	// PeakGbps is the theoretical link rate (32 Gb/s IB QDR on NaCL,
	// 100 Gb/s Omni-Path on Stampede2); used only for "% of peak" axes.
	PeakGbps float64
	// AsymptoteGbps is the effective peak the paper measured with NetPIPE
	// (27 Gb/s on NaCL, 86 Gb/s on Stampede2).
	AsymptoteGbps float64
	// HalfSize is the message size (bytes) at which half the asymptotic
	// bandwidth is achieved.
	HalfSize float64
	// Latency is the one-way small-message latency (~1us on both systems).
	Latency time.Duration
	// MsgOverhead is the CPU time the communication thread spends per
	// message on each side (matching, active-message handling, MPI
	// bookkeeping) in addition to serialization. This per-message cost —
	// not the wire — is the bottleneck the CA scheme's aggregation
	// relieves: s one-layer messages cost s overheads, one s-layer
	// message costs one.
	MsgOverhead time.Duration
}

// EffectiveBandwidth returns the achievable bandwidth in bytes/second for a
// message of the given size in bytes.
func (n Network) EffectiveBandwidth(msgBytes int) float64 {
	if msgBytes <= 0 {
		return 0
	}
	m := float64(msgBytes)
	gbps := n.AsymptoteGbps * m / (m + n.HalfSize)
	return gbps * 1e9 / 8 // Gb/s -> B/s
}

// TransferTime returns the modeled one-way time for a message of the given
// size: latency plus serialization at the effective bandwidth.
func (n Network) TransferTime(msgBytes int) time.Duration {
	if msgBytes <= 0 {
		return n.Latency
	}
	ser := float64(msgBytes) / n.EffectiveBandwidth(msgBytes)
	return n.Latency + time.Duration(ser*float64(time.Second))
}

// PercentOfPeak returns the NetPIPE-style efficiency for a message size:
// achieved bandwidth (including the latency term) over theoretical peak,
// in percent. This is the y-axis of Figure 5.
func (n Network) PercentOfPeak(msgBytes int) float64 {
	t := n.TransferTime(msgBytes).Seconds()
	if t <= 0 {
		return 0
	}
	achieved := float64(msgBytes) / t // B/s
	peak := n.PeakGbps * 1e9 / 8
	return 100 * achieved / peak
}

// Kernel holds the calibration constants of the stencil kernel cost model
// (see internal/memmodel). They encode the gap the paper observed between
// the roofline bound and the actually-achieved unoptimized kernel.
type Kernel struct {
	// BytesPerUpdate is the effective memory traffic per grid-point update
	// of the unoptimized 5-point kernel. The roofline ideal is 16-24 B;
	// the calibrated values (~32-36 B) land the single-node plateau at the
	// paper's 11 / 43.5 GFLOP/s.
	BytesPerUpdate float64
	// CacheBytesPerCore is the per-core share of last-level cache. Tiles
	// whose working set exceeds it pay CachePenaltyBytes extra traffic per
	// update, producing the large-tile falloff in Figure 6.
	CacheBytesPerCore float64
	// CachePenaltyBytes is the additional per-update traffic once a tile
	// falls out of cache.
	CachePenaltyBytes float64
	// TaskOverhead is the fixed runtime cost per task (scheduling, dep
	// resolution); it produces the small-tile falloff in Figure 6.
	TaskOverhead time.Duration
	// CopyBytesPerGhostPoint models the halo pack/unpack traffic per ghost
	// point (read + write). CA tasks copy deeper halos, which is why the
	// paper's Fig. 10 reports a higher median kernel time for CA.
	CopyBytesPerGhostPoint float64
}

// Model is a complete machine description used by the cost engines.
type Model struct {
	Name string
	// Nodes is the cluster size available for experiments.
	Nodes int
	// CoresPerNode is the total core count; the task runtime dedicates one
	// core per node to communication (the paper's PaRSEC configuration).
	CoresPerNode int
	// StreamCore and StreamNode are Table I: single-core and full-node
	// STREAM results.
	StreamCore StreamResult
	StreamNode StreamResult
	Net        Network
	Kern       Kernel
}

// ComputeCores returns the number of worker cores per node once one core is
// dedicated to communication.
func (m *Model) ComputeCores() int {
	if m.CoresPerNode <= 1 {
		return 1
	}
	return m.CoresPerNode - 1
}

// PerCoreBandwidth returns the memory bandwidth (B/s) available to each
// compute core when all of them stream concurrently: the node STREAM COPY
// figure divided over the compute cores.
func (m *Model) PerCoreBandwidth() float64 {
	return m.StreamNode.BytesPerSec() / float64(m.ComputeCores())
}

func (m *Model) String() string {
	return fmt.Sprintf("%s: %d nodes x %d cores, %.1f GB/s node STREAM, %g Gb/s net",
		m.Name, m.Nodes, m.CoresPerNode, m.StreamNode.BytesPerSec()/1e9, m.Net.AsymptoteGbps)
}

// Validate reports whether the model is internally consistent.
func (m *Model) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("machine: model needs a name")
	case m.Nodes < 1:
		return fmt.Errorf("machine %s: Nodes must be >= 1, got %d", m.Name, m.Nodes)
	case m.CoresPerNode < 1:
		return fmt.Errorf("machine %s: CoresPerNode must be >= 1, got %d", m.Name, m.CoresPerNode)
	case m.StreamNode.Copy <= 0 || m.StreamCore.Copy <= 0:
		return fmt.Errorf("machine %s: STREAM COPY must be positive", m.Name)
	case m.Net.AsymptoteGbps <= 0 || m.Net.PeakGbps <= 0:
		return fmt.Errorf("machine %s: network bandwidth must be positive", m.Name)
	case m.Net.Latency <= 0:
		return fmt.Errorf("machine %s: network latency must be positive", m.Name)
	case m.Kern.BytesPerUpdate <= 0:
		return fmt.Errorf("machine %s: BytesPerUpdate must be positive", m.Name)
	}
	return nil
}

// NaCL returns the model of the paper's in-house cluster: 64 nodes, two
// 6-core Intel Xeon X5660 (Westmere) sockets, 23 GB RAM, InfiniBand QDR
// (32 Gb/s peak, ~27 Gb/s effective, ~1us latency). STREAM values are
// Table I verbatim.
func NaCL() *Model {
	return &Model{
		Name:         "NaCL",
		Nodes:        64,
		CoresPerNode: 12,
		StreamCore:   StreamResult{Copy: 9814.2, Scale: 10080.3, Add: 10289.3, Triad: 10271.6},
		StreamNode:   StreamResult{Copy: 40091.3, Scale: 26335.8, Add: 28992.0, Triad: 28547.2},
		Net: Network{
			PeakGbps:      32,
			AsymptoteGbps: 27,
			HalfSize:      16 << 10,
			Latency:       time.Microsecond,
			MsgOverhead:   16 * time.Microsecond,
		},
		Kern: Kernel{
			// Calibrated: 11 compute cores at 40.09 GB/s node bandwidth
			// reach the paper's ~11 GFLOP/s plateau when each 9-flop
			// update moves ~33 bytes.
			BytesPerUpdate: 33,
			// Westmere: 12 MB L3 per 6-core socket => 2 MB/core share;
			// the Fig. 6 falloff starts past tile ~300 (2*300^2*8=1.44MB).
			CacheBytesPerCore:      2 << 20,
			CachePenaltyBytes:      10,
			TaskOverhead:           25 * time.Microsecond,
			CopyBytesPerGhostPoint: 32,
		},
	}
}

// Stampede2 returns the model of the TACC Stampede2 SKX partition used in
// the paper: two 24-core Intel Xeon Platinum 8160 sockets per node, 192 GB
// RAM, 100 Gb/s Omni-Path (~86 Gb/s effective). STREAM values are Table I.
func Stampede2() *Model {
	return &Model{
		Name:         "Stampede2",
		Nodes:        64,
		CoresPerNode: 48,
		StreamCore:   StreamResult{Copy: 10632.6, Scale: 10772.0, Add: 13427.1, Triad: 13440.0},
		StreamNode:   StreamResult{Copy: 176701.1, Scale: 178718.7, Add: 192560.3, Triad: 193216.3},
		Net: Network{
			PeakGbps:      100,
			AsymptoteGbps: 86,
			HalfSize:      32 << 10,
			Latency:       time.Microsecond,
			MsgOverhead:   10 * time.Microsecond,
		},
		Kern: Kernel{
			// 47 compute cores at 176.7 GB/s reach ~43.5 GFLOP/s when an
			// update moves ~36 bytes.
			BytesPerUpdate: 36,
			// SKX streams well from DRAM; the Fig. 6 optimum extends to
			// tile ~2000, so the residency threshold is much larger
			// (effective per-core share incl. MCDRAM-less DDR streaming).
			CacheBytesPerCore:      70 << 20,
			CachePenaltyBytes:      10,
			TaskOverhead:           25 * time.Microsecond,
			CopyBytesPerGhostPoint: 32,
		},
	}
}

// ByName returns a built-in model by (case-sensitive) name.
func ByName(name string) (*Model, error) {
	switch name {
	case "NaCL", "nacl":
		return NaCL(), nil
	case "Stampede2", "stampede2":
		return Stampede2(), nil
	}
	return nil, fmt.Errorf("machine: unknown model %q (want NaCL or Stampede2)", name)
}

// Builtin lists the built-in machine models.
func Builtin() []*Model { return []*Model{NaCL(), Stampede2()} }
