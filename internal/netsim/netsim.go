// Package netsim provides the simulated-interconnect pieces built on top of
// the machine.Network latency/bandwidth model: a NetPIPE-style sweep that
// regenerates Figure 5, and a Fabric that the discrete-event engine uses to
// account NIC serialization and wire latency per message.
package netsim

import (
	"fmt"
	"time"

	"castencil/internal/machine"
)

// Point is one sample of the NetPIPE sweep.
type Point struct {
	Bytes         int
	Time          time.Duration
	BandwidthGbps float64
	PercentPeak   float64
}

// NetPIPE sweeps message sizes from minBytes to maxBytes (doubling) and
// returns the effective transfer time, achieved bandwidth and percent of
// theoretical peak at each size, reproducing Figure 5.
func NetPIPE(net machine.Network, minBytes, maxBytes int) []Point {
	if minBytes < 1 {
		minBytes = 1
	}
	var pts []Point
	for m := minBytes; m <= maxBytes; m *= 2 {
		t := net.TransferTime(m)
		achieved := float64(m) / t.Seconds() * 8 / 1e9
		pts = append(pts, Point{
			Bytes:         m,
			Time:          t,
			BandwidthGbps: achieved,
			PercentPeak:   net.PercentOfPeak(m),
		})
	}
	return pts
}

// Fabric models the cluster interconnect for the discrete-event simulator.
// Each node owns one NIC; a message occupies the sender NIC for its
// serialization time, travels one wire latency, then occupies the receiver
// NIC for its serialization time. NIC occupancy is what creates the
// latency/injection bottleneck the CA scheme avoids: many small messages
// serialize on the communication thread even when the wire is idle.
type Fabric struct {
	net machine.Network
	// commFree[n] is the virtual time at which node n's communication
	// thread becomes free. One resource handles both sends and receives,
	// matching the paper's PaRSEC configuration of a single thread
	// dedicated to communication per node.
	commFree []time.Duration
	// commBusy[n] accumulates the time node n's communication thread spent
	// handling messages (serialization + per-message overhead, both
	// directions).
	commBusy []time.Duration
	// Stats
	Messages  int
	BytesSent int
	// Bundles counts the wire messages that were coalesced halo bundles
	// (each also counted once in Messages); Segments totals the member
	// transfers those bundles carried. Segments/Bundles is the mean bundle
	// fill — the aggregation factor the coalescing optimization achieves.
	Bundles  int
	Segments int
}

// NewFabric creates a fabric connecting n nodes with the given network model.
func NewFabric(net machine.Network, n int) *Fabric {
	return &Fabric{
		net:      net,
		commFree: make([]time.Duration, n),
		commBusy: make([]time.Duration, n),
	}
}

// Nodes returns the number of endpoints.
func (f *Fabric) Nodes() int { return len(f.commFree) }

// Serialization returns the time a message of the given size occupies a NIC
// (and its communication thread): the per-message handling overhead plus
// streaming at the effective bandwidth.
func (f *Fabric) Serialization(bytes int) time.Duration {
	if bytes <= 0 {
		return f.net.MsgOverhead
	}
	sec := float64(bytes) / f.net.EffectiveBandwidth(bytes)
	return f.net.MsgOverhead + time.Duration(sec*float64(time.Second))
}

// Send schedules a message from src to dst that becomes ready to send at
// time ready, and returns the virtual time at which it is fully received.
// Same-node "sends" are free (they model local memory copies already
// accounted in the kernel cost).
func (f *Fabric) Send(src, dst int, bytes int, ready time.Duration) time.Duration {
	if src == dst {
		return ready
	}
	f.Messages++
	f.BytesSent += bytes
	ser := f.Serialization(bytes)

	start := ready
	if f.commFree[src] > start {
		start = f.commFree[src]
	}
	injected := start + ser
	f.commFree[src] = injected
	f.commBusy[src] += ser

	arrival := injected + f.net.Latency
	recvStart := arrival
	if f.commFree[dst] > recvStart {
		recvStart = f.commFree[dst]
	}
	done := recvStart + ser
	f.commFree[dst] = done
	f.commBusy[dst] += ser
	return done
}

// SendBundle schedules one coalesced halo bundle carrying segments member
// payloads in bytes total wire bytes. The fabric charges exactly one NIC
// occupancy per side and one wire latency for the whole bundle — the
// communication-avoiding payoff: the per-message overhead that would have
// been paid segments times is paid once.
func (f *Fabric) SendBundle(src, dst int, bytes, segments int, ready time.Duration) time.Duration {
	if src == dst {
		return ready
	}
	done := f.Send(src, dst, bytes, ready)
	f.Bundles++
	f.Segments += segments
	return done
}

// CommBusy returns the accumulated communication-thread busy time of a
// node — how long its dedicated comm thread spent packing, matching and
// streaming messages. Comparing it to the makespan shows whether a run is
// communication-bound (the quantity the CA scheme attacks).
func (f *Fabric) CommBusy(node int) time.Duration { return f.commBusy[node] }

// Reset clears comm-thread occupancy and statistics.
func (f *Fabric) Reset() {
	for i := range f.commFree {
		f.commFree[i] = 0
		f.commBusy[i] = 0
	}
	f.Messages = 0
	f.BytesSent = 0
	f.Bundles = 0
	f.Segments = 0
}

func (f *Fabric) String() string {
	return fmt.Sprintf("fabric(%d nodes, %d msgs, %d bytes)", f.Nodes(), f.Messages, f.BytesSent)
}
