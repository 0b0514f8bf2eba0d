package ptg

import "fmt"

// This file implements halo-bundle planning: grouping all cross-node
// dependencies that share a (source node, destination node, epoch) triple
// into a single coalesced message. The paper's CA scheme wins by aggregating
// many small halo messages into fewer large ones — this extends the same
// lever to the runtime's transport, collapsing the per-(neighbor, step)
// message storm to one message per neighbor pair per exchange epoch while
// leaving the dataflow semantics untouched (the receiver fans the member
// payloads out to exactly the deliveries a point-to-point run would make).

// CoalesceMode selects how the engines group cross-node dependencies into
// bundles.
type CoalesceMode uint8

const (
	// CoalesceOff sends one message per cross-node dependency (the
	// historical behavior; the zero value).
	CoalesceOff CoalesceMode = iota
	// CoalesceStep bundles all cross-node dependencies sharing a
	// (source node, destination node, producer epoch) triple into one
	// message. Building the bundle plan fails if bundling would deadlock
	// the graph (see Graph.Bundles).
	CoalesceStep
)

// ParseCoalesce maps a command-line mode name to a CoalesceMode.
func ParseCoalesce(name string) (CoalesceMode, error) {
	switch name {
	case "off", "none", "":
		return CoalesceOff, nil
	case "step":
		return CoalesceStep, nil
	}
	return CoalesceOff, fmt.Errorf("ptg: unknown coalesce mode %q (valid: off, step)", name)
}

func (m CoalesceMode) String() string {
	switch m {
	case CoalesceOff:
		return "off"
	case CoalesceStep:
		return "step"
	}
	return fmt.Sprintf("CoalesceMode(%d)", uint8(m))
}

// BundleMember identifies one cross-node dependency carried by a bundle:
// the consumer task and the index into its Deps.
type BundleMember struct {
	Task int32
	Dep  int32
}

// Bundle is one planned coalesced message: every cross-node dependency whose
// producer lives on node Src at epoch Epoch and whose consumer lives on node
// Dst. Members are listed in deterministic graph order (task index, then dep
// index), which fixes the segment layout of the wire message.
type Bundle struct {
	Src, Dst int32
	Epoch    int32
	Members  []BundleMember
	// Bytes is the summed member payload size (excluding framing).
	Bytes int
}

// WireBytes is the on-wire size of the bundle under the runtime's
// length-prefixed segment format: a u32 member count, one u32 length per
// segment, then the concatenated payloads. The simulator charges this same
// size so virtual and real byte accounting agree.
func (b *Bundle) WireBytes() int { return 4*(1+len(b.Members)) + b.Bytes }

// Bundles plans the halo bundles of the graph: the Bundles of its
// CoalesceStep plan. Bundling tightens the dependency structure — a bundle
// is sent only once all of its members are produced — so a graph whose
// epochs do not advance with logical time can deadlock under it; Bundles
// then returns an error, leaving callers to fall back to point-to-point
// delivery.
func (g *Graph) Bundles() ([]Bundle, error) {
	p, err := g.Plan(CoalesceStep)
	if err != nil {
		return nil, err
	}
	return p.Bundles, nil
}
