package castencil

import (
	"time"

	"castencil/internal/machine"
	"castencil/internal/runtime"
)

// This file is the unified distribution API: one ClusterOptions bag covers
// everything a multi-process run needs — membership, transport reuse,
// inter-node work stealing, and recovery policy — applied with a single
// WithCluster option.
//
//	// One-shot: Run connects the mesh itself and closes it after.
//	res, err := castencil.Run(castencil.CA, cfg,
//	    castencil.WithCluster(castencil.ClusterOptions{
//	        Rank:  rank,
//	        Ranks: addrs,
//	        Steal: castencil.StealPolicy{Mode: castencil.StealGated},
//	    }))

// StealMode selects the inter-node work-stealing policy of a distributed
// run: off (the default), greedy (migrate whenever a rank starves), or
// gated (migrate only when the machine model prices the round trip below
// the task's expected local wait).
type StealMode = runtime.StealMode

// Inter-node work-stealing modes.
const (
	StealOff    = runtime.StealOff
	StealGreedy = runtime.StealGreedy
	StealGated  = runtime.StealGated
)

// StealNames lists the spellings ParseSteal accepts, for flag help.
const StealNames = runtime.StealNames

// ParseSteal maps a command-line steal-mode name ("off", "greedy",
// "gated") to a StealMode.
func ParseSteal(name string) (StealMode, error) { return runtime.ParseSteal(name) }

// ForcedSteal pins one task (by graph index) to a thief rank: when it
// becomes ready on its owning rank it migrates unconditionally. Forced
// migrations are deterministic, which is what the exact migration counts
// of the steal tests rest on. Real runs only: Sim refuses them.
type ForcedSteal = runtime.ForcedSteal

// StealPolicy configures inter-node work stealing. Every rank of a run must
// be handed the same policy — ranks agree on stealing the way they agree on
// the graph. Stealing never changes numerics: a migrated task executes on
// byte-identical inputs and its results commit where they would have been
// computed, so the final grid stays bitwise identical to a steal-off run.
type StealPolicy struct {
	// Mode selects the dynamic policy (StealOff disables demand-driven
	// stealing; forced migrations below still apply).
	Mode StealMode
	// Machine prices the migration round trip for the gated mode
	// (machine.Network.MigrationTime); nil defaults to the NaCL model.
	// Ignored by the other modes.
	Machine *Machine
	// Force scripts deterministic migrations applied in every mode.
	Force []ForcedSteal
}

// runtimePolicy lowers the facade policy to the runtime's, deriving the
// gate from the machine model.
func (p StealPolicy) runtimePolicy() *runtime.StealPolicy {
	if p.Mode == StealOff && len(p.Force) == 0 {
		return nil
	}
	rp := &runtime.StealPolicy{Mode: p.Mode, Force: p.Force}
	if p.Mode == StealGated {
		m := p.Machine
		if m == nil {
			m = machine.NaCL()
		}
		net := m.Net
		rp.Gate = func(inBytes, outBytes int) time.Duration {
			return net.MigrationTime(inBytes, outBytes)
		}
	}
	return rp
}

// ClusterOptions gathers the whole distributed-run configuration. Exactly
// one of Ranks (one-shot: Run connects the TCP mesh and closes it when the
// run returns) or Transport (reuse: an already-connected mesh shared across
// runs, see NetConnect) should be set; Transport wins when both are.
type ClusterOptions struct {
	// Rank is this process's index into Ranks (ignored with Transport,
	// which knows its own rank).
	Rank int
	// Ranks is the full static member list — one host:port per rank, the
	// identical list on every rank.
	Ranks []string
	// Transport reuses an established conduit instead of connecting per
	// run (stencild keeps one mesh across jobs).
	Transport Conduit
	// Steal configures inter-node work stealing (zero value = off).
	Steal StealPolicy
	// Recovery overrides the reliable-transport policy for both the mesh
	// connection and the run (nil keeps the defaults).
	Recovery *FaultRecovery
}

// WithCluster configures a multi-process distributed real run from one
// options bag — membership or transport, work stealing, recovery.
func WithCluster(c ClusterOptions) Option {
	return func(o *RunOptions) {
		o.Rank = c.Rank
		o.RankAddrs = c.Ranks
		o.Conduit = c.Transport
		o.Steal = c.Steal
		if c.Recovery != nil {
			o.Recovery = c.Recovery
		}
	}
}
