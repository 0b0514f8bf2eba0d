package castencil

// This file is the unified distribution API: one ClusterOptions bag covers
// everything a multi-process run needs — the transport and the recovery
// policy — applied with a single WithCluster option. Every rank executes
// exactly the tasks of the nodes it owns under the static block placement.
//
//	t, err := castencil.NetConnect(rank, addrs, castencil.NetOptions{})
//	...
//	defer t.Close()
//	res, err := castencil.Run(castencil.CA, cfg,
//	    castencil.WithCluster(castencil.ClusterOptions{Transport: t}))

// ClusterOptions gathers the whole distributed-run configuration.
type ClusterOptions struct {
	// Transport is the established mesh the run goes over (see
	// NetConnect); it knows this process's rank and the rank count, and
	// stays open for further runs (stencild keeps one mesh across jobs).
	Transport Conduit
	// Recovery overrides the run's reliable-transport policy (nil keeps
	// the default). The mesh's own reconnection deadline is set when it is
	// connected, in NetOptions.Recovery.
	Recovery *FaultRecovery
}

// WithCluster configures a multi-process distributed real run from one
// options bag — transport, recovery.
func WithCluster(c ClusterOptions) Option {
	return func(o *RunOptions) {
		o.Conduit = c.Transport
		if c.Recovery != nil {
			o.Recovery = c.Recovery
		}
	}
}
