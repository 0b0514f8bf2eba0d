package runtime

import (
	"encoding/json"
	"errors"
	"fmt"
)

// This file is the runtime's multi-process distribution layer. A distributed
// run places each virtual node on exactly one OS process (a *rank*): every
// rank builds the identical graph from the identical configuration, runs
// workers and a communication goroutine only for the nodes it owns, and
// routes messages whose destination node lives elsewhere through a Conduit —
// the wire transport (internal/netcomm implements it over TCP). Message
// accounting is unchanged: every inter-node message counts exactly as in a
// single-process run, so after the epilogue's stats exchange rank 0's Result
// carries the same Messages/BytesSent/Bundles/Segments a single-process run
// (and the virtual-time simulator) reports.
//
// Lifecycle of a distributed run, per rank:
//
//  1. Bind the conduit (inbound wire messages feed ex.fromWire, which checks
//     them against the graph before ex.deliver; transport failures feed
//     ex.fail) and enter the "start" barrier, so every rank's
//     lanes are up before epoch 0 seeds its roots.
//  2. Run the local slice of the graph. ex.deliver routes by destination
//     node: local nodes go to their inbox, remote nodes onto the wire. Acks
//     of the reliable transport are ordinary messages and route the same
//     way, so retransmit/dedup work identically over sockets.
//  3. On local completion, drain: wait until every locally-tracked reliable
//     message is acknowledged, then enter the "drain" barrier. Lanes are
//     FIFO, so a peer that passed the barrier has already received every
//     data frame this rank sent — no straggler can leak into a later run.
//  4. Exchange counters: every rank gathers its Result counters to rank 0,
//     which folds them into its own so the distributed totals match the
//     single-process run exactly.
//
// A failed run (task panic, context cancel, recovery deadline) broadcasts an
// abort instead of the drain barrier; peers fail their runs with the same
// cause instead of hanging on data that will never come.

// Conduit is the wire transport of a distributed run. internal/netcomm
// implements it over TCP; tests may substitute their own. All methods are
// safe for concurrent use. Send is called from compute/communication
// goroutines and must not retain m.Data past its return: the runtime ends
// the message and returns its buffer to the arena (see pool.go). A
// conduit delivers each inbound data payload in a buffer of its own from
// GetBuf, which the receiving run then owns.
type Conduit interface {
	// Rank and Ranks report this process's position in the static member
	// list.
	Rank() int
	Ranks() int
	// Begin opens a new run epoch: collective state from previous runs (or
	// their aborts) is discarded. Every rank must call Begin the same number
	// of times in the same global order — runs over one conduit are
	// serialized by construction.
	Begin()
	// Bind attaches a run: inbound data messages feed deliver, transport
	// failures (a peer dead past the recovery deadline) feed fail. One run
	// may be bound at a time.
	Bind(numNodes int, deliver func(Message), fail func(error)) error
	// Unbind detaches the bound run.
	Unbind()
	// Send ships a message to the rank owning m.Dst.
	Send(m Message) error
	// Barrier blocks until every rank has entered the barrier with the same
	// tag in the current epoch.
	Barrier(tag string) error
	// GatherStream streams records from every rank other than 0 to rank 0
	// and blocks until rank 0 has received all of them. On a rank other
	// than 0 it calls send once: send hands its records to emit one at a
	// time, each at most max bytes, and emit returns once the record is on
	// its way, so send may reuse it. On rank 0 it calls recv with every
	// other rank's records, each rank's in the order they were emitted; rec
	// is only valid until recv returns. An error from send, emit or recv
	// fails the gather on every rank.
	GatherStream(tag string, send func(max int, emit func(rec []byte) error) error,
		recv func(from int, rec []byte) error) error
	// Abort broadcasts a failure to all peers: their pending and future
	// collective calls in this epoch fail, and their bound run (if any) is
	// failed with the abort as cause.
	Abort(reason string)
}

// Dist configures a distributed execution: this process's rank, the total
// rank count, and the established transport. Options.Dist == nil (the
// default) is the classic single-process run.
type Dist struct {
	Rank  int
	Ranks int
	Net   Conduit
}

// RankOfNode is the static node-placement function shared by every rank (and
// by internal/netcomm for routing): virtual nodes are dealt to ranks in
// balanced contiguous blocks, rank r owning [⌊r·nodes/ranks⌋,
// ⌊(r+1)·nodes/ranks⌋). Block sizes differ by at most one, so every rank owns
// a node whenever ranks <= nodes, and an even split deals blocks of
// nodes/ranks. Deterministic placement is what lets every rank build the
// same graph and agree on ownership without any exchange.
func RankOfNode(node, nodes, ranks int) int {
	if ranks <= 1 || nodes <= 0 {
		return 0
	}
	// The largest r whose block starts at or before node.
	return ((node+1)*ranks - 1) / nodes
}

// validateDist sanity-checks a Dist against the graph before the run starts.
func validateDist(d *Dist, numNodes int) error {
	if d.Net == nil {
		return fmt.Errorf("runtime: Dist.Net is required for a distributed run")
	}
	if d.Ranks < 2 {
		return fmt.Errorf("runtime: distributed run needs at least 2 ranks, got %d", d.Ranks)
	}
	if d.Rank < 0 || d.Rank >= d.Ranks {
		return fmt.Errorf("runtime: rank %d out of range [0,%d)", d.Rank, d.Ranks)
	}
	if d.Ranks > numNodes {
		return fmt.Errorf("runtime: %d ranks exceed the graph's %d virtual nodes", d.Ranks, numNodes)
	}
	if d.Net.Rank() != d.Rank || d.Net.Ranks() != d.Ranks {
		return fmt.Errorf("runtime: Dist (rank %d/%d) disagrees with its conduit (rank %d/%d)",
			d.Rank, d.Ranks, d.Net.Rank(), d.Net.Ranks())
	}
	return nil
}

// localNode reports whether the executor's rank owns node n. Always true for
// single-process runs.
func (ex *executor) localNode(n int32) bool {
	return ex.dist == nil || ex.nodeRank[n] == int32(ex.dist.Rank)
}

// errBadMessage is the cause of a run failed by a wire message that does not
// address this run's graph (see fromWire).
var errBadMessage = errors.New("runtime: bad wire message")

// fromWire is the entry point of every message a conduit decodes off the
// wire. A peer's frame is untrusted input: before deliver indexes anything
// with it, the message must name nodes of the graph, a destination this rank
// owns, and either a cross-node dependency of a task on that destination
// whose producer lives on the source, or a plan bundle from source to
// destination (acks carry no address beyond the node pair). Anything else
// fails the run with errBadMessage instead of panicking the rank. The call
// counts in wireIn, so the run's end can wait out a delivery that read
// commClosed just before it was set (see run).
func (ex *executor) fromWire(m Message) {
	ex.wireIn.Add(1)
	defer ex.wireIn.Add(-1)
	if err := ex.checkWire(m); err != nil {
		PutBuf(m.Data)
		ex.fail(err)
		return
	}
	ex.deliver(m)
}

// checkWire validates a wire message's addressing (see fromWire).
func (ex *executor) checkWire(m Message) error {
	g := ex.g
	nodes := int32(g.NumNodes)
	switch {
	case m.Src < 0 || m.Src >= nodes:
		return fmt.Errorf("%w: src node %d out of range [0,%d)", errBadMessage, m.Src, nodes)
	case m.Dst < 0 || m.Dst >= nodes:
		return fmt.Errorf("%w: dst node %d out of range [0,%d)", errBadMessage, m.Dst, nodes)
	case !ex.localNode(m.Dst):
		return fmt.Errorf("%w: dst node %d is not owned by rank %d", errBadMessage, m.Dst, ex.dist.Rank)
	case m.Ack && !ex.reliable:
		return fmt.Errorf("%w: ack from node %d, but this run has no reliable transport", errBadMessage, m.Src)
	case m.Ack:
		return nil
	case m.Bundle < 0 || int(m.Bundle) > len(ex.plan.Bundles):
		return fmt.Errorf("%w: bundle %d out of range [0,%d]", errBadMessage, m.Bundle, len(ex.plan.Bundles))
	case m.Bundle > 0:
		if b := &ex.plan.Bundles[m.Bundle-1]; b.Src != m.Src || b.Dst != m.Dst {
			return fmt.Errorf("%w: bundle %d runs %d->%d, not %d->%d", errBadMessage, m.Bundle, b.Src, b.Dst, m.Src, m.Dst)
		}
		return nil
	case m.Task < 0 || int(m.Task) >= len(g.Tasks):
		return fmt.Errorf("%w: task %d out of range [0,%d)", errBadMessage, m.Task, len(g.Tasks))
	}
	t := &g.Tasks[m.Task]
	switch {
	case t.Node != m.Dst:
		return fmt.Errorf("%w: task %v lives on node %d, not dst %d", errBadMessage, t.ID, t.Node, m.Dst)
	case m.Dep < 0 || int(m.Dep) >= len(t.Deps):
		return fmt.Errorf("%w: dep %d of task %v out of range [0,%d)", errBadMessage, m.Dep, t.ID, len(t.Deps))
	case g.Tasks[t.Deps[m.Dep].Producer].Node != m.Src:
		return fmt.Errorf("%w: dep %d of task %v is not produced on src %d", errBadMessage, m.Dep, t.ID, m.Src)
	}
	return nil
}

// sendRemote ships a message whose destination node lives on another rank
// and recycles the local payload buffer: the bytes are on the wire (or the
// send failed and the run is over), so by the same ownership convention the
// in-process receive path applies, the copy this rank holds is dead.
func (ex *executor) sendRemote(m Message) {
	err := ex.dist.Net.Send(m)
	PutBuf(m.Data)
	if err != nil {
		ex.fail(err)
	}
}

// distDrain is the epilogue of a distributed run, executed on the Run
// goroutine after local completion while the comm goroutines are still
// serving acks and retransmits. On success it waits until every reliable
// message this rank sent has been acknowledged, then holds the "drain"
// barrier; on failure it broadcasts an abort so peers fail fast instead of
// waiting for data that will never arrive.
func (ex *executor) distDrain() {
	ex.errMu.Lock()
	runErr := ex.runErr
	ex.errMu.Unlock()
	if runErr == nil && ex.reliable {
		// The recovery layer's own deadline machinery (retransmitDue) bounds
		// this wait: a peer that never acks fails the run with a
		// *fault.Report, which raises drainSig and shows up as runErr.
		for runErr == nil && ex.relPending() > 0 {
			<-ex.drainSig
			ex.errMu.Lock()
			runErr = ex.runErr
			ex.errMu.Unlock()
		}
	}
	if runErr != nil {
		ex.dist.Net.Abort(runErr.Error())
		return
	}
	if err := ex.dist.Net.Barrier("drain"); err != nil {
		ex.fail(err)
	}
}

// relPending sums the reliable messages this rank sent that are still
// unacknowledged.
func (ex *executor) relPending() int64 {
	pending := int64(0)
	for _, nd := range ex.nodes {
		pending += nd.relPending.Load()
	}
	return pending
}

// signalDrain wakes the distributed drain to re-check its condition. The
// signal is level-triggered through a one-slot buffer: one raised while
// the drain is busy is seen by its next wait.
func (ex *executor) signalDrain() {
	select {
	case ex.drainSig <- struct{}{}:
	default:
	}
}

// distExchangeStats folds every rank's counters into rank 0's Result, so the
// distributed totals are exactly the single-process (and simulator) numbers.
// Ranks other than 0 ship their Results as one JSON record each (epilogue
// traffic, not the hot path) and keep their local view. Per-node arrays
// merge by addition: each rank reports nonzero entries only for the nodes it
// owns.
func (ex *executor) distExchangeStats(res *Result) error {
	seen := make([]bool, ex.dist.Ranks)
	err := ex.dist.Net.GatherStream("stats", func(_ int, emit func([]byte) error) error {
		payload, err := json.Marshal(res)
		if err != nil {
			return err
		}
		return emit(payload)
	}, func(r int, rec []byte) error {
		if seen[r] {
			return fmt.Errorf("runtime: second stats payload from rank %d", r)
		}
		seen[r] = true
		var o Result
		if err := json.Unmarshal(rec, &o); err != nil {
			return fmt.Errorf("runtime: bad stats payload from rank %d: %v", r, err)
		}
		res.Messages += o.Messages
		res.BytesSent += o.BytesSent
		res.BundlesSent += o.BundlesSent
		res.BundleSegments += o.BundleSegments
		res.Completed += o.Completed
		res.Dropped += o.Dropped
		res.Fault.Add(o.Fault)
		for i := range res.NodeTasks {
			if i < len(o.NodeTasks) {
				res.NodeTasks[i] += o.NodeTasks[i]
			}
			if i < len(o.NodeBusy) {
				res.NodeBusy[i] += o.NodeBusy[i]
			}
			if i < len(o.NodeLocalHits) {
				res.NodeLocalHits[i] += o.NodeLocalHits[i]
			}
			if i < len(o.NodeSteals) {
				res.NodeSteals[i] += o.NodeSteals[i]
			}
			if i < len(o.NodeParks) {
				res.NodeParks[i] += o.NodeParks[i]
			}
		}
		return nil
	})
	if err != nil || ex.dist.Rank != 0 {
		return err
	}
	for r := 1; r < len(seen); r++ {
		if !seen[r] {
			return fmt.Errorf("runtime: no stats payload from rank %d", r)
		}
	}
	return nil
}
