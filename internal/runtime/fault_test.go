package runtime

import (
	"errors"
	"testing"
	"time"

	"castencil/internal/fault"
	"castencil/internal/ptg"
	"castencil/internal/trace"
)

// genTimeout is an ack timeout generous enough that in-process delivery
// (microseconds) never times out spuriously: every retransmit in these
// tests is caused by an injected drop, making Retransmits == Dropped an
// exact identity.
const genTimeout = 100 * time.Millisecond

func genRecovery() *fault.Recovery {
	return &fault.Recovery{Timeout: genTimeout, Deadline: 10 * time.Second}
}

// auditWire checks the wire accounting identities of a successful
// point-to-point run: Messages counts one original per cross dependency
// plus each injected duplicate and each retransmission, every logical
// transfer was delivered (Dropped is logical under the reliable
// transport), and the receiver deduplicated at most the injected
// duplicate volume.
func auditWire(t *testing.T, res *Result, crossDeps int) {
	t.Helper()
	if res.Messages != crossDeps+res.Fault.Duplicated+res.Fault.Retransmits {
		t.Errorf("wire accounting broken: %d messages != %d deps + %d dups + %d retransmits",
			res.Messages, crossDeps, res.Fault.Duplicated, res.Fault.Retransmits)
	}
	if res.Dropped != 0 {
		t.Errorf("successful run lost %d logical transfers", res.Dropped)
	}
	if res.Fault.DupDrops > res.Fault.Duplicated+res.Fault.Retransmits {
		t.Errorf("receiver deduplicated %d copies, only %d redundant ones existed",
			res.Fault.DupDrops, res.Fault.Duplicated+res.Fault.Retransmits)
	}
}

func TestFaultDelayOnlyUnreliable(t *testing.T) {
	// A pure-delay plan must not enable the reliable transport: no
	// sequencing, no retransmits, message count exactly the cross deps.
	plan := &fault.Plan{Seed: 5, Delay: 0.5, DelayBy: time.Millisecond}
	if plan.NeedsRecovery() {
		t.Fatal("pure delay plan should not need recovery")
	}
	g := buildChain(t, 20, 3)
	res, err := Run(g, Options{Workers: 2, Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	if got := chainValue(res, 19, 3); got != 20 {
		t.Errorf("final value = %d, want 20", got)
	}
	if res.Messages != 19 {
		t.Errorf("messages = %d, want 19", res.Messages)
	}
	if res.Fault.Delayed == 0 {
		t.Error("no delays injected at delay=0.5")
	}
	if res.Fault.Retransmits != 0 || res.Fault.DupDrops != 0 {
		t.Errorf("unreliable run did recovery work: %+v", res.Fault)
	}
}

func TestFaultDropRecoveryExactCounters(t *testing.T) {
	plan := &fault.Plan{Seed: 3, Drop: 0.25}
	g := buildChain(t, 20, 3)
	res, err := Run(g, Options{Workers: 2, Fault: plan, Recovery: genRecovery()})
	if err != nil {
		t.Fatal(err)
	}
	if got := chainValue(res, 19, 3); got != 20 {
		t.Errorf("final value = %d, want 20", got)
	}
	if res.Fault.Dropped == 0 {
		t.Fatal("no drops injected at drop=0.25 over 19 messages")
	}
	// Every injected drop forces exactly one ack timeout and one
	// retransmission; the generous timeout rules out spurious ones.
	if res.Fault.Retransmits != res.Fault.Dropped || res.Fault.Timeouts != res.Fault.Dropped {
		t.Errorf("retransmits/timeouts (%d/%d) != drops (%d)",
			res.Fault.Retransmits, res.Fault.Timeouts, res.Fault.Dropped)
	}
	auditWire(t, res, 19)

	// The injected schedule is a pure function of (seed, identity): a
	// second run must inject the same drops.
	res2, err := Run(g, Options{Workers: 2, Fault: plan, Recovery: genRecovery()})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fault.Dropped != res.Fault.Dropped {
		t.Errorf("drop schedule not deterministic: %d vs %d", res2.Fault.Dropped, res.Fault.Dropped)
	}
}

func TestFaultDupDelayExactlyOnce(t *testing.T) {
	plan := &fault.Plan{Seed: 9, Drop: 0.15, Dup: 0.3, Delay: 0.3, DelayBy: 500 * time.Microsecond}
	g := buildChain(t, 30, 3)
	// NeedsRecovery auto-enables DefaultRecovery; pass an explicit policy
	// with the generous timeout so counter identities stay exact.
	res, err := Run(g, Options{Workers: 2, Fault: plan, Recovery: genRecovery()})
	if err != nil {
		t.Fatal(err)
	}
	if got := chainValue(res, 29, 3); got != 30 {
		t.Errorf("final value = %d, want 30 (lost or double-applied delivery)", got)
	}
	if res.Fault.Duplicated == 0 {
		t.Fatal("no duplicates injected at dup=0.3 over 29 messages")
	}
	auditWire(t, res, 29)
}

func TestFaultCoalescedExactlyOnce(t *testing.T) {
	// The -race stress for the coalesced path under drop+dup+delay: the
	// epoch grid audits that every cross payload is delivered exactly
	// once or accounted as dropped, whatever the wire does.
	plan := &fault.Plan{Seed: 11, Drop: 0.25, Dup: 0.25, Delay: 0.3, DelayBy: 300 * time.Microsecond}
	const nodes, epochs, tiles = 3, 5, 4
	eg := buildEpochGrid(t, nodes, epochs, tiles, ptg.TaskID{})
	res, err := Run(eg.g, Options{Workers: 2, Coalesce: ptg.CoalesceStep, Fault: plan, Recovery: genRecovery()})
	if err != nil {
		t.Fatal(err)
	}
	eg.audit(t, "coalesced+faults", res)
	if res.Completed != nodes*epochs*tiles {
		t.Errorf("completed %d of %d tasks", res.Completed, nodes*epochs*tiles)
	}
	if res.Fault.Dropped == 0 || res.Fault.Duplicated == 0 {
		t.Fatalf("plan injected nothing on the bundle path: %+v", res.Fault)
	}
	if res.Fault.Retransmits != res.Fault.Dropped {
		t.Errorf("retransmits %d != drops %d", res.Fault.Retransmits, res.Fault.Dropped)
	}
}

func TestFaultPausedNodePastDeadlineReports(t *testing.T) {
	// Node 1 freezes for far longer than the recovery deadline after its
	// second task. Senders waiting on its acks must fail the run fast with
	// a structured report instead of hanging. Every transfer is delayed
	// well past the moment node 1 finishes its two roots, so the other
	// nodes' epoch-0 payloads reach it paused; undelayed, node 1 could ack
	// them all first, owe nobody an ack and sit out its pause.
	plan := &fault.Plan{
		Delay: 1, DelayBy: 50 * time.Millisecond,
		Pauses: []fault.NodePause{{Node: 1, AfterTasks: 2, Pause: 10 * time.Second}},
	}
	rec := &fault.Recovery{Timeout: 5 * time.Millisecond, Deadline: 250 * time.Millisecond}
	eg := buildEpochGrid(t, 3, 4, 2, ptg.TaskID{})
	start := time.Now()
	res, err := Run(eg.g, Options{Workers: 2, Fault: plan, Recovery: rec})
	if err == nil {
		t.Fatal("run with a dead node completed without error")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("degradation took %v, deadline was %v", waited, rec.Deadline)
	}
	var rep *fault.Report
	if !errors.As(err, &rep) {
		t.Fatalf("error is %T (%v), want *fault.Report", err, err)
	}
	if rep.ID.Dst != 1 {
		t.Errorf("report blames node %d, want 1: %+v", rep.ID.Dst, rep)
	}
	if rep.Waited < rec.Deadline || rep.Attempts < 1 {
		t.Errorf("implausible report: %+v", rep)
	}
	if res == nil {
		t.Fatal("failed run returned no partial result")
	}
	eg.audit(t, "paused-node", res)
}

func TestFaultReliableNoPlanClean(t *testing.T) {
	// Reliable transport with no fault plan: payload ownership must stay
	// sound (sender retains the original, receiver gets a copy) and the
	// fault counters stay zero. Regression for a double-recycle of the
	// retained buffer.
	g := buildChain(t, 20, 3)
	res, err := Run(g, Options{Workers: 2, Recovery: fault.DefaultRecovery()})
	if err != nil {
		t.Fatal(err)
	}
	if got := chainValue(res, 19, 3); got != 20 {
		t.Errorf("final value = %d, want 20", got)
	}
	if res.Messages != 19 || res.Fault.Any() {
		t.Errorf("clean reliable run: messages %d, fault %+v", res.Messages, res.Fault)
	}
}

func TestFaultSpuriousRetransmitDeduplicated(t *testing.T) {
	// Every message is delayed far past the ack timeout, so the sender
	// retransmits messages the wire never lost. The late originals and the
	// spare copies all reach the receiver, which must drop every copy after
	// the first: the run stays exact with nothing injected but delay.
	plan := &fault.Plan{Seed: 2, Delay: 1, DelayBy: 20 * time.Millisecond}
	rec := &fault.Recovery{Timeout: 2 * time.Millisecond, Deadline: 10 * time.Second}
	g := buildChain(t, 8, 2)
	res, err := Run(g, Options{Workers: 1, Fault: plan, Recovery: rec})
	if err != nil {
		t.Fatal(err)
	}
	if got := chainValue(res, 7, 2); got != 8 {
		t.Errorf("final value = %d, want 8", got)
	}
	if res.Fault.Dropped != 0 || res.Fault.Duplicated != 0 {
		t.Fatalf("a delay-only plan injected drops or dups: %+v", res.Fault)
	}
	if res.Fault.Retransmits < 1 || res.Fault.DupDrops < 1 {
		t.Errorf("no spurious retransmit was sent and deduplicated: %+v", res.Fault)
	}
	auditWire(t, res, 7)
}

func TestFaultTraceEvents(t *testing.T) {
	plan := &fault.Plan{Seed: 3, Drop: 0.25}
	g := buildChain(t, 20, 3)
	tr := trace.New()
	res, err := Run(g, Options{Workers: 2, Fault: plan, Recovery: genRecovery(), Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	drops, retransmits := 0, 0
	for _, ev := range tr.Events() {
		if ev.Kind != ptg.KindFault {
			continue
		}
		switch ev.ID.Class {
		case "fault:drop":
			drops++
		case "fault:retransmit":
			retransmits++
		}
	}
	if drops != res.Fault.Dropped || retransmits != res.Fault.Retransmits {
		t.Errorf("trace saw %d drops / %d retransmits, counters say %d / %d",
			drops, retransmits, res.Fault.Dropped, res.Fault.Retransmits)
	}
	if drops == 0 {
		t.Error("no fault events traced")
	}
}

func TestFaultNumericsBitwiseStable(t *testing.T) {
	// The determinism contract: under a maskable fault schedule the
	// computed values are identical to a fault-free run, scheduler and
	// coalescing notwithstanding.
	value := func(opts Options) int {
		g := buildChain(t, 24, 3)
		res, err := Run(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		return chainValue(res, 23, 3)
	}
	clean := value(Options{Workers: 2})
	plan := &fault.Plan{Seed: 21, Drop: 0.2, Dup: 0.2, Delay: 0.2}
	for run := 0; run < 2; run++ {
		if got := value(Options{Workers: 2, Fault: plan, Recovery: genRecovery()}); got != clean {
			t.Fatalf("run %d diverged under faults: %d vs %d", run, got, clean)
		}
	}
}
