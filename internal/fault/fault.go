// Package fault is the deterministic fault-injection and recovery layer of
// the runtime: a seedable Plan describes which wire messages are dropped,
// duplicated, delayed or reordered, which cores run transiently slow, where
// a communication goroutine stalls and when a whole node pauses; a Recovery
// policy describes how the transport masks the message-level faults
// (sequence numbers, acknowledgements, retransmit with exponential backoff,
// receiver-side dedup) and when a run should stop waiting and fail fast
// with a structured Report.
//
// Every message-level decision is a pure function of the plan's seed and
// the message's graph identity (source node, destination node, consumer
// task/dependency or bundle id) plus the delivery attempt — never of
// arrival order or wall-clock time. Every run of the same graph and plan
// therefore injects the byte-identical fault schedule, whatever the
// worker count, scheduling or transport, which is what lets the
// determinism suite prove that recovery masks every schedule without
// perturbing numerics. The time-domain faults (slow cores, comm stall,
// node pause) are inherently timing-shaped; they perturb performance,
// never data.
package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// MsgID is the schedule-independent identity of one wire transfer: the
// consumer task and dependency index for a point-to-point message, or the
// 1-based bundle id for a coalesced halo bundle (Task/Dep zero). The
// runtime builds identities with EdgeMsgID and BundleMsgID from the
// graph's ptg.Plan, so the identity — and every fault decision keyed on
// it — is the same in every run of that graph.
type MsgID struct {
	Src, Dst  int32
	Task, Dep int32
	Bundle    int32
}

// EdgeMsgID is the identity of the point-to-point transfer of consumer
// task's dependency dep.
func EdgeMsgID(src, dst, task, dep int32) MsgID {
	return MsgID{Src: src, Dst: dst, Task: task, Dep: dep}
}

// BundleMsgID is the identity of the message carrying bundle bi of an
// execution plan (an index into ptg.Plan.Bundles). Bundle ids are the index
// plus one, so a zero Bundle marks a point-to-point transfer; BundleIndex
// inverts the numbering.
func BundleMsgID(src, dst, bi int32) MsgID {
	return MsgID{Src: src, Dst: dst, Bundle: bi + 1}
}

// BundleIndex is the plan index of the bundle the identity names, or -1
// for a point-to-point transfer.
func (id MsgID) BundleIndex() int32 { return id.Bundle - 1 }

func (id MsgID) String() string {
	if id.Bundle != 0 {
		return fmt.Sprintf("bundle %d (%d->%d)", id.Bundle, id.Src, id.Dst)
	}
	return fmt.Sprintf("msg task=%d dep=%d (%d->%d)", id.Task, id.Dep, id.Src, id.Dst)
}

// SlowCore makes one compute core transiently slow: the first Tasks tasks
// that core executes each take Extra longer (a sleep in the worker loop).
type SlowCore struct {
	Node, Core int32
	Extra      time.Duration
	Tasks      int
}

// CommStall injects one stall episode into a node's communication
// goroutine: before handling its (After+1)-th outgoing wire message the
// goroutine blocks for Stall.
type CommStall struct {
	Node  int32
	After int
	Stall time.Duration
}

// NodePause suspends a whole node — workers and communication goroutine —
// for Pause once the node has completed AfterTasks tasks. A pause longer
// than the recovery deadline makes the run fail fast with a Report instead
// of hanging (graceful degradation).
type NodePause struct {
	Node       int32
	AfterTasks int
	Pause      time.Duration
}

// Plan is a deterministic, seedable fault schedule. The zero value injects
// nothing; all probabilities are per message (Drop is per delivery
// attempt, so a retransmitted message rolls a fresh, independent and
// equally deterministic decision).
type Plan struct {
	// Seed keys every pseudo-random decision. Two runs of the same graph
	// with the same seed inject exactly the same faults, on either engine.
	Seed uint64

	// Drop is the probability that a delivery attempt is lost on the wire
	// (the sender pays injection, the receiver sees nothing).
	Drop float64
	// Dup is the probability that a delivered attempt arrives twice.
	Dup float64
	// Delay is the probability that a delivered attempt arrives DelayBy
	// late.
	Delay float64
	// DelayBy is the added latency of a delayed message (default 200us).
	DelayBy time.Duration
	// Reorder is the probability that a message is deferred by ReorderBy,
	// letting later traffic on the same lane overtake it — differential
	// delay is how the plan scrambles delivery order deterministically.
	Reorder float64
	// ReorderBy is the deferral of a reordered message (default 100us).
	ReorderBy time.Duration

	// SlowCores, CommStalls and Pauses are the time-domain faults.
	SlowCores  []SlowCore
	CommStalls []CommStall
	Pauses     []NodePause
}

// Default fault magnitudes.
const (
	DefaultDelayBy   = 200 * time.Microsecond
	DefaultReorderBy = 100 * time.Microsecond
)

// Active reports whether the plan injects anything at all.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.Drop > 0 || p.Dup > 0 || p.Delay > 0 || p.Reorder > 0 ||
		len(p.SlowCores) > 0 || len(p.CommStalls) > 0 || len(p.Pauses) > 0
}

// NeedsRecovery reports whether the plan injects faults that only a
// reliable transport can mask: drops need retransmit, duplicates need
// receiver dedup, and a paused node needs the fail-fast deadline.
func (p *Plan) NeedsRecovery() bool {
	if p == nil {
		return false
	}
	return p.Drop > 0 || p.Dup > 0 || len(p.Pauses) > 0
}

// Validate rejects out-of-range probabilities and negative durations.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, pr := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"dup", p.Dup}, {"delay", p.Delay}, {"reorder", p.Reorder}} {
		if !(pr.v >= 0 && pr.v <= 1) { // written so NaN fails too
			return fmt.Errorf("fault: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.Drop >= 1 {
		return fmt.Errorf("fault: drop probability 1 makes every retransmit fail; use < 1")
	}
	if p.DelayBy < 0 || p.ReorderBy < 0 {
		return fmt.Errorf("fault: negative delay")
	}
	for _, s := range p.SlowCores {
		if s.Extra < 0 || s.Tasks < 0 {
			return fmt.Errorf("fault: negative slow-core window")
		}
	}
	for _, s := range p.CommStalls {
		if s.Stall < 0 || s.After < 0 {
			return fmt.Errorf("fault: negative comm stall")
		}
	}
	for _, s := range p.Pauses {
		if s.Pause < 0 || s.AfterTasks < 0 {
			return fmt.Errorf("fault: negative node pause")
		}
	}
	return nil
}

// Decision salts: each fault class draws from an independent stream.
const (
	saltDrop uint64 = 0x9e3779b97f4a7c15
	saltDup  uint64 = 0xd1b54a32d192ed03
	saltDel  uint64 = 0x8bb84b93962eacc9
	saltOrd  uint64 = 0x2545f4914f6cdd1d
)

// mix64 is the splitmix64 finalizer — a full-avalanche 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit maps (seed, id, attempt, salt) to a uniform float64 in [0,1).
func (p *Plan) unit(id MsgID, attempt int32, salt uint64) float64 {
	h := mix64(p.Seed ^ salt)
	h = mix64(h ^ uint64(uint32(id.Src))<<32 ^ uint64(uint32(id.Dst)))
	h = mix64(h ^ uint64(uint32(id.Task))<<32 ^ uint64(uint32(id.Dep)))
	h = mix64(h ^ uint64(uint32(id.Bundle))<<32 ^ uint64(uint32(attempt)))
	return float64(h>>11) / float64(1<<53)
}

// ShouldDrop decides whether delivery attempt `attempt` (0 = the original
// send) of the message is lost on the wire.
func (p *Plan) ShouldDrop(id MsgID, attempt int32) bool {
	return p != nil && p.Drop > 0 && p.unit(id, attempt, saltDrop) < p.Drop
}

// ShouldDup decides whether a delivered attempt arrives twice.
func (p *Plan) ShouldDup(id MsgID, attempt int32) bool {
	return p != nil && p.Dup > 0 && p.unit(id, attempt, saltDup) < p.Dup
}

// DelayOf returns the extra latency injected into a delivered attempt:
// the sum of the delay fault (if drawn) and the reorder deferral (if
// drawn). Zero means the message travels fault-free.
func (p *Plan) DelayOf(id MsgID, attempt int32) time.Duration {
	if p == nil {
		return 0
	}
	var d time.Duration
	if p.Delay > 0 && p.unit(id, attempt, saltDel) < p.Delay {
		if p.DelayBy > 0 {
			d += p.DelayBy
		} else {
			d += DefaultDelayBy
		}
	}
	if p.Reorder > 0 && p.unit(id, attempt, saltOrd) < p.Reorder {
		if p.ReorderBy > 0 {
			d += p.ReorderBy
		} else {
			d += DefaultReorderBy
		}
	}
	return d
}

// CoreExtra returns the added execution time of the taskSeq-th task (0-based)
// that core of node runs, per the plan's slow-core windows.
func (p *Plan) CoreExtra(node, core int32, taskSeq int) time.Duration {
	if p == nil {
		return 0
	}
	var d time.Duration
	for _, s := range p.SlowCores {
		if s.Node == node && s.Core == core && taskSeq < s.Tasks {
			d += s.Extra
		}
	}
	return d
}

// StallAt returns the stall injected before node's nth outgoing wire
// message (0-based). Each CommStall entry fires exactly once.
func (p *Plan) StallAt(node int32, nth int) time.Duration {
	if p == nil {
		return 0
	}
	var d time.Duration
	for _, s := range p.CommStalls {
		if s.Node == node && s.After == nth {
			d += s.Stall
		}
	}
	return d
}

// PauseAt returns the pause injected when node completes its nth task
// (1-based count reaching AfterTasks).
func (p *Plan) PauseAt(node int32, completed int) time.Duration {
	if p == nil {
		return 0
	}
	var d time.Duration
	for _, s := range p.Pauses {
		if s.Node == node && s.AfterTasks == completed {
			d += s.Pause
		}
	}
	return d
}

// Stats counts injected faults and recovery work. The injection counters
// (Dropped, Duplicated, Delayed) are deterministic for a given graph and
// plan on either engine; the recovery counters are deterministic whenever
// the recovery timeout comfortably exceeds real delivery latency (no
// spurious retransmits), which the stress suite pins.
type Stats struct {
	// Injected faults.
	Dropped    int // delivery attempts lost on the wire
	Duplicated int // attempts delivered twice
	Delayed    int // attempts delivered late (delay and/or reorder)
	// Recovery work.
	Retransmits int // attempts resent after an ack timeout
	DupDrops    int // deliveries suppressed by receiver-side dedup
	Timeouts    int // ack-timeout expirations (one per retransmit or deadline failure)
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Dropped += o.Dropped
	s.Duplicated += o.Duplicated
	s.Delayed += o.Delayed
	s.Retransmits += o.Retransmits
	s.DupDrops += o.DupDrops
	s.Timeouts += o.Timeouts
}

// Any reports whether any counter is nonzero.
func (s Stats) Any() bool { return s != Stats{} }

func (s Stats) String() string {
	return fmt.Sprintf("faults(drop=%d dup=%d delay=%d retransmit=%d dupdrop=%d timeout=%d)",
		s.Dropped, s.Duplicated, s.Delayed, s.Retransmits, s.DupDrops, s.Timeouts)
}

// Recovery is the reliable-delivery policy that masks message-level
// faults: every sequenced message is retained by the sender until acked;
// an unacked message is retransmitted after Timeout, then Timeout*Backoff,
// then Timeout*Backoff^2 ... capped at MaxTimeout; a message still unacked
// Deadline after its first send fails the run fast with a Report.
type Recovery struct {
	// Timeout is the initial ack timeout (default 25ms).
	Timeout time.Duration
	// Backoff multiplies the timeout per retransmit (default 2).
	Backoff float64
	// MaxTimeout caps the backed-off timeout (default 250ms).
	MaxTimeout time.Duration
	// Deadline is the total time a message may stay unacked before the
	// run degrades gracefully — fails fast with a Report instead of
	// hanging on a dead or paused node (default 5s).
	Deadline time.Duration
}

// Recovery defaults.
const (
	DefaultTimeout    = 25 * time.Millisecond
	DefaultBackoff    = 2.0
	DefaultMaxTimeout = 250 * time.Millisecond
	DefaultDeadline   = 5 * time.Second
)

// DefaultRecovery returns the default reliable-delivery policy.
func DefaultRecovery() *Recovery {
	return &Recovery{
		Timeout:    DefaultTimeout,
		Backoff:    DefaultBackoff,
		MaxTimeout: DefaultMaxTimeout,
		Deadline:   DefaultDeadline,
	}
}

// WithDefaults fills zero fields with the default policy values.
func (r Recovery) WithDefaults() Recovery {
	if r.Timeout <= 0 {
		r.Timeout = DefaultTimeout
	}
	if r.Backoff < 1 {
		r.Backoff = DefaultBackoff
	}
	if r.MaxTimeout <= 0 {
		r.MaxTimeout = DefaultMaxTimeout
	}
	if r.MaxTimeout < r.Timeout {
		r.MaxTimeout = r.Timeout
	}
	if r.Deadline <= 0 {
		r.Deadline = DefaultDeadline
	}
	return r
}

// TimeoutAt returns the ack timeout armed after delivery attempt
// `attempt` (0 = the original send): Timeout*Backoff^attempt, capped at
// MaxTimeout. Call on a policy with defaults filled.
func (r Recovery) TimeoutAt(attempt int32) time.Duration {
	d := float64(r.Timeout)
	for i := int32(0); i < attempt; i++ {
		d *= r.Backoff
		if d >= float64(r.MaxTimeout) {
			return r.MaxTimeout
		}
	}
	if t := time.Duration(d); t < r.MaxTimeout {
		return t
	}
	return r.MaxTimeout
}

// Report is the structured outcome of graceful degradation: a message
// stayed unacknowledged past the recovery deadline (a node died, paused
// past the deadline, or the fault plan outran the retransmit budget), so
// the run stopped instead of hanging. It implements error; unwrap it with
// errors.As.
type Report struct {
	// ID identifies the oldest unacknowledged message; its Dst is the
	// unresponsive node.
	ID MsgID
	// Seq is the message's lane sequence number.
	Seq uint64
	// Attempts is the number of delivery attempts made (1 = only the
	// original send).
	Attempts int32
	// Waited is how long the sender waited past the first send.
	Waited time.Duration
	// Deadline is the policy deadline that expired.
	Deadline time.Duration
	// Stats snapshots the run's fault counters at failure time.
	Stats Stats
	// PeerLost marks a transport-level failure of a distributed run: the
	// connection to rank DeadRank stayed down past the recovery deadline
	// (the message fields above are zero — no single message is to blame,
	// the peer process is gone).
	PeerLost bool
	DeadRank int
}

func (r *Report) Error() string {
	if r.PeerLost {
		return fmt.Sprintf("fault: rank %d lost: connection down past deadline %v (waited %v); %v",
			r.DeadRank, r.Deadline, r.Waited.Round(time.Millisecond), r.Stats)
	}
	return fmt.Sprintf("fault: node %d unresponsive: %v unacked after %v (%d attempts, deadline %v); %v",
		r.ID.Dst, r.ID, r.Waited.Round(time.Millisecond), r.Attempts, r.Deadline, r.Stats)
}

// --- plan spec parsing (the -fault flag) ---

// SpecSyntax documents the ParsePlan grammar, for flag help.
const SpecSyntax = "drop=P,dup=P,delay=P[,delayby=DUR],reorder=P[,reorderby=DUR],seed=N" +
	",slow=NODE:CORE:EXTRA:TASKS,stall=NODE:AFTER:DUR,pause=NODE:AFTER:DUR"

// ParsePlan parses a fault-plan spec string like
//
//	drop=0.01,dup=0.02,delay=0.05,delayby=200us,seed=7,pause=2:10:50ms
//
// Keys: drop, dup, delay, reorder (probabilities in [0,1]); delayby,
// reorderby (durations); seed (uint64); slow=NODE:CORE:EXTRA:TASKS,
// stall=NODE:AFTER:DUR and pause=NODE:AFTER:DUR (repeatable). An empty
// spec (or "off"/"none") returns nil — no faults.
func ParsePlan(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" || spec == "none" {
		return nil, nil
	}
	p := &Plan{}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("fault: bad spec element %q (want key=value; syntax: %s)", kv, SpecSyntax)
		}
		var err error
		switch k {
		case "drop":
			p.Drop, err = strconv.ParseFloat(v, 64)
		case "dup":
			p.Dup, err = strconv.ParseFloat(v, 64)
		case "delay":
			p.Delay, err = strconv.ParseFloat(v, 64)
		case "reorder":
			p.Reorder, err = strconv.ParseFloat(v, 64)
		case "delayby":
			p.DelayBy, err = time.ParseDuration(v)
		case "reorderby":
			p.ReorderBy, err = time.ParseDuration(v)
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 0, 64)
		case "slow":
			var s SlowCore
			s, err = parseSlow(v)
			p.SlowCores = append(p.SlowCores, s)
		case "stall":
			var n int32
			var after int
			var d time.Duration
			n, after, d, err = parseNodeEpisode(k, v)
			p.CommStalls = append(p.CommStalls, CommStall{Node: n, After: after, Stall: d})
		case "pause":
			var n int32
			var after int
			var d time.Duration
			n, after, d, err = parseNodeEpisode(k, v)
			p.Pauses = append(p.Pauses, NodePause{Node: n, AfterTasks: after, Pause: d})
		default:
			return nil, fmt.Errorf("fault: unknown spec key %q (syntax: %s)", k, SpecSyntax)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: bad %s value %q: %v", k, v, err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseSlow(v string) (SlowCore, error) {
	parts := strings.Split(v, ":")
	if len(parts) != 4 {
		return SlowCore{}, fmt.Errorf("want NODE:CORE:EXTRA:TASKS")
	}
	node, err := strconv.Atoi(parts[0])
	if err != nil {
		return SlowCore{}, err
	}
	core, err := strconv.Atoi(parts[1])
	if err != nil {
		return SlowCore{}, err
	}
	extra, err := time.ParseDuration(parts[2])
	if err != nil {
		return SlowCore{}, err
	}
	tasks, err := strconv.Atoi(parts[3])
	if err != nil {
		return SlowCore{}, err
	}
	return SlowCore{Node: int32(node), Core: int32(core), Extra: extra, Tasks: tasks}, nil
}

func parseNodeEpisode(key, v string) (int32, int, time.Duration, error) {
	parts := strings.Split(v, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("want NODE:AFTER:DUR")
	}
	node, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, 0, err
	}
	after, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, 0, err
	}
	d, err := time.ParseDuration(parts[2])
	if err != nil {
		return 0, 0, 0, err
	}
	return int32(node), after, d, nil
}

// String renders the plan back into (canonical) spec syntax.
func (p *Plan) String() string {
	if p == nil {
		return "off"
	}
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("drop", p.Drop)
	add("dup", p.Dup)
	add("delay", p.Delay)
	if p.DelayBy > 0 {
		parts = append(parts, "delayby="+p.DelayBy.String())
	}
	add("reorder", p.Reorder)
	if p.ReorderBy > 0 {
		parts = append(parts, "reorderby="+p.ReorderBy.String())
	}
	if p.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatUint(p.Seed, 10))
	}
	for _, s := range p.SlowCores {
		parts = append(parts, fmt.Sprintf("slow=%d:%d:%v:%d", s.Node, s.Core, s.Extra, s.Tasks))
	}
	for _, s := range p.CommStalls {
		parts = append(parts, fmt.Sprintf("stall=%d:%d:%v", s.Node, s.After, s.Stall))
	}
	for _, s := range p.Pauses {
		parts = append(parts, fmt.Sprintf("pause=%d:%d:%v", s.Node, s.AfterTasks, s.Pause))
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, ",")
}
