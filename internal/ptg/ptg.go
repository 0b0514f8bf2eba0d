// Package ptg is the parameterized-task-graph abstraction of this
// repository's PaRSEC analog. Algorithms (the base and CA stencils, see
// internal/core) are expressed as graphs of task instances with explicit
// dataflow dependencies; communication is implied by dependencies that cross
// node boundaries, exactly like PaRSEC's PTG/JDF representation where the
// runtime infers all messages from the task expressions.
//
// Two engines consume a Graph: internal/runtime executes it for real
// (concurrent workers per node, byte-serialized inter-node messages) and
// internal/desim replays it in virtual time against machine cost models.
// Task bodies exchange data only through per-node store slots the graph
// reserves at build time (see Env), so every flow is resolved before the
// graph runs.
//
// Layout and ordering contract: the built graph is flat, pointer-free
// data wherever it is per edge. Build stores every dependency as a 16-byte
// Edge (producer, consumer, transfer, payload size, all int32) in one array
// (compressed sparse row form), each Task's Deps being a capacity-clamped
// window, and keeps the order in which a task's dependencies were added,
// however calls for different consumers interleave. The Pack/Unpack
// closures a Dep may carry live in one per-graph transfer table with an
// entry only for the edges that have them; Graph.Dep reads an edge's back.
// Task IDs resolve through an open-addressing table of int32 task indices
// (see Graph.Lookup), which the Builder also uses to reject duplicates.
// The successor side lives in the graph's execution plan (see Plan):
// Plan.Out lists each producer's out-edges ordered by consumer index, then
// dependency index, one edge per dependency — a consumer with two deps on
// one producer appears twice.
// Engines release successors in that order, so it fixes their event
// sequence numbers and injection order; internal/core's golden graph test
// pins it.
package ptg

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
)

// TaskID names a task instance: a class (e.g. "jacobi") plus up to three
// integer parameters (tile row, tile column, step for the stencil graphs).
type TaskID struct {
	Class   string
	I, J, K int
}

func (id TaskID) String() string {
	return fmt.Sprintf("%s(%d,%d,%d)", id.Class, id.I, id.J, id.K)
}

// Kind classifies tasks for cost modeling and trace rendering. The paper's
// Figure 10 distinguishes boundary tasks (tiles that exchange data with
// remote nodes) from interior tasks.
type Kind uint8

const (
	KindInit Kind = iota
	KindInterior
	KindBoundary
	// KindComm labels communication-goroutine activity in traces (packing
	// and fan-out on the dedicated comm thread); graph tasks never carry it.
	KindComm
	// KindFault labels fault-injection and recovery activity in traces
	// (drops, duplicates, delays, retransmits, dedup, pauses); graph tasks
	// never carry it.
	KindFault
	NumKinds
)

var kindNames = [NumKinds]string{"init", "interior", "boundary", "comm", "fault"}

func (k Kind) String() string {
	if k >= NumKinds {
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// Env is the node-local execution environment handed to task bodies and
// Pack/Unpack closures by the real runtime. Bodies exchange data only
// through the node's private slots, which the graph reserves at build time
// (Builder.AllocSlot/AllocBufSlot) — the way PaRSEC resolves every flow
// when a task is created. Tasks of one node never see another node's slots
// (node isolation — the analog of distributed memory).
//
// Slot accesses carry no locking of their own: the runtime's scheduling
// edges (ready-queue handoff, send/inbox channels, pending-counter atomics)
// already order every producer before its consumer.
type Env interface {
	NodeID() int
	// PutSlot stores a write-once value in a general slot (persistent
	// state such as tile buffers). Reusing an occupied slot panics.
	PutSlot(slot int32, v any)
	// GetSlot returns a general slot's value without removing it.
	GetSlot(slot int32) any
	// PutBufSlot deposits a message payload in a buffer slot. Occupied
	// slots panic (a duplicated delivery or a dataflow bug). The slot owns
	// the payload's full capacity, not just its length: a deposit is always
	// a whole buffer, never a sub-slice of a wire buffer whose capacity
	// overlaps other payloads.
	PutBufSlot(slot int32, b []byte)
	// TakeBufSlot removes and returns a buffer slot's payload, panicking
	// when empty (consumption before production). The consumer takes the
	// ownership PutBufSlot describes: once it has read the payload it may
	// repack into the buffer up to its capacity, or recycle it.
	TakeBufSlot(slot int32) []byte
}

// CostHint carries the quantities the discrete-event simulator needs to
// price a task with the machine's kernel model. All counts are in grid
// points.
type CostHint struct {
	// Rows, Cols are the tile's interior extent (for working-set / cache
	// modeling).
	Rows, Cols int
	// Updates is the nominal tile update count (mb*nb) — subject to the
	// paper's kernel-adjustment ratio.
	Updates int
	// RedundantUpdates is the extra trapezoid work a CA boundary task
	// performs on ghost regions. The paper's ratio-tuned experiments
	// exclude it ("we simulate the kernel time without the extra
	// computation"); real-kernel runs include it.
	RedundantUpdates int
	// CopyPoints counts halo points packed/unpacked by this task (the
	// "extra copies in the body" behind the CA version's larger median
	// kernel time in Fig. 10).
	CopyPoints int
}

// Dep is the Builder's input for one dependency of a task. If the producer
// lives on a different node the dependency carries a payload of Bytes bytes
// and, when the graph is built with bodies, Pack/Unpack closures that
// serialize the value out of the producer node's store and deposit it into
// the consumer node's store. Build stores it as an Edge, its closures in the
// graph's transfer table.
type Dep struct {
	Bytes  int // payload size; 0 for pure-ordering local deps
	Pack   func(env Env) []byte
	Unpack func(env Env, data []byte)
}

// Edge is one stored dependency of a task: 16 bytes and no pointer. The
// Pack/Unpack closures of its Dep, if any, are in the graph's transfer
// table (see Graph.Dep).
type Edge struct {
	Producer int32 // task index
	consumer int32 // the dependent task's index, recorded by the Builder
	xfer     int32 // 1 + the edge's index in the transfer table; 0 without closures
	Bytes    int32 // payload size; 0 for pure-ordering local deps
}

// transfer is one transfer-table entry: the closures of an edge's Dep.
type transfer struct {
	pack   func(env Env) []byte
	unpack func(env Env, data []byte)
}

// Migration makes a task stealable across ranks of a distributed run: the
// exact sizes of its input state going out and its results coming back,
// which the gated steal mode prices. Graph.Hooks builds the code that
// moves the bytes. A task with a nil Mig never migrates.
type Migration struct {
	InBytes  int
	OutBytes int
}

// MigrationHooks move one task's state between ranks. PackIn and PackOut
// produce exactly Migration.InBytes and OutBytes bytes.
type MigrationHooks struct {
	// PackIn serializes the task's input state (tile contents plus every
	// already-delivered input payload, which it consumes) from the home
	// store. Runs on the victim rank before the task leaves.
	PackIn func(env Env) []byte
	// Deposit installs a PackIn payload into the thief rank's store for the
	// task's node, creating state as needed, so Run can execute unchanged.
	Deposit func(env Env, data []byte)
	// PackOut serializes (and consumes) everything Run produced on the
	// thief: the post-step tile contents and every output payload.
	PackOut func(env Env) []byte
	// Commit installs a PackOut payload into the home store — after it the
	// store is bitwise-identical to a local execution's, and the task's
	// successors may be released.
	Commit func(env Env, data []byte)
}

// ForcedSteal pins one migratable task (by graph index) to a thief rank of
// a distributed run: once ready, the task executes there instead of on its
// home rank. Every rank follows the same script, which is what makes
// migration deterministic.
type ForcedSteal struct {
	Task  int32
	Thief int
}

// PinForced validates a forced-steal script against the graph, whose nodes
// rankOf places on ranks ranks, and indexes it by task: every task must
// exist, be migratable and move to another rank, at most once.
func (g *Graph) PinForced(force []ForcedSteal, ranks int, rankOf func(node int) int) (map[int32]int, error) {
	pins := make(map[int32]int, len(force))
	for _, f := range force {
		if f.Task < 0 || int(f.Task) >= len(g.Tasks) {
			return nil, fmt.Errorf("ptg: forced steal task %d out of range", f.Task)
		}
		t := &g.Tasks[f.Task]
		switch _, dup := pins[f.Task]; {
		case t.Mig == nil:
			return nil, fmt.Errorf("ptg: forced steal task %v is not migratable", t.ID)
		case f.Thief < 0 || f.Thief >= ranks:
			return nil, fmt.Errorf("ptg: forced steal thief rank %d out of range [0,%d)", f.Thief, ranks)
		case f.Thief == rankOf(int(t.Node)):
			return nil, fmt.Errorf("ptg: forced steal task %v already lives on rank %d", t.ID, f.Thief)
		case dup:
			return nil, fmt.Errorf("ptg: task %v forced twice", t.ID)
		}
		pins[f.Task] = f.Thief
	}
	return pins, nil
}

// Task is one node of the graph.
type Task struct {
	ID       TaskID
	Node     int32
	Kind     Kind
	Priority int32 // higher runs earlier when schedulers must choose
	// Epoch is the task's logical exchange epoch (the iteration index for
	// the stencil graphs). Cross-node payloads produced by tasks of one
	// node in the same epoch toward one destination may be coalesced into
	// a single halo bundle (see Graph.Bundles); graphs that leave Epoch at
	// zero everywhere simply do not admit a bundle plan.
	Epoch int32
	Hint  CostHint
	Deps  []Edge
	Run   func(env Env)
	// Mig, when non-nil, lets a distributed run migrate this task to
	// another rank (see Migration). Kept out of the hot path: engines only
	// consult it on the steal protocol's slow path.
	Mig *Migration
}

// Graph is an immutable task graph over a fixed set of nodes.
type Graph struct {
	NumNodes int
	Tasks    []Task
	// NodeSlots and NodeBufSlots are the per-node counts of general and
	// buffer slots reserved at build time (nil when the graph reserves
	// none). Engines size their stores from these.
	NodeSlots    []int
	NodeBufSlots []int
	// Hooks returns the migration hooks of a task whose Mig is non-nil;
	// engines call it only once a steal is granted. Nil on graphs without
	// bodies.
	Hooks     func(t *Task) MigrationHooks
	index     taskIndex
	deps      []Edge // the backing of every task's Deps window
	transfers []transfer
	stats     *Stats
	plan      *Plan // the point-to-point plan, which holds the out-edges
	// The CoalesceStep plan, or why it deadlocks, resolved once (see Plan).
	bundleOnce sync.Once
	bundle     *Plan
	bundleErr  error
}

// Lookup returns the index of a task by ID.
func (g *Graph) Lookup(id TaskID) (int32, bool) {
	return g.index.lookup(g.Tasks, id)
}

// Dep returns the Dep that recorded edge e: its payload size and its
// Pack/Unpack closures (nil when the edge carries none). Engines read an
// edge's closures through it.
func (g *Graph) Dep(e Edge) Dep {
	d := Dep{Bytes: int(e.Bytes)}
	if e.xfer > 0 {
		t := &g.transfers[e.xfer-1]
		d.Pack, d.Unpack = t.pack, t.unpack
	}
	return d
}

// Roots returns the indices of tasks with no dependencies.
func (g *Graph) Roots() []int32 {
	var out []int32
	for i := range g.Tasks {
		if len(g.Tasks[i].Deps) == 0 {
			out = append(out, int32(i))
		}
	}
	return out
}

// CrossNodeDeps counts dependencies whose producer and consumer live on
// different nodes, and the total payload bytes they carry, from the stats
// computed at Build time.
func (g *Graph) CrossNodeDeps() (count, bytes int) {
	return g.stats.CrossDeps, g.stats.CrossBytes
}

// Builder accumulates tasks and dependencies and validates the result.
type Builder struct {
	numNodes  int
	tasks     []Task
	index     taskIndex
	deps      []Edge // every recorded dependency, in insertion order
	transfers []transfer
	slots     []int
	bufSlots  []int
}

// NewBuilder creates a builder for a graph over numNodes nodes.
func NewBuilder(numNodes int) *Builder {
	return &Builder{numNodes: numNodes}
}

// Grow reserves room for tasks more tasks and deps more dependencies, so a
// caller that knows its graph's size builds it in a fixed number of
// allocations.
func (b *Builder) Grow(tasks, deps int) {
	b.tasks = grow(b.tasks, tasks)
	b.deps = grow(b.deps, deps)
	b.index.reserve(b.tasks, len(b.tasks)+tasks)
}

// grow is slices.Grow in at most one allocation: under the race detector
// slices.Grow's append(s, make(...)...) also allocates the n-element
// temporary, doubling what a pre-sized build allocates.
func grow[T any](s []T, n int) []T {
	if n <= cap(s)-len(s) {
		return s
	}
	out := make([]T, len(s), len(s)+n)
	copy(out, s)
	return out
}

// AddTask registers a task instance and returns its index. The Deps field
// of the argument is ignored; use AddDep or AddDepIdx.
func (b *Builder) AddTask(t Task) (int32, error) {
	if t.Node < 0 || int(t.Node) >= b.numNodes {
		return 0, fmt.Errorf("ptg: task %v on invalid node %d (have %d)", t.ID, t.Node, b.numNodes)
	}
	if t.Kind >= NumKinds {
		return 0, fmt.Errorf("ptg: task %v has invalid kind %v", t.ID, t.Kind)
	}
	idx := int32(len(b.tasks))
	if !b.index.insert(b.tasks, t.ID, idx) {
		return 0, fmt.Errorf("ptg: duplicate task %v", t.ID)
	}
	t.Deps = nil
	b.tasks = append(b.tasks, t)
	return idx, nil
}

// AllocSlot reserves a general store slot on a node and returns its index
// (see Env).
func (b *Builder) AllocSlot(node int32) int32 {
	if b.slots == nil {
		b.slots = make([]int, b.numNodes)
	}
	s := int32(b.slots[node])
	b.slots[node]++
	return s
}

// AllocBufSlot reserves a message-payload buffer slot on a node and returns
// its index.
func (b *Builder) AllocBufSlot(node int32) int32 {
	if b.bufSlots == nil {
		b.bufSlots = make([]int, b.numNodes)
	}
	s := int32(b.bufSlots[node])
	b.bufSlots[node]++
	return s
}

// AddDep records that consumer depends on producer, naming both by ID; see
// AddDepIdx.
func (b *Builder) AddDep(consumer, producer TaskID, d Dep) error {
	ci, ok := b.index.lookup(b.tasks, consumer)
	if !ok {
		return fmt.Errorf("ptg: unknown consumer %v", consumer)
	}
	pi, ok := b.index.lookup(b.tasks, producer)
	if !ok {
		return fmt.Errorf("ptg: unknown producer %v", producer)
	}
	return b.AddDepIdx(ci, pi, d)
}

// AddDepIdx records that task consumer depends on task producer, both given
// by the index AddTask returned. The payload size must fit an Edge's int32,
// and cross-node dependencies must carry a positive one; Pack/Unpack may be
// nil when the graph is cost-only (no bodies).
func (b *Builder) AddDepIdx(consumer, producer int32, d Dep) error {
	if n := int32(len(b.tasks)); consumer < 0 || consumer >= n || producer < 0 || producer >= n {
		return fmt.Errorf("ptg: dependency %d -> %d out of range (have %d tasks)", producer, consumer, n)
	}
	if d.Bytes < 0 || d.Bytes > math.MaxInt32 {
		return fmt.Errorf("ptg: dep %v -> %v payload of %d bytes outside [0, %d]",
			b.tasks[producer].ID, b.tasks[consumer].ID, d.Bytes, math.MaxInt32)
	}
	if b.tasks[consumer].Node != b.tasks[producer].Node && d.Bytes == 0 {
		return fmt.Errorf("ptg: cross-node dep %v -> %v needs payload bytes",
			b.tasks[producer].ID, b.tasks[consumer].ID)
	}
	e := Edge{Producer: producer, consumer: consumer, Bytes: int32(d.Bytes)}
	if d.Pack != nil || d.Unpack != nil {
		b.transfers = append(b.transfers, transfer{pack: d.Pack, unpack: d.Unpack})
		e.xfer = int32(len(b.transfers))
	}
	b.deps = append(b.deps, e)
	return nil
}

// Build lays the dependencies and out-edges out in CSR form (see the
// package comment), validates acyclicity and computes the graph's Stats in
// one topological pass, and freezes the graph.
func (b *Builder) Build() (*Graph, error) {
	tasks, deps := b.tasks, b.deps
	// Deps: each task's window is its run of the consumer-sorted array.
	// Builders adding dependencies in consumer order (core's) skip the sort,
	// which is stable, so every consumer keeps its insertion order.
	byConsumer := func(x, y Edge) int { return cmp.Compare(x.consumer, y.consumer) }
	if !slices.IsSortedFunc(deps, byConsumer) {
		slices.SortStableFunc(deps, byConsumer)
	}
	for lo := 0; lo < len(deps); {
		c, hi := deps[lo].consumer, lo+1
		for hi < len(deps) && deps[hi].consumer == c {
			hi++
		}
		tasks[c].Deps = deps[lo:hi:hi]
		lo = hi
	}
	g := &Graph{
		NumNodes: b.numNodes, Tasks: tasks, index: b.index, deps: deps, transfers: b.transfers,
		NodeSlots: b.slots, NodeBufSlots: b.bufSlots,
	}
	g.plan = g.pointToPoint()
	// Stats are computed eagerly, by the same pass that checks for cycles,
	// and readers share the memo.
	var err error
	if g.stats, err = g.analyze(); err != nil {
		return nil, err
	}
	*b = Builder{numNodes: b.numNodes, slots: b.slots, bufSlots: b.bufSlots}
	return g, nil
}

// Stats summarizes a graph for logging and tests.
type Stats struct {
	Tasks, Deps       int
	CrossDeps         int
	CrossBytes        int
	TasksPerNodeMin   int
	TasksPerNodeMax   int
	KindCounts        map[string]int
	CriticalPathTasks int
}

// ComputeStats returns the graph's summary statistics, including the length
// (in tasks) of the longest dependency chain. Stats are computed eagerly at
// Build() and memoized. The returned value owns its KindCounts map, so
// callers may mutate it freely.
func (g *Graph) ComputeStats() Stats {
	s := *g.stats
	s.KindCounts = maps.Clone(s.KindCounts)
	return s
}

// analyze is the graph's one topological pass (Kahn's algorithm over the
// out-edges): it rejects dependency cycles and computes Stats, the critical
// path depth included, along the way.
func (g *Graph) analyze() (*Stats, error) {
	n := len(g.Tasks)
	s := Stats{Tasks: n}
	var kinds [NumKinds]int
	perNode := make([]int, g.NumNodes)
	indeg := make([]int32, n)
	for i := range g.Tasks {
		t := &g.Tasks[i]
		s.Deps += len(t.Deps)
		perNode[t.Node]++
		kinds[t.Kind]++
		for _, d := range t.Deps {
			if g.Tasks[d.Producer].Node != t.Node {
				s.CrossDeps++
				s.CrossBytes += int(d.Bytes)
			}
		}
		indeg[i] = int32(len(t.Deps))
	}
	// depth[i] is the longest chain ending at task i; queue doubles as the
	// visit order, so everything before head has been processed.
	depth := make([]int32, n)
	queue := make([]int32, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(i))
			depth[i] = 1
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		s.CriticalPathTasks = max(s.CriticalPathTasks, int(depth[u]))
		for _, e := range g.plan.Out(u) {
			v := e.Consumer
			depth[v] = max(depth[v], depth[u]+1)
			if indeg[v]--; indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(queue) != n {
		return nil, fmt.Errorf("ptg: graph has a dependency cycle (%d of %d tasks reachable)", len(queue), n)
	}
	if g.NumNodes > 0 {
		s.TasksPerNodeMin, s.TasksPerNodeMax = slices.Min(perNode), slices.Max(perNode)
	}
	s.KindCounts = make(map[string]int)
	for k, c := range kinds {
		if c > 0 {
			s.KindCounts[Kind(k).String()] = c
		}
	}
	return &s, nil
}
