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
// Layout and ordering contract: Build stores all Deps in one array and all
// Succs in another (compressed sparse row form), each Task's being a
// capacity-clamped window. Task.Deps keeps the order in which the task's
// dependencies were added, however calls for different consumers
// interleave; Task.Succs lists each consumer once, in increasing task index
// (engines scan all matching Deps per entry). Engines rely on this order
// for determinism; internal/core's golden graph test pins it.
package ptg

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
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
	// KindInner and KindBorder label the products of the inner/border
	// splitting transform (see Transform and core's split pass): an inner
	// task updates the part of a tile that needs no freshly arrived halo
	// data — it can run while messages are in flight — while a border task
	// is the thin strip gated on one halo arrival. They appear after
	// KindFault so trace CSVs written before the transform existed keep
	// their kind encoding.
	KindInner
	KindBorder
	NumKinds
)

var kindNames = [NumKinds]string{"init", "interior", "boundary", "comm", "fault", "inner", "border"}

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
	// slots panic (a duplicated delivery or a dataflow bug).
	PutBufSlot(slot int32, b []byte)
	// TakeBufSlot removes and returns a buffer slot's payload, panicking
	// when empty (consumption before production).
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

// Dep is one input dependency of a task. If the producer lives on a
// different node the dependency carries a payload of Bytes bytes and, when
// the graph is built with bodies, Pack/Unpack closures that serialize the
// value out of the producer node's store and deposit it into the consumer
// node's store.
type Dep struct {
	Producer int32 // task index
	consumer int32 // the dependent task's index, recorded by the Builder
	Bytes    int   // payload size; 0 for pure-ordering local deps
	Pack     func(env Env) []byte
	Unpack   func(env Env, data []byte)
}

// Migration makes a task stealable across ranks of a distributed run: the
// exact sizes of its input state going out and its results coming back,
// which both engines price identically. Graph.Hooks builds the code that
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
	Deps  []Dep
	Succs []int32 // consumer task indices, filled by Build
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
	Hooks func(t *Task) MigrationHooks
	index map[TaskID]int32
	stats *Stats
}

// Lookup returns the index of a task by ID.
func (g *Graph) Lookup(id TaskID) (int32, bool) {
	i, ok := g.index[id]
	return i, ok
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
	numNodes int
	tasks    []Task
	index    map[TaskID]int32
	deps     []Dep // every recorded dependency, in insertion order
	slots    []int
	bufSlots []int
}

// NewBuilder creates a builder for a graph over numNodes nodes.
func NewBuilder(numNodes int) *Builder {
	return &Builder{numNodes: numNodes, index: make(map[TaskID]int32)}
}

// Grow reserves room for tasks more tasks and deps more dependencies, so a
// caller that knows its graph's size builds it in a fixed number of
// allocations.
func (b *Builder) Grow(tasks, deps int) {
	b.tasks = slices.Grow(b.tasks, tasks)
	b.deps = slices.Grow(b.deps, deps)
	if len(b.index) == 0 {
		b.index = make(map[TaskID]int32, tasks)
	}
}

// AddTask registers a task instance and returns its index. The Deps and
// Succs fields of the argument are ignored; use AddDep or AddDepIdx.
func (b *Builder) AddTask(t Task) (int32, error) {
	if _, dup := b.index[t.ID]; dup {
		return 0, fmt.Errorf("ptg: duplicate task %v", t.ID)
	}
	if t.Node < 0 || int(t.Node) >= b.numNodes {
		return 0, fmt.Errorf("ptg: task %v on invalid node %d (have %d)", t.ID, t.Node, b.numNodes)
	}
	t.Deps = nil
	t.Succs = nil
	idx := int32(len(b.tasks))
	b.tasks = append(b.tasks, t)
	b.index[t.ID] = idx
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

// PresetSlots seeds the builder's per-node slot counters from an existing
// graph's NodeSlots/NodeBufSlots. Rewrite passes (see Transform) reuse the
// original graph's task bodies and Pack/Unpack closures, which address
// store slots by the indices assigned at first build; preseeding keeps
// those indices valid in the rewritten graph while still allowing a pass
// to allocate additional slots on top.
func (b *Builder) PresetSlots(slots, bufSlots []int) {
	if slots != nil {
		b.slots = append([]int(nil), slots...)
	}
	if bufSlots != nil {
		b.bufSlots = append([]int(nil), bufSlots...)
	}
}

// AddDep records that consumer depends on producer, naming both by ID; see
// AddDepIdx.
func (b *Builder) AddDep(consumer, producer TaskID, d Dep) error {
	ci, ok := b.index[consumer]
	if !ok {
		return fmt.Errorf("ptg: unknown consumer %v", consumer)
	}
	pi, ok := b.index[producer]
	if !ok {
		return fmt.Errorf("ptg: unknown producer %v", producer)
	}
	return b.AddDepIdx(ci, pi, d)
}

// AddDepIdx records that task consumer depends on task producer, both given
// by the index AddTask returned. Cross-node dependencies must carry a
// positive payload size; Pack/Unpack may be nil when the graph is cost-only
// (no bodies).
func (b *Builder) AddDepIdx(consumer, producer int32, d Dep) error {
	if n := int32(len(b.tasks)); consumer < 0 || consumer >= n || producer < 0 || producer >= n {
		return fmt.Errorf("ptg: dependency %d -> %d out of range (have %d tasks)", producer, consumer, n)
	}
	if b.tasks[consumer].Node != b.tasks[producer].Node && d.Bytes <= 0 {
		return fmt.Errorf("ptg: cross-node dep %v -> %v needs payload bytes",
			b.tasks[producer].ID, b.tasks[consumer].ID)
	}
	d.Producer, d.consumer = producer, consumer
	b.deps = append(b.deps, d)
	return nil
}

// Build lays the dependencies out in CSR form (see the package comment),
// validates acyclicity and computes the graph's Stats in one topological
// pass, and freezes the graph.
func (b *Builder) Build() (*Graph, error) {
	tasks, deps := b.tasks, b.deps
	// Deps: each task's window is its run of the consumer-sorted array.
	// Builders adding dependencies in consumer order (core's) skip the sort,
	// which is stable, so every consumer keeps its insertion order.
	byConsumer := func(x, y Dep) int { return cmp.Compare(x.consumer, y.consumer) }
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
	// Succs: scanning deps in consumer order, a consumer a producer already
	// lists is its last one, which last[producer] marks (index plus one).
	n := len(tasks)
	last := make([]int32, n)
	off := make([]int32, n+1)
	for _, d := range deps {
		if last[d.Producer] != d.consumer+1 {
			last[d.Producer] = d.consumer + 1
			off[d.Producer+1]++
		}
	}
	for i := range n {
		off[i+1] += off[i]
	}
	succs := make([]int32, off[n])
	next := slices.Clone(off[:n])
	clear(last)
	for _, d := range deps {
		if p := d.Producer; last[p] != d.consumer+1 {
			last[p] = d.consumer + 1
			succs[next[p]] = d.consumer
			next[p]++
		}
	}
	for i := range tasks {
		tasks[i].Succs = succs[off[i]:off[i+1]:off[i+1]]
	}
	g := &Graph{
		NumNodes: b.numNodes, Tasks: tasks, index: b.index,
		NodeSlots: b.slots, NodeBufSlots: b.bufSlots,
	}
	// Stats are computed eagerly so transforms cannot leave stale summaries
	// behind: every (re)build refreshes them, and readers share the memo.
	var err error
	if g.stats, err = g.analyze(); err != nil {
		return nil, err
	}
	b.tasks, b.index, b.deps = nil, nil, nil
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
// Build() and memoized; a rewrite pass that mutates a graph in place must
// call InvalidateStats. The returned value owns its KindCounts map, so
// callers may mutate it freely.
func (g *Graph) ComputeStats() Stats {
	s := *g.stats
	s.KindCounts = maps.Clone(s.KindCounts)
	return s
}

// InvalidateStats recomputes the memoized stats from the task list. A built
// graph is acyclic, so the recomputation cannot fail.
func (g *Graph) InvalidateStats() {
	g.stats, _ = g.analyze()
}

// analyze is the graph's one topological pass (Kahn's algorithm over
// Succs): it rejects dependency cycles and computes Stats, the critical
// path depth included, along the way.
func (g *Graph) analyze() (*Stats, error) {
	n := len(g.Tasks)
	s := Stats{Tasks: n, KindCounts: make(map[string]int)}
	perNode := make([]int, g.NumNodes)
	indeg := make([]int32, n)
	for i := range g.Tasks {
		t := &g.Tasks[i]
		s.Deps += len(t.Deps)
		perNode[t.Node]++
		s.KindCounts[t.Kind.String()]++
		for _, d := range t.Deps {
			if g.Tasks[d.Producer].Node != t.Node {
				s.CrossDeps++
				s.CrossBytes += d.Bytes
			}
		}
		for _, v := range t.Succs {
			indeg[v]++
		}
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
		for _, v := range g.Tasks[u].Succs {
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
	return &s, nil
}
