// Package dtd implements the Dynamic Task Discovery programming model of
// the PaRSEC analog (the paper's section III-B mentions it as the
// productivity-oriented alternative to PTG): tasks are inserted
// sequentially with declared data accesses (In / Out / InOut on keys), and
// the dependencies — including all inter-node communication — are inferred
// automatically from sequential semantics, like PaRSEC DTD or StarPU.
//
// Data versions are immutable: each write creates a new version of a key,
// so readers of version v are never disturbed by a later writer producing
// v+1 (the copy semantics a dataflow runtime needs anyway). Values are
// []float64 slices. Insertion resolves every version to store slots, the
// way PaRSEC DTD hands tasks data handles: the writer's slot on its node,
// plus one copy slot on each remote node that reads the version.
package dtd

import (
	"encoding/binary"
	"fmt"
	"math"

	"castencil/internal/ptg"
	"castencil/internal/runtime"
)

// Mode declares how a task accesses a key.
type Mode int

const (
	// In reads the current version of the key.
	In Mode = iota
	// Out produces a new version without reading the old one.
	Out
	// InOut reads the current version and produces the next.
	InOut
)

func (m Mode) String() string {
	switch m {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	}
	return "invalid"
}

// Access pairs a key with an access mode.
type Access struct {
	Key  any
	Mode Mode
}

// R and W and RW are convenience constructors.
func R(key any) Access  { return Access{Key: key, Mode: In} }
func W(key any) Access  { return Access{Key: key, Mode: Out} }
func RW(key any) Access { return Access{Key: key, Mode: InOut} }

// Ctx is the view a task body gets: reads resolve to the versions current
// at insertion time; writes produce the next version. Both maps give the
// slot on the executing node that holds the key's version.
type Ctx struct {
	env    ptg.Env
	reads  map[any]int32
	writes map[any]int32
}

// Node returns the executing node's id.
func (c Ctx) Node() int { return c.env.NodeID() }

// Read returns the declared input value of a key.
func (c Ctx) Read(key any) []float64 {
	slot, ok := c.reads[key]
	if !ok {
		panic(fmt.Sprintf("dtd: task reads undeclared key %v", key))
	}
	return c.env.GetSlot(slot).([]float64)
}

// Write publishes the new version of a declared output key.
func (c Ctx) Write(key any, vals []float64) {
	slot, ok := c.writes[key]
	if !ok {
		panic(fmt.Sprintf("dtd: task writes undeclared key %v", key))
	}
	c.env.PutSlot(slot, vals)
}

// keyState tracks the dataflow frontier of one key.
type keyState struct {
	writer     ptg.TaskID // producer of the current version
	writerNode int32
	hasWriter  bool
	slot       int32           // the current version's slot on writerNode
	copies     map[int32]int32 // remote reader node -> its copy's slot
	// readers of the current version since the last write (for
	// anti-dependency ordering).
	readers []reader
}

type reader struct {
	id   ptg.TaskID
	node int32
}

// Inserter builds a task graph by sequential task insertion.
type Inserter struct {
	b     *ptg.Builder
	nodes int
	keys  map[any]*keyState
	seq   int
	err   error
}

// New creates an inserter for a graph over the given number of nodes.
func New(nodes int) *Inserter {
	return &Inserter{b: ptg.NewBuilder(nodes), nodes: nodes, keys: make(map[any]*keyState)}
}

// Seed publishes an initial value for a key on a node, before any task
// reads it. It inserts a zero-dependency producer task.
func (ins *Inserter) Seed(key any, node int, vals []float64) {
	v := make([]float64, len(vals))
	copy(v, vals)
	ins.Insert("seed", node, func(c Ctx) {
		c.Write(key, v)
	}, W(key))
}

// Insert adds a task executing body on the given node with the declared
// accesses. Errors are deferred to Graph().
func (ins *Inserter) Insert(name string, node int, body func(Ctx), accesses ...Access) {
	if ins.err != nil {
		return
	}
	if node < 0 || node >= ins.nodes {
		ins.fail(fmt.Errorf("dtd: task %q on invalid node %d", name, node))
		return
	}
	ins.seq++
	id := ptg.TaskID{Class: name, I: ins.seq}

	reads := make(map[any]int32)
	writes := make(map[any]int32)
	type depSpec struct {
		producer ptg.TaskID
		dep      ptg.Dep
	}
	var deps []depSpec

	for _, a := range accesses {
		ks := ins.keys[a.Key]
		if ks == nil {
			ks = &keyState{}
			ins.keys[a.Key] = ks
		}
		switch a.Mode {
		case In, InOut:
			if !ks.hasWriter {
				ins.fail(fmt.Errorf("dtd: task %q reads key %v before any write", name, a.Key))
				return
			}
			if _, dup := reads[a.Key]; dup {
				ins.fail(fmt.Errorf("dtd: task %q declares key %v twice", name, a.Key))
				return
			}
			d, slot := ptg.Dep{}, ks.slot
			if ks.writerNode != int32(node) {
				// The first remote reader on a node reserves the copy slot
				// every later reader of the version on that node shares.
				dst, ok := ks.copies[int32(node)]
				if !ok {
					if ks.copies == nil {
						ks.copies = make(map[int32]int32)
					}
					dst = ins.b.AllocSlot(int32(node))
					ks.copies[int32(node)] = dst
				}
				src := ks.slot
				slot = dst
				d.Bytes = 1 // sized at pack time; graph needs positivity
				d.Pack = func(e ptg.Env) []byte {
					return encode(e.GetSlot(src).([]float64))
				}
				d.Unpack = func(e ptg.Env, data []byte) {
					// Another reader on this node may have delivered the
					// version already; the first arrival wins.
					if e.GetSlot(dst) == nil {
						e.PutSlot(dst, decode(data))
					}
				}
			}
			reads[a.Key] = slot
			deps = append(deps, depSpec{producer: ks.writer, dep: d})
			ks.readers = append(ks.readers, reader{id: id, node: int32(node)})
		}
		switch a.Mode {
		case Out, InOut:
			if _, dup := writes[a.Key]; dup {
				ins.fail(fmt.Errorf("dtd: task %q declares key %v twice", name, a.Key))
				return
			}
			// Write-after-write on the previous writer, write-after-read
			// on every reader of the current version (pure ordering
			// tokens; versioned data makes them safe but PaRSEC enforces
			// them for memory reclamation, and so do we).
			if ks.hasWriter && a.Mode == Out {
				deps = append(deps, depSpec{producer: ks.writer, dep: tokenDep(ks.writerNode, int32(node))})
			}
			for _, rd := range ks.readers {
				if rd.id == id {
					continue // the task's own In access
				}
				deps = append(deps, depSpec{producer: rd.id, dep: tokenDep(rd.node, int32(node))})
			}
			ks.writer = id
			ks.writerNode = int32(node)
			ks.hasWriter = true
			ks.slot = ins.b.AllocSlot(int32(node))
			ks.copies = nil
			ks.readers = nil
			writes[a.Key] = ks.slot
		}
		if a.Mode != In && a.Mode != Out && a.Mode != InOut {
			ins.fail(fmt.Errorf("dtd: task %q: invalid access mode %d", name, a.Mode))
			return
		}
	}

	run := func(e ptg.Env) {
		body(Ctx{env: e, reads: reads, writes: writes})
	}
	if _, err := ins.b.AddTask(ptg.Task{ID: id, Node: int32(node), Kind: ptg.KindInterior, Run: run}); err != nil {
		ins.fail(err)
		return
	}
	for _, d := range deps {
		if err := ins.b.AddDep(id, d.producer, d.dep); err != nil {
			ins.fail(err)
			return
		}
	}
}

// tokenDep builds a pure-ordering dependency, carrying a 1-byte token when
// it crosses nodes.
func tokenDep(prodNode, consNode int32) ptg.Dep {
	d := ptg.Dep{}
	if prodNode != consNode {
		d.Bytes = 1
		d.Pack = func(ptg.Env) []byte { return []byte{0} }
	}
	return d
}

func (ins *Inserter) fail(err error) {
	if ins.err == nil {
		ins.err = err
	}
}

// Graph finalizes and returns the task graph.
func (ins *Inserter) Graph() (*ptg.Graph, error) {
	if ins.err != nil {
		return nil, ins.err
	}
	return ins.b.Build()
}

// Fetch reads the final version of a key from the stores of a completed
// run (the value lives in its last writer's slot).
func (ins *Inserter) Fetch(stores []*runtime.Store, key any) ([]float64, error) {
	ks := ins.keys[key]
	if ks == nil || !ks.hasWriter {
		return nil, fmt.Errorf("dtd: key %v was never written", key)
	}
	v := stores[ks.writerNode].GetSlot(ks.slot)
	if v == nil {
		return nil, fmt.Errorf("dtd: final version of %v missing from node %d", key, ks.writerNode)
	}
	return v.([]float64), nil
}

// encode serializes a value for inter-node transport: little-endian
// IEEE-754 bits, in order.
func encode(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// decode deserializes an encode payload.
func decode(data []byte) []float64 {
	if len(data)%8 != 0 {
		panic("dtd: payload length not a multiple of 8")
	}
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out
}
