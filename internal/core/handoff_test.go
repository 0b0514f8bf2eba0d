package core

import (
	"slices"
	"testing"
	"unsafe"

	"castencil/internal/grid"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
)

// recordingEnv is a node store that notes the storage of every halo buffer
// a task body takes from or deposits in a buffer slot.
type recordingEnv struct {
	*runtime.Store
	took, put []*byte
}

func (e *recordingEnv) TakeBufSlot(slot int32) []byte {
	b := e.Store.TakeBufSlot(slot)
	e.took = append(e.took, unsafe.SliceData(b))
	return b
}

func (e *recordingEnv) PutBufSlot(slot int32, b []byte) {
	e.put = append(e.put, unsafe.SliceData(b))
	e.Store.PutBufSlot(slot, b)
}

// tileIter names one iteration of one tile's chain.
type tileIter struct{ ti, tj, t int }

// handoff is what a serial run of a graph saw: per tile iteration, the
// buffers its task consumed and the halos it produced.
type handoff struct {
	stores        []*runtime.Store
	took, produce map[tileIter][]*byte
}

// runSerially executes g task by task in topological order on one
// goroutine. A cross-node dependency hands its payload over whole, as the
// point-to-point wire does.
func runSerially(t *testing.T, g *ptg.Graph) handoff {
	t.Helper()
	h := handoff{took: map[tileIter][]*byte{}, produce: map[tileIter][]*byte{}}
	for n := 0; n < g.NumNodes; n++ {
		h.stores = append(h.stores, runtime.NewStoreWithSlots(g.NodeSlots[n], g.NodeBufSlots[n]))
	}
	pending := make([]int, len(g.Tasks))
	succs := make([][]int32, len(g.Tasks))
	var ready []int32
	for i := range g.Tasks {
		pending[i] = len(g.Tasks[i].Deps)
		for _, d := range g.Tasks[i].Deps {
			succs[d.Producer] = append(succs[d.Producer], int32(i))
		}
		if pending[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	done := 0
	for ; len(ready) > 0; done++ {
		i := ready[0]
		ready = ready[1:]
		task := &g.Tasks[i]
		for _, e := range task.Deps {
			if d := g.Dep(e); d.Pack != nil {
				d.Unpack(h.stores[task.Node], d.Pack(h.stores[g.Tasks[e.Producer].Node]))
			}
		}
		env := &recordingEnv{Store: h.stores[task.Node]}
		task.Run(env)
		key := tileIter{task.ID.I, task.ID.J, task.ID.K}
		h.took[key], h.produce[key] = env.took, env.put
		for _, s := range succs[i] {
			if pending[s]--; pending[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if done != len(g.Tasks) {
		t.Fatalf("ran %d of %d tasks", done, len(g.Tasks))
	}
	return h
}

// reuse sorts the halos compute tasks produced (iteration 1 on) into those
// packed into a buffer the same tile iteration consumed and those packed
// into a fresh one.
func (h handoff) reuse() (reused, fresh []tileIter) {
	for key, puts := range h.produce {
		if key.t == 0 {
			continue
		}
		for _, p := range puts {
			if slices.Contains(h.took[key], p) {
				reused = append(reused, key)
			} else {
				fresh = append(fresh, key)
			}
		}
	}
	return reused, fresh
}

// TestHaloHandoff pins where halo buffers come from: a compute task packs
// each outgoing halo into a buffer its tile unpacked in the same iteration, so in the steady state no halo passes
// through the runtime arena. Where the sizes differ — an interior CA tile
// receives one-deep halos from a boundary neighbor but owes it s-deep ones
// at a phase start — the pack falls back to the arena, and the grid still
// equals the oracle bitwise. Every run must leave no halo parked in a tile
// and no payload in a slot.
func TestHaloHandoff(t *testing.T) {
	one := Config{N: 24, TileRows: 6, P: 1, Steps: 6}
	nine := one
	nine.NinePoint = true
	wf := one
	wf.Steps, wf.Wavefront = 9, 4
	for _, c := range []struct {
		name string
		v    Variant
		cfg  Config
		// wantFresh: the sizes differ, so some halos must fall back to the
		// arena. In CA a boundary tile also packs a one-deep halo toward its
		// interior neighbors at every step of a phase but unpacks only at its
		// start.
		wantFresh bool
	}{
		{"base", Base, one, false},
		{"base/nine", Base, nine, false},
		{"wf/w4", WF, wf, false},
		{"ca/s4", CA, Config{N: 32, TileRows: 4, P: 2, Steps: 9, StepSize: 4}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg.withDefaults()
			cfg.WithBodies = true
			part, err := cfg.Validate(c.v)
			if err != nil {
				t.Fatal(err)
			}
			g, err := BuildGraph(c.v, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := runSerially(t, g)
			reused, fresh := h.reuse()
			if len(reused) == 0 {
				t.Fatal("no halo reused a consumed buffer")
			}
			if !c.wantFresh && len(fresh) > 0 {
				t.Errorf("%d halos took a fresh buffer, first at tile iteration %+v", len(fresh), fresh[0])
			}
			if c.wantFresh && !slices.ContainsFunc(fresh, func(key tileIter) bool {
				return key.t%cfg.StepSize == 0 && !part.IsNodeBoundary(key.ti, key.tj)
			}) {
				t.Error("no interior tile fell back to the arena for its s-deep halos at a phase start")
			}
			full, err := Gather(part, h.stores)
			if err != nil {
				t.Fatal(err)
			}
			assertOracleBitwise(t, c.name, oracle(t, c.cfg), full)
			assertNothingParked(t, part, h.stores)
			if n := LeftoverBuffers(h.stores); n != 0 {
				t.Errorf("%d halo payloads left in slots", n)
			}
		})
	}
}

// assertNothingParked fails when any tile state still holds a parked halo
// buffer after a run.
func assertNothingParked(t *testing.T, p *grid.Partition, stores []*runtime.Store) {
	t.Helper()
	for i, slot := range stateSlots(p) {
		ti, tj := i/p.TC, i%p.TC
		st := stores[p.Owner(ti, tj)].GetSlot(slot).(*tileState)
		for d, buf := range st.parked {
			if buf != nil {
				t.Errorf("tile (%d,%d) keeps the buffer it unpacked from direction %d", ti, tj, d)
			}
		}
	}
}
