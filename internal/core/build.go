package core

import (
	"math"
	"slices"

	"castencil/internal/grid"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
	"castencil/internal/stencil"
)

// tileInfo caches per-tile geometry and classification for graph building.
type tileInfo struct {
	ti, tj     int
	rows, cols int
	r0, c0     int
	node       int32
	// boundary marks tiles with at least one remote cardinal neighbor —
	// the paper's "boundary tiles", which the CA variant equips with a
	// deep ghost region and phase-based communication.
	boundary bool
	halo     int
	// nbr[d] is the neighboring tile in direction d, nil past the global
	// boundary.
	nbr [grid.NumDirs]*tileInfo

	// Store slots, reserved at build time when the graph carries bodies.
	// stateSlot holds the tile's *tileState; sendSlot[d]/recvSlot[d] are
	// the slot ranges holding packed halo payloads flowing toward/arriving
	// from direction d, indexed round-robin by step or phase (see slotOf).
	// The range depth bounds the number of simultaneously live buffers of
	// the flow, which follows from how far the producer can run ahead of
	// the consumer (see slotDepth).
	stateSlot int32
	sendSlot  [grid.NumDirs]slotRange
	recvSlot  [grid.NumDirs]slotRange
}

// slotRange is a run of depth consecutive buffer slots cycled round-robin by
// one halo flow.
type slotRange struct{ base, depth int32 }

// tileState is the double-buffered tile a task chain owns. Only the tasks
// of tile (ti, tj) ever touch it; neighbors see packed copies.
type tileState struct {
	cur, next *grid.Tile
	r0, c0    int // global origin
	// parked[d] is the halo buffer last unpacked from direction d, held
	// until the same iteration's produce repacks an outgoing halo into it
	// (see takeParked). produce returns what it leaves to the arena, so
	// parked is empty between iterations.
	parked [grid.NumDirs][]byte
}

type builder struct {
	v     Variant
	cfg   Config
	part  *grid.Partition
	tiles []tileInfo // row-major, TR x TC
	// epochs is the number of compute tasks per tile: Steps for the
	// per-step variants, ceil(Steps/w) wavefront blocks for WF.
	epochs int
	// keyIter[k] is the first iteration of flow key k (see flowKey), -1
	// for the key of no flows; -2 marks a key no iteration has.
	keyIter [numFlowKeys]int
}

// tile returns the geometry of tile (ti, tj).
func (b *builder) tile(ti, tj int) *tileInfo {
	return &b.tiles[ti*b.part.TC+tj]
}

// task returns the graph index of tile inf's task at iteration t: BuildGraph
// adds tasks tile by tile in row-major order, epochs+1 per tile.
func (b *builder) task(inf *tileInfo, t int) int32 {
	return int32((inf.ti*b.part.TC+inf.tj)*(b.epochs+1) + t)
}

// effWidth returns the number of time steps WF block t (1-based) advances:
// the configured width, truncated on the final block to the remaining steps.
func (b *builder) effWidth(t int) int {
	w := b.cfg.Wavefront
	if rem := b.cfg.Steps - (t-1)*w; rem < w {
		return rem
	}
	return w
}

// BuildGraph constructs the task graph of a stencil variant. With
// cfg.WithBodies the graph is executable by internal/runtime; without, it is
// a cost-only graph for internal/desim.
func BuildGraph(v Variant, cfg Config) (*ptg.Graph, error) {
	g, _, err := buildGraph(v, cfg)
	return g, err
}

// buildGraph is BuildGraph plus the builder whose cfg its bodies read when
// run.
func buildGraph(v Variant, cfg Config) (*ptg.Graph, *builder, error) {
	cfg = cfg.withDefaults()
	bd, err := newBuilder(v, cfg)
	if err != nil {
		return nil, nil, err
	}
	var ins, outs [numFlowKeys]haloFlows
	gb := ptg.NewBuilder(bd.part.Nodes())
	gb.Grow(len(bd.tiles)*(bd.epochs+1), 0)
	if cfg.WithBodies {
		bd.allocSlots(gb)
	}
	// Tasks: one chain per tile, epochs 0 (init) .. epochs — one task per
	// step for Base/CA, one per wavefront block for WF.
	deps := 0
	for i := range bd.tiles {
		inf := &bd.tiles[i]
		bd.tileHalo(inf, &ins, &outs)
		for t := 0; t <= bd.epochs; t++ {
			task := ptg.Task{
				ID:       taskID(inf.ti, inf.tj, t),
				Node:     inf.node,
				Kind:     bd.kind(inf, t),
				Priority: bd.priority(inf, t),
				// The iteration index is the exchange epoch: all halo
				// payloads a node produces at one iteration toward one
				// neighbor may ride a single coalesced bundle.
				Epoch: int32(t),
			}
			in, out := &ins[bd.flowKey(t-1)], &outs[bd.flowKey(t)]
			task.Hint = bd.hint(inf, t, in.points+out.points)
			if cfg.WithBodies {
				task.Run = bd.body(inf, t)
			}
			if t > 0 {
				deps += 1 + in.count
			}
			if _, err := gb.AddTask(task); err != nil {
				return nil, nil, err
			}
		}
	}
	// Dependencies, each consumer's together and in task order.
	gb.Grow(0, deps)
	for i := range bd.tiles {
		inf := &bd.tiles[i]
		bd.tileHalo(inf, &ins, &outs)
		for t := 1; t <= bd.epochs; t++ {
			c := bd.task(inf, t)
			// Serial self-dependency: the tile's double buffer.
			if err := gb.AddDepIdx(c, c-1, ptg.Dep{}); err != nil {
				return nil, nil, err
			}
			in := &ins[bd.flowKey(t-1)]
			for _, d := range grid.AllDirs {
				if in.rect[d].Size() == 0 {
					continue
				}
				p := inf.nbr[d]
				dep := ptg.Dep{}
				if p.node != inf.node {
					dep.Bytes = in.rect[d].Bytes()
					if cfg.WithBodies {
						ss := bd.slotOf(p.sendSlot[d.Opposite()], inf, t-1)
						rs := bd.slotOf(inf.recvSlot[d], inf, t-1)
						dep.Pack = func(e ptg.Env) []byte { return e.TakeBufSlot(ss) }
						// Zero-copy: the in-flight payload itself becomes the
						// consumer-side buffer.
						dep.Unpack = func(e ptg.Env, data []byte) { e.PutBufSlot(rs, data) }
					}
				}
				if err := gb.AddDepIdx(c, bd.task(p, t-1), dep); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	g, err := gb.Build()
	if err != nil {
		return nil, nil, err
	}
	return g, bd, nil
}

func taskID(ti, tj, t int) ptg.TaskID {
	return ptg.TaskID{Class: "st", I: ti, J: tj, K: t}
}

// newBuilder lays out the tiles of a variant's graph under cfg (defaults
// applied) and classes its iterations by flow key.
func newBuilder(v Variant, cfg Config) (*builder, error) {
	part, err := cfg.Validate(v)
	if err != nil {
		return nil, err
	}
	bd := &builder{v: v, cfg: cfg, part: part, tiles: make([]tileInfo, part.TR*part.TC)}
	for ti := 0; ti < part.TR; ti++ {
		for tj := 0; tj < part.TC; tj++ {
			rows, cols := part.TileDims(ti, tj)
			r0, c0 := part.TileOrigin(ti, tj)
			inf := bd.tile(ti, tj)
			*inf = tileInfo{
				ti: ti, tj: tj, rows: rows, cols: cols, r0: r0, c0: c0,
				node:     int32(part.Owner(ti, tj)),
				boundary: part.IsNodeBoundary(ti, tj),
			}
			inf.halo = 1
			if v == CA && inf.boundary {
				inf.halo = cfg.StepSize
			}
			if v == WF {
				// Every tile carries the deep ghost region: all flows —
				// intra-node ones included — happen once per block.
				inf.halo = cfg.Wavefront
			}
			for _, d := range grid.AllDirs {
				if ni, nj, ok := part.Neighbor(ti, tj, d); ok {
					inf.nbr[d] = bd.tile(ni, nj)
				}
			}
		}
	}

	bd.epochs = cfg.epochs(v)
	for k := range bd.keyIter {
		bd.keyIter[k] = -2
	}
	for t := bd.epochs - 1; t >= -1; t-- {
		bd.keyIter[bd.flowKey(t)] = t
	}
	return bd, nil
}

// stateSlots returns, by row-major tile index, the general slot holding each
// tile's state in its owner node's store. A node's first general slots are
// its tiles' states, in row-major tile order: allocSlots reserves them by
// this rule, and Gather reads them back from the partition alone.
func stateSlots(p *grid.Partition) []int32 {
	next := make([]int32, p.Nodes())
	out := make([]int32, 0, p.Tiles())
	for ti := 0; ti < p.TR; ti++ {
		for tj := 0; tj < p.TC; tj++ {
			n := p.Owner(ti, tj)
			out = append(out, next[n])
			next[n]++
		}
	}
	return out
}

// allocSlots reserves the graph's store slots: one general slot per tile
// for its state (see stateSlots), and one buffer-slot range per halo flow.
// Same-node flows share a single range (producer deposits, consumer takes);
// cross-node flows get a range on each side (Pack drains the producer's,
// Unpack fills the consumer's).
func (b *builder) allocSlots(gb *ptg.Builder) {
	for i, s := range stateSlots(b.part) {
		b.tiles[i].stateSlot = s
		gb.AllocSlot(b.tiles[i].node) // returns s: state slots come first
	}
	alloc := func(node int32, depth int) slotRange {
		r := slotRange{depth: int32(depth)}
		for i := 0; i < depth; i++ {
			if s := gb.AllocBufSlot(node); i == 0 {
				r.base = s
			}
		}
		return r
	}
	for i := range b.tiles {
		cons := &b.tiles[i]
		for _, d := range grid.AllDirs {
			p := cons.nbr[d]
			if p == nil {
				continue
			}
			// Every flow kind fires after iteration 0, so existence at
			// t == 0 means the flow exists at all.
			if _, ok := b.flow(p, d.Opposite(), 0); !ok {
				continue
			}
			depth := b.slotDepth(p, cons, d)
			p.sendSlot[d.Opposite()] = alloc(p.node, depth)
			if cons.node == p.node {
				cons.recvSlot[d] = p.sendSlot[d.Opposite()]
			} else {
				cons.recvSlot[d] = alloc(cons.node, depth)
			}
		}
	}
}

// slotDepth bounds the number of simultaneously live buffers of the flow
// prod -> cons, i.e. how far the producer can run ahead of the take that
// frees a slot for reuse:
//
//   - Phase flows (CA, cons boundary): the producer cannot enter phase
//     p+2 before the consumer has finished the first step of phase p+1,
//     which consumed the phase-p payload. Two slots.
//   - Every-step flows from an interior (or Base) producer: the reverse
//     flow from the consumer reaches the producer the next step, so the
//     producer runs at most two steps ahead. Two slots.
//   - Every-step flows from a CA boundary producer: flows into a boundary
//     tile are phase-based, so nothing throttles the producer within a
//     phase — it can run a full phase (s productions) past a stalled
//     consumer, on top of the one unconsumed payload from the previous
//     phase boundary. s+1 slots.
//   - The CA corner flow with step size 1 from an interior producer into a
//     boundary tile (arriving from diagonal d): under the five-point
//     stencil the consumer sends nothing back along the diagonal, so the
//     throttle takes two cardinal hops. The producer's iteration t needs a
//     shared cardinal neighbor's t-1, which needs the consumer's t-2, which
//     took payload t-3. Three slots: when the producer refills slot t mod
//     3, payload t-3 is gone.
func (b *builder) slotDepth(prod, cons *tileInfo, d grid.Dir) int {
	switch {
	case b.v != CA:
	case !cons.boundary && prod.boundary:
		return b.cfg.StepSize + 1
	case cons.boundary && !prod.boundary && !d.Cardinal() && b.cfg.StepSize == 1:
		return 3
	}
	return 2
}

// slotOf indexes a flow's slot range for the payload produced at iteration
// t: phase flows (into CA boundary tiles) cycle per phase, every-step flows
// per step.
func (b *builder) slotOf(r slotRange, cons *tileInfo, t int) int32 {
	k := t
	if b.v == CA && cons.boundary {
		k = t / b.cfg.StepSize
	}
	return r.base + int32(k)%r.depth
}

// flow is the single source of truth for the dataflow: does tile prod
// produce a halo buffer toward direction d after iteration t, and how deep?
//
//   - Base: one-layer edges toward every cardinal neighbor, every step.
//   - CA, consumer is a boundary tile: s-deep edges (and s x s corners from
//     diagonals) only at phase starts (t divisible by the step size); the
//     final phase is truncated to the remaining steps.
//   - CA, consumer is interior: one-layer cardinal edges every step, as in
//     the base version.
//   - WF: every tile flows after every block; the depth is the effective
//     width of the consuming block t+1 (truncated on the final block), with
//     depth x depth corners from diagonals whenever the block is deeper
//     than one step (the shrinking per-level regions read corner data,
//     exactly as in CA).
func (b *builder) flow(prod *tileInfo, d grid.Dir, t int) (depth int, ok bool) {
	if t < 0 {
		return 0, false
	}
	if b.v == WF {
		if t >= b.epochs {
			return 0, false
		}
		if prod.nbr[d] == nil {
			return 0, false
		}
		depth = b.effWidth(t + 1)
		if depth == 1 && !d.Cardinal() && !b.cfg.NinePoint {
			return 0, false
		}
		return depth, true
	}
	if t >= b.cfg.Steps {
		return 0, false
	}
	cons := prod.nbr[d]
	if cons == nil {
		return 0, false
	}
	if b.v == CA && cons.boundary {
		s := b.cfg.StepSize
		if t%s != 0 {
			return 0, false
		}
		depth = s
		if rem := b.cfg.Steps - t; rem < depth {
			depth = rem
		}
		return depth, true
	}
	// The nine-point stencil reads diagonal neighbors, so the per-step
	// exchange includes 1x1 corner flows.
	if !d.Cardinal() && !b.cfg.NinePoint {
		return 0, false
	}
	return 1, true
}

// sendRect returns the rectangle prod packs when flowing depth layers
// toward d.
func (b *builder) sendRect(prod *tileInfo, d grid.Dir, depth int) grid.Rect {
	// Geometry only depends on interior dims, so a throwaway zero-halo
	// tile view suffices for rect computation; use a cheap struct instead.
	t := grid.Tile{Rows: prod.rows, Cols: prod.cols}
	return t.SendRect(d, depth)
}

func (b *builder) kind(inf *tileInfo, t int) ptg.Kind {
	switch {
	case t == 0:
		return ptg.KindInit
	case inf.boundary:
		return ptg.KindBoundary
	default:
		return ptg.KindInterior
	}
}

// priority favors earlier iterations, and boundary tiles within an
// iteration so their halos enter the network as soon as possible — the
// standard PaRSEC priority hint for stencils.
func (b *builder) priority(inf *tileInfo, t int) int32 {
	p := int32(b.epochs-t) * 2
	if inf.boundary {
		p++
	}
	return p
}

// phaseGeom returns, for a CA boundary tile at iteration t (>= 1), the
// effective phase length sp and the in-phase step index k (1-based).
func (b *builder) phaseGeom(t int) (sp, k int) {
	s := b.cfg.StepSize
	t0 := (t - 1) / s * s
	sp = s
	if rem := b.cfg.Steps - t0; rem < sp {
		sp = rem
	}
	return sp, t - t0
}

// region returns the rectangle a CA boundary tile updates at iteration t:
// the interior extended by the shrinking trapezoid margin on every side
// that has a neighbor (sides on the global boundary never extend).
func (b *builder) region(inf *tileInfo, t int) grid.Rect {
	sp, k := b.phaseGeom(t)
	ext := sp - k
	extOf := func(d grid.Dir) int {
		if ext <= 0 || inf.nbr[d] == nil {
			return 0
		}
		return ext
	}
	n, s, w, e := extOf(grid.North), extOf(grid.South), extOf(grid.West), extOf(grid.East)
	return grid.Rect{
		R0: -n, C0: -w,
		H: inf.rows + n + s,
		W: inf.cols + w + e,
	}
}

// haloFlows is one side of a tile task's halo exchange: the rectangle the
// flow from or toward each direction packs (empty where none flows; a flow
// carries at least one point), their count and their total points.
type haloFlows struct {
	rect          [grid.NumDirs]grid.Rect
	count, points int
}

// flowKey classes iteration t by the flows every tile produces after it.
// flow depends on t only through whether t lies outside the iterations,
// starts the truncated final CA phase or the final wavefront block, or
// starts a CA phase at all: mid-phase a CA tile feeds only its interior
// neighbors, the same one-deep halos at every step. So there are four
// keys, and a tile's halo geometry is computed once per key (see
// tileHalo), not once per task:
//
//	0  no flows (t < 0 or past the last iteration)
//	1  the truncated final CA phase's start, or the final wavefront block
//	2  a full CA phase's start; every other Base and WF iteration
//	3  a CA iteration within a phase
func (b *builder) flowKey(t int) int {
	switch {
	case t < 0 || t >= b.epochs:
		return 0
	case b.v == WF && t == b.epochs-1:
		return 1
	case b.v != CA:
		return 2
	case t%b.cfg.StepSize != 0:
		return 3
	case b.cfg.Steps-t < b.cfg.StepSize:
		return 1
	}
	return 2
}

// numFlowKeys is the number of flow keys.
const numFlowKeys = 4

// tileHalo fills, for every flow key k, in[k] with the halos tile inf
// unpacks at an iteration t with flowKey(t-1) == k, and out[k] with those
// it packs after an iteration t with flowKey(t) == k.
func (b *builder) tileHalo(inf *tileInfo, in, out *[numFlowKeys]haloFlows) {
	add := func(h *haloFlows, d grid.Dir, rc grid.Rect) {
		h.rect[d] = rc
		h.count++
		h.points += rc.Size()
	}
	for k, t := range b.keyIter {
		in[k], out[k] = haloFlows{}, haloFlows{}
		if t == -2 {
			continue
		}
		for _, d := range grid.AllDirs {
			if p := inf.nbr[d]; p != nil {
				if depth, ok := b.flow(p, d.Opposite(), t); ok {
					add(&in[k], d, b.sendRect(p, d.Opposite(), depth))
				}
			}
			if depth, ok := b.flow(inf, d, t); ok {
				add(&out[k], d, b.sendRect(inf, d, depth))
			}
		}
	}
}

// hint computes the DES cost quantities of a task whose incoming and
// outgoing halos (see tileHalo) total halo points.
func (b *builder) hint(inf *tileInfo, t, halo int) ptg.CostHint {
	h := ptg.CostHint{Rows: inf.rows, Cols: inf.cols, CopyPoints: halo}
	if t == 0 {
		// Init writes the tile once.
		h.CopyPoints += inf.rows * inf.cols
		return h
	}
	h.Updates = inf.rows * inf.cols
	if b.v == CA && inf.boundary {
		h.RedundantUpdates = b.region(inf, t).Size() - h.Updates
	}
	if b.v == WF {
		// One task covers a whole block: wb interior sweeps, plus the
		// shrinking ghost-region margins of every level above it.
		wb := b.effWidth(t)
		total := 0
		for _, rc := range b.wfRegions(inf, wb) {
			total += rc.Size()
		}
		h.Updates = wb * inf.rows * inf.cols
		h.RedundantUpdates = total - h.Updates
	}
	return h
}

// wfRegions returns the per-level update rects of tile inf's width-wb
// wavefront block (level k extends the interior by wb-k layers on sides
// with neighbors).
func (b *builder) wfRegions(inf *tileInfo, wb int) []grid.Rect {
	return stencil.WavefrontRegions(inf.rows, inf.cols, wb, func(d grid.Dir) bool {
		return inf.nbr[d] != nil
	})
}

// body builds the executable closure of a task.
func (b *builder) body(inf *tileInfo, t int) func(ptg.Env) {
	if t == 0 {
		return b.initBody(inf)
	}
	if b.v == WF {
		return b.wavefrontBody(inf, t)
	}
	return b.computeBody(inf, t)
}

// Task bodies capture only the builder, the tile and the iteration, and
// derive the rest — weights, the kernel, the update rectangle — when they
// run: one closure per task is the with-bodies graph's per-task cost (see
// TestBuildBytesPerTask).

func (b *builder) initBody(inf *tileInfo) func(ptg.Env) {
	return func(e ptg.Env) {
		cfg := &b.cfg
		cur, next := arenaTile(inf), arenaTile(inf)
		for r := 0; r < inf.rows; r++ {
			row := cur.Row(r, 0, inf.cols)
			for c := range row {
				row[c] = cfg.Init(inf.r0+r, inf.c0+c)
			}
		}
		// Ghost cells outside the global domain hold the fixed boundary in
		// both buffers; they are never written afterwards.
		stencil.FillBoundary(cur, inf.r0, inf.c0, cfg.N, cfg.Boundary)
		stencil.FillBoundary(next, inf.r0, inf.c0, cfg.N, cfg.Boundary)
		st := &tileState{cur: cur, next: next, r0: inf.r0, c0: inf.c0}
		e.PutSlot(inf.stateSlot, st)
		b.produce(e, st, inf, 0)
	}
}

// computeBody builds a base or CA step: it updates the CA trapezoid region
// on a boundary tile and the interior otherwise, reading st.cur and writing
// st.next.
func (b *builder) computeBody(inf *tileInfo, t int) func(ptg.Env) {
	return func(e ptg.Env) {
		st := b.state(e, inf)
		b.consume(e, st, inf, t)
		rect := grid.Rect{R0: 0, C0: 0, H: inf.rows, W: inf.cols}
		if b.v == CA && inf.boundary {
			rect = b.region(inf, t)
		}
		if b.cfg.NinePoint {
			stencil.Apply9(b.cfg.Weights9, st.next, st.cur, rect)
		} else {
			stencil.Apply(b.cfg.Weights, st.next, st.cur, rect)
		}
		st.cur, st.next = st.next, st.cur
		b.produce(e, st, inf, t)
	}
}

// wavefrontBody builds the fused WF task for block t (1-based): it consumes
// the fresh w-deep halos of the block, advances the tile effWidth(t) steps
// with one diagonal in-tile sweep, and publishes the next block's halos. The
// kernel leaves the final level in whichever buffer the depth's parity picks,
// so the double-buffer swap is conditional.
func (b *builder) wavefrontBody(inf *tileInfo, t int) func(ptg.Env) {
	regions := b.wfRegions(inf, b.effWidth(t))
	return func(e ptg.Env) {
		st := b.state(e, inf)
		b.consume(e, st, inf, t)
		var res *grid.Tile
		if b.cfg.NinePoint {
			res = stencil.Wavefront9(b.cfg.Weights9, st.cur, st.next, regions)
		} else {
			res = stencil.Wavefront(b.cfg.Weights, st.cur, st.next, regions)
		}
		if res != st.cur {
			st.cur, st.next = st.next, st.cur
		}
		b.produce(e, st, inf, t)
	}
}

// produce packs and publishes every outgoing flow of iteration t: each halo
// is serialized straight into a wire buffer (Tile.PackBytes) — one the tile
// just unpacked where one is large enough (takeParked), else one from the
// runtime arena — and deposited in the flow's ring slot. The buffers it
// does not repack go back to the arena.
func (b *builder) produce(e ptg.Env, st *tileState, inf *tileInfo, t int) {
	for _, d := range grid.AllDirs {
		depth, ok := b.flow(inf, d, t)
		if !ok {
			continue
		}
		rc := st.cur.SendRect(d, depth)
		buf := st.cur.PackBytes(rc, st.takeParked(d, rc.Bytes()))
		e.PutBufSlot(b.slotOf(inf.sendSlot[d], inf.nbr[d], t), buf)
	}
	for d, buf := range st.parked {
		if buf != nil {
			runtime.PutBuf(buf)
			st.parked[d] = nil
		}
	}
}

// takeParked returns an n-byte buffer for the halo toward d: the one parked
// from d when its capacity suffices (in the steady state it came from the
// same neighbor, over the same edge), else any parked buffer large enough,
// else a fresh one from the arena. A parked buffer's whole capacity is the
// tile's to overwrite: buffer slots hold whole arena buffers (see
// ptg.Env.PutBufSlot).
func (st *tileState) takeParked(d grid.Dir, n int) []byte {
	i := int(d)
	if cap(st.parked[i]) < n {
		i = slices.IndexFunc(st.parked[:], func(buf []byte) bool { return cap(buf) >= n })
		if i < 0 {
			return runtime.GetBuf(n)
		}
	}
	buf := st.parked[i][:n]
	st.parked[i] = nil
	if poisonTiles {
		// A pack that writes fewer than n bytes leaves NaNs for the
		// consumer to unpack into its ghost cells.
		full := buf[:cap(buf)]
		for j := range full {
			full[j] = 0xFF
		}
	}
	return buf
}

// consume takes and unpacks every incoming flow feeding iteration t,
// deserializing each wire buffer in place into the ghost region and parking
// it in st.parked[d] for the iteration's produce to repack.
func (b *builder) consume(e ptg.Env, st *tileState, inf *tileInfo, t int) {
	for _, d := range grid.AllDirs {
		p := inf.nbr[d]
		if p == nil {
			continue
		}
		depth, ok := b.flow(p, d.Opposite(), t-1)
		if !ok {
			continue
		}
		rc := st.cur.RecvRect(d, depth)
		buf := e.TakeBufSlot(b.slotOf(inf.recvSlot[d], inf, t-1))
		st.cur.UnpackBytes(rc, buf)
		st.parked[d] = buf
	}
}

// fullRect is tile inf's complete ghost-inclusive storage.
func fullRect(inf *tileInfo) grid.Rect {
	return grid.Rect{
		R0: -inf.halo, C0: -inf.halo,
		H: inf.rows + 2*inf.halo, W: inf.cols + 2*inf.halo,
	}
}

// poisonTiles, set only by tests, fills every tile buffer arenaTile hands
// out with NaN, so a read of a cell no task wrote poisons the grid.
var poisonTiles bool

// arenaTile builds one of tile inf's two buffers over storage from the
// runtime arena, which RunReal returns after the gather. The storage is not
// cleared, and need not be: init writes the interior, FillBoundary the
// out-of-domain ghosts, and every other ghost cell is written by a halo
// unpack before any kernel reads it.
func arenaTile(inf *tileInfo) *grid.Tile {
	data := runtime.GetFloats(fullRect(inf).Size())
	if poisonTiles {
		for i := range data {
			data[i] = math.NaN()
		}
	}
	return grid.TileOver(inf.rows, inf.cols, inf.halo, data)
}

// state fetches the tile's double-buffer state.
func (b *builder) state(e ptg.Env, inf *tileInfo) *tileState {
	return e.GetSlot(inf.stateSlot).(*tileState)
}

// GraphStats builds the graph (cost-only) and returns its statistics;
// convenient for tests and the documentation tables.
func GraphStats(v Variant, cfg Config) (ptg.Stats, error) {
	cfg.WithBodies = false
	g, err := BuildGraph(v, cfg)
	if err != nil {
		return ptg.Stats{}, err
	}
	return g.ComputeStats(), nil
}
