package core

import (
	"slices"

	"castencil/internal/grid"
	"castencil/internal/ptg"
	"castencil/internal/stencil"
)

// splitPass is the inner/border splitting rewrite (Eijkhout's latency-
// tolerance transformation): each (tile, iteration) compute task becomes
//
//   - one interior task (KindInner) updating the part of the tile that
//     needs no freshly arrived halo — it depends only on the tile's own
//     previous commit, so it runs while halos are still in flight;
//   - up to four edge tasks and four corner tasks (KindBorder), each a thin
//     strip gated on exactly the halo flow it reads (corners additionally
//     order after their two adjacent edges, whose unpacked ghosts they
//     read);
//   - one commit task that keeps the original task's ID, class, and Epoch:
//     it swaps the double buffer and publishes outgoing halos once every
//     part has written its piece of next.
//
// Keeping the original ID/Epoch on the commit means downstream consumers
// and the halo-bundle plan (Graph.Bundles groups cross deps by producer
// epoch) are untouched, and the original Pack closures continue to address
// the same send slots — sim==real parity on Messages/Bundles/Bytes is
// preserved by construction.
//
// Bitwise equality holds because the parts form a disjoint cover of the
// unsplit task's update rectangle and internal/stencil's row kernels
// compute each cell identically regardless of how the rectangle is
// partitioned; the interior rectangle is shrunk one layer past the halo
// extension on every side with an incoming flow, so it reads only cells
// the tile already owned from the previous iteration.
type splitPass struct{ b *builder }

func (p *splitPass) Name() string { return "split" }

func innerID(ti, tj, t int) ptg.TaskID {
	return ptg.TaskID{Class: "si", I: ti, J: tj, K: t}
}

func borderID(ti, tj, t int, d grid.Dir) ptg.TaskID {
	return ptg.TaskID{Class: "sb" + d.String(), I: ti, J: tj, K: t}
}

// cornerSides returns the two cardinal directions adjacent to a diagonal.
func cornerSides(d grid.Dir) (grid.Dir, grid.Dir) {
	switch d {
	case grid.NorthWest:
		return grid.North, grid.West
	case grid.NorthEast:
		return grid.North, grid.East
	case grid.SouthWest:
		return grid.South, grid.West
	default: // SouthEast
		return grid.South, grid.East
	}
}

// splitGeom is the region decomposition of one (tile, iteration) task.
type splitGeom struct {
	ok     bool                    // task is splittable
	update grid.Rect               // full update rect (CA trapezoid region or interior)
	inner  grid.Rect               // halo-independent interior part
	has    [grid.NumDirs]bool      // incoming halo flow from direction d
	part   [grid.NumDirs]bool      // border part d exists (edges cardinal, corners diagonal)
	rects  [grid.NumDirs]grid.Rect // border part update rects
}

// splitGeom decomposes tile inf's iteration-t update rectangle. The
// interior is the update rect shrunk, on every side d with an incoming
// halo, by the halo's ghost extension plus one — one layer more than the
// deepest cell whose stencil reads freshly arrived ghost data — so the
// interior part depends only on cells the tile owned after iteration t-1.
// Edge strips take the shrunk-off cardinal margins at the interior's column
// span, and corners the remaining rectangles where two margins meet (a
// corner's stencil reads both adjacent cardinal halos and, when a diagonal
// flow exists, its own corner ghost block). Sides without an incoming flow
// are never shrunk: there the update rect ends at the global boundary,
// whose ghost cells are time-invariant. A task with no incoming flows
// (init, CA boundary mid-phase) or a tile too thin to hold a non-empty
// interior stays unsplit.
func (b *builder) splitGeom(inf *tileInfo, t int) splitGeom {
	var sg splitGeom
	if b.v == WF || t < 1 || t > b.epochs {
		return sg
	}
	any := false
	for _, d := range grid.AllDirs {
		p := inf.nbr[d]
		if p == nil {
			continue
		}
		if _, ok := b.flow(p, d.Opposite(), t-1); ok {
			sg.has[d] = true
			any = true
		}
	}
	if !any {
		return sg
	}
	r := grid.Rect{R0: 0, C0: 0, H: inf.rows, W: inf.cols}
	if b.v == CA && inf.boundary {
		r = b.region(inf, t)
	}
	sg.update = r
	shrink := func(d grid.Dir, ext int) int {
		if sg.has[d] {
			return ext + 1
		}
		return 0
	}
	sN := shrink(grid.North, -r.R0)
	sS := shrink(grid.South, r.R0+r.H-inf.rows)
	sW := shrink(grid.West, -r.C0)
	sE := shrink(grid.East, r.C0+r.W-inf.cols)
	if r.H <= sN+sS || r.W <= sW+sE {
		return sg
	}
	in := grid.Rect{R0: r.R0 + sN, C0: r.C0 + sW, H: r.H - sN - sS, W: r.W - sW - sE}
	sg.inner = in
	set := func(d grid.Dir, rc grid.Rect) {
		if rc.H > 0 && rc.W > 0 {
			sg.part[d] = true
			sg.rects[d] = rc
		}
	}
	set(grid.North, grid.Rect{R0: r.R0, C0: in.C0, H: sN, W: in.W})
	set(grid.South, grid.Rect{R0: in.R0 + in.H, C0: in.C0, H: sS, W: in.W})
	set(grid.West, grid.Rect{R0: in.R0, C0: r.C0, H: in.H, W: sW})
	set(grid.East, grid.Rect{R0: in.R0, C0: in.C0 + in.W, H: in.H, W: sE})
	set(grid.NorthWest, grid.Rect{R0: r.R0, C0: r.C0, H: sN, W: sW})
	set(grid.NorthEast, grid.Rect{R0: r.R0, C0: in.C0 + in.W, H: sN, W: sE})
	set(grid.SouthWest, grid.Rect{R0: in.R0 + in.H, C0: r.C0, H: sS, W: sW})
	set(grid.SouthEast, grid.Rect{R0: in.R0 + in.H, C0: in.C0 + in.W, H: sS, W: sE})
	sg.ok = true
	return sg
}

// interiorOverlap counts the points of rc inside the tile's interior; the
// remainder is redundant ghost-region recompute (CA trapezoid margins).
func interiorOverlap(rc grid.Rect, inf *tileInfo) int {
	r0, c0 := rc.R0, rc.C0
	r1, c1 := rc.R0+rc.H, rc.C0+rc.W
	if r0 < 0 {
		r0 = 0
	}
	if c0 < 0 {
		c0 = 0
	}
	if r1 > inf.rows {
		r1 = inf.rows
	}
	if c1 > inf.cols {
		c1 = inf.cols
	}
	if r1 <= r0 || c1 <= c0 {
		return 0
	}
	return (r1 - r0) * (c1 - c0)
}

// partBody is the executable closure of a split part: unpack the one halo
// the part is gated on (if any), then apply the stencil to the part's
// rectangle. Same row kernels, same cells, same order as the unsplit task.
func (b *builder) partBody(inf *tileInfo, t int, rect grid.Rect, d grid.Dir, consume bool) func(ptg.Env) {
	w := b.cfg.Weights
	w9 := b.cfg.Weights9
	nine := b.cfg.NinePoint
	return func(e ptg.Env) {
		st := b.state(e, inf)
		if consume {
			b.consumeDir(e, st, inf, d, t)
		}
		if nine {
			stencil.Apply9(w9, st.next, st.cur, rect)
		} else {
			stencil.Apply(w, st.next, st.cur, rect)
		}
	}
}

// commitBody finishes a split iteration: swap the double buffer and publish
// outgoing halos, exactly as the tail of the unsplit compute body.
func (b *builder) commitBody(inf *tileInfo, t int) func(ptg.Env) {
	return func(e ptg.Env) {
		st := b.state(e, inf)
		st.cur, st.next = st.next, st.cur
		b.produce(e, st, inf, t)
	}
}

// Apply rewrites the stencil graph b built (so b.task indexes it) with
// inner/border splitting. Unsplit tasks (init, CA boundary mid-phase steps,
// degenerate thin tiles) are copied verbatim — bodies, hints, and
// dependency closures included.
func (p *splitPass) Apply(g *ptg.Graph) (*ptg.Graph, error) {
	b := p.b
	nb := ptg.NewBuilder(g.NumNodes)
	nb.PresetSlots(g.NodeSlots, g.NodeBufSlots)
	geoms := make([]splitGeom, len(g.Tasks))
	// Pass 1: tasks. Split hints partition the original exactly: the
	// interior and border Updates/RedundantUpdates sum to the unsplit
	// task's, incoming CopyPoints land on the border task that unpacks
	// them, outgoing CopyPoints on the commit that packs them — so both
	// engines price the split graph with the same machine model, plus one
	// honest per-part task overhead.
	for ti := 0; ti < b.part.TR; ti++ {
		for tj := 0; tj < b.part.TC; tj++ {
			inf := b.tile(ti, tj)
			for t := 0; t <= b.epochs; t++ {
				orig := g.Tasks[b.task(inf, t)]
				sg := b.splitGeom(inf, t)
				geoms[b.task(inf, t)] = sg
				if !sg.ok {
					if _, err := nb.AddTask(orig); err != nil {
						return nil, err
					}
					continue
				}
				withBodies := orig.Run != nil
				// Interior: fills the steal deques at base priority while
				// border tasks (p0+1) drain first to unblock neighbors.
				it := ptg.Task{
					ID: innerID(ti, tj, t), Node: orig.Node, Kind: ptg.KindInner,
					Priority: orig.Priority, Epoch: orig.Epoch,
					Hint: ptg.CostHint{
						Rows: sg.inner.H, Cols: sg.inner.W,
						Updates: sg.inner.Size(),
					},
				}
				if withBodies {
					it.Run = b.partBody(inf, t, sg.inner, 0, false)
				}
				if _, err := nb.AddTask(it); err != nil {
					return nil, err
				}
				for _, d := range grid.AllDirs {
					if !sg.part[d] {
						continue
					}
					rc := sg.rects[d]
					own := interiorOverlap(rc, inf)
					bt := ptg.Task{
						ID: borderID(ti, tj, t, d), Node: orig.Node, Kind: ptg.KindBorder,
						Priority: orig.Priority + 1, Epoch: orig.Epoch,
						Hint: ptg.CostHint{
							Rows: rc.H, Cols: rc.W,
							Updates:          own,
							RedundantUpdates: rc.Size() - own,
						},
					}
					if sg.has[d] {
						p := inf.nbr[d]
						depth, _ := b.flow(p, d.Opposite(), t-1)
						bt.Hint.CopyPoints = b.sendRect(p, d.Opposite(), depth).Size()
					}
					if withBodies {
						bt.Run = b.partBody(inf, t, rc, d, sg.has[d])
					}
					if _, err := nb.AddTask(bt); err != nil {
						return nil, err
					}
				}
				ct := orig
				ct.Priority = orig.Priority + 1
				// The commit task only merges partial buffers; its Run is not
				// the original kernel, so the migration hooks don't apply.
				ct.Mig = nil
				_, out, _ := b.haloPoints(inf, t)
				ct.Hint = ptg.CostHint{Rows: inf.rows, Cols: inf.cols, CopyPoints: out}
				if withBodies {
					ct.Run = b.commitBody(inf, t)
				}
				if _, err := nb.AddTask(ct); err != nil {
					return nil, err
				}
			}
		}
	}
	// Pass 2: dependencies.
	for ti := 0; ti < b.part.TR; ti++ {
		for tj := 0; tj < b.part.TC; tj++ {
			inf := b.tile(ti, tj)
			for t := 0; t <= b.epochs; t++ {
				orig := &g.Tasks[b.task(inf, t)]
				sg := &geoms[b.task(inf, t)]
				if !sg.ok {
					// Replay the original dependencies verbatim; producer
					// IDs are unchanged whether or not the producer was
					// split (its commit keeps the ID).
					for _, dp := range orig.Deps {
						if err := nb.AddDep(orig.ID, g.Tasks[dp.Producer].ID, dp); err != nil {
							return nil, err
						}
					}
					continue
				}
				prev := taskID(ti, tj, t-1)
				commit := orig.ID
				if err := nb.AddDep(innerID(ti, tj, t), prev, ptg.Dep{}); err != nil {
					return nil, err
				}
				if err := nb.AddDep(commit, innerID(ti, tj, t), ptg.Dep{}); err != nil {
					return nil, err
				}
				for _, d := range grid.AllDirs {
					if !sg.part[d] {
						continue
					}
					bid := borderID(ti, tj, t, d)
					if d.Cardinal() {
						// Edge: previous commit (double buffer) plus the
						// original halo flow from direction d, reattached
						// with its Bytes and Pack/Unpack closures intact.
						if err := nb.AddDep(bid, prev, ptg.Dep{}); err != nil {
							return nil, err
						}
					} else {
						// Corner: order after the two adjacent edges whose
						// unpacked ghosts its stencil reads (the previous
						// commit is implied transitively).
						ca, cb := cornerSides(d)
						if err := nb.AddDep(bid, borderID(ti, tj, t, ca), ptg.Dep{}); err != nil {
							return nil, err
						}
						if err := nb.AddDep(bid, borderID(ti, tj, t, cb), ptg.Dep{}); err != nil {
							return nil, err
						}
					}
					if sg.has[d] {
						// Each (consumer, producer) tile pair carries exactly
						// one flow per iteration.
						pi := b.task(inf.nbr[d], t-1)
						i := slices.IndexFunc(orig.Deps, func(dp ptg.Dep) bool { return dp.Producer == pi })
						if err := nb.AddDep(bid, g.Tasks[pi].ID, orig.Deps[i]); err != nil {
							return nil, err
						}
					}
					if err := nb.AddDep(commit, bid, ptg.Dep{}); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return nb.Build()
}
