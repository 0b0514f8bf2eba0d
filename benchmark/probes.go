package main

import (
	"math"
	goruntime "runtime"
	"time"

	"castencil/internal/core"
	"castencil/internal/grid"
	"castencil/internal/membench"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
	"castencil/internal/stencil"
)

// probes runs the kernel, pack and dispatch micro-probes once, after the
// traced window of every workload. They are floors, not solves: each is the
// best of a few repeats, the reading least disturbed by the host.
func probes(m map[string]float64, info map[string]any) {
	stream := membench.Run(membench.Config{N: streamArrayLen, Reps: 3, Workers: 1})
	m["membench.stream_copy_gbs"] = stream.Copy / 1e3
	if llc := llcBytes(); streamArrayLen*8 < 4*llc {
		info["membench.label"] = "cache-assisted: the STREAM array is under 4x the last-level cache"
	}
	kernelProbes(m, stream.BytesPerSec())
	packProbes(m)
	m["runtime.empty_task_ns"] = emptyTaskNS()
	m["runtime.metg_us"] = metgMicros(info)
}

// best returns the least seconds per call of fn over reps samples of calls
// calls each.
func best(reps, calls int, fn func()) float64 {
	least := math.Inf(1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		for j := 0; j < calls; j++ {
			fn()
		}
		least = math.Min(least, time.Since(t0).Seconds()/float64(calls))
	}
	return least
}

func tilePair(n, halo int) (dst, src *grid.Tile) {
	dst, src = grid.NewTile(n, n, halo), grid.NewTile(n, n, halo)
	init := stencil.HashInit(1)
	for r := -halo; r < n+halo; r++ {
		for c := -halo; c < n+halo; c++ {
			src.Set(r, c, init(r+halo, c+halo))
		}
	}
	return dst, src
}

func kernelProbes(m map[string]float64, streamBytesPerSec float64) {
	w := stencil.Jacobi()
	apply := func(n, calls int) float64 {
		dst, src := tilePair(n, 1)
		rc := stencil.Interior(src)
		return best(5, calls, func() { stencil.Apply(w, dst, src, rc) })
	}
	big := float64(2048*2048) / apply(2048, 2)
	m["stencil.apply_mpts_s"] = big / 1e6
	// Computed, not measured: a sweep reads and writes each point once.
	m["stencil.apply_frac_of_stream"] = 16 * big / streamBytesPerSec
	m["stencil.apply_t256_mpts_s"] = float64(256*256) / apply(256, 200) / 1e6
	m["stencil.apply_t16_ns_call"] = apply(16, 50000) * 1e9

	const wb, n = 4, 32
	cur, next := tilePair(n, wb)
	regions := stencil.WavefrontRegions(n, n, wb, func(grid.Dir) bool { return true })
	points := 0
	for _, rc := range regions {
		points += rc.Size()
	}
	sec := best(5, 5000, func() { stencil.Wavefront(w, cur, next, regions) })
	m["stencil.wavefront_mpts_s"] = float64(points) / sec / 1e6
}

// packProbes times the halo serialisation of a 256x256 tile at depth 1:
// north is one contiguous row, west one strided column.
func packProbes(m map[string]float64) {
	_, t := tilePair(256, 1)
	row, col := t.EdgeRect(grid.North, 1), t.EdgeRect(grid.West, 1)
	buf := make([]byte, row.Bytes())
	packRow := func() { buf = t.PackBytes(row, buf) }
	packCol := func() { buf = t.PackBytes(col, buf) }
	unpackRow := func() { t.UnpackBytes(t.HaloRect(grid.North, 1), buf) }
	unpackCol := func() { t.UnpackBytes(t.HaloRect(grid.West, 1), buf) }
	const calls = 20000
	m["grid.pack_row_ns"] = best(5, calls, packRow) * 1e9
	m["grid.pack_col_ns"] = best(5, calls, packCol) * 1e9
	m["grid.unpack_row_ns"] = best(5, calls, unpackRow) * 1e9
	m["grid.unpack_col_ns"] = best(5, calls, unpackCol) * 1e9
	// Mallocs is process-wide, and a fleet rig's probers allocate in the
	// background: the least of a few short tries is the path's own count.
	allocs := uint64(math.MaxUint64)
	var m0, m1 goruntime.MemStats
	for try := 0; try < 5; try++ {
		goruntime.ReadMemStats(&m0)
		for i := 0; i < 100; i++ {
			packRow()
			packCol()
			unpackRow()
			unpackCol()
		}
		goruntime.ReadMemStats(&m1)
		allocs = min(allocs, m1.Mallocs-m0.Mallocs)
	}
	m["grid.pack_allocs"] = float64(allocs)
}

// emptyTaskNS is the runtime's cost of one task with nothing in it: 64
// chains of 1000 empty-body tasks, each depending on its predecessor and
// the predecessors of the two neighbouring chains, on one node and one
// worker.
func emptyTaskNS() float64 {
	const chains, length = 64, 1000
	id := func(c, k int) ptg.TaskID { return ptg.TaskID{Class: "e", I: c, K: k} }
	build := func() *ptg.Graph {
		b := ptg.NewBuilder(1)
		for c := 0; c < chains; c++ {
			for k := 0; k < length; k++ {
				if _, err := b.AddTask(ptg.Task{ID: id(c, k), Run: func(ptg.Env) {}}); err != nil {
					panic(err)
				}
			}
		}
		for c := 0; c < chains; c++ {
			for k := 1; k < length; k++ {
				for _, p := range []int{c - 1, c, c + 1} {
					if p < 0 || p >= chains {
						continue
					}
					if err := b.AddDep(id(c, k), id(p, k-1), ptg.Dep{}); err != nil {
						panic(err)
					}
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			panic(err)
		}
		return g
	}
	least := math.Inf(1)
	for i := 0; i < 3; i++ {
		res, err := runtime.Run(build(), runtime.Options{Workers: 1})
		if err != nil {
			panic(err)
		}
		least = math.Min(least, res.Elapsed.Seconds())
	}
	return least * 1e9 / (chains * length)
}

// metgMicros is Task Bench's METG(50%): the task granularity at which the
// runtime still delivers half of its best throughput. The sweep solves
// Base N=512 for 20 steps on one node and one worker over five tile sizes;
// efficiency is points/s over the sweep's best, granularity the mean task
// busy time, and the 50% point is interpolated on log granularity.
func metgMicros(info map[string]any) float64 {
	tiles := []int{8, 16, 32, 64, 128}
	rate := make([]float64, len(tiles)) // points/s
	gran := make([]float64, len(tiles)) // mean task busy time, us
	for i, tile := range tiles {
		cfg := core.Config{N: 512, TileRows: tile, P: 1, Steps: 20, WithBodies: true}
		for rep := 0; rep < 2; rep++ {
			g, err := core.BuildGraph(core.Base, cfg)
			if err != nil {
				panic(err)
			}
			res, err := runtime.Run(g, runtime.Options{Workers: 1})
			if err != nil {
				panic(err)
			}
			if r := float64(cfg.N*cfg.N*cfg.Steps) / res.Elapsed.Seconds(); r > rate[i] {
				rate[i] = r
				gran[i] = res.NodeBusy[0].Seconds() * 1e6 / float64(res.Completed)
			}
		}
	}
	peak := 0.0
	for _, r := range rate {
		peak = math.Max(peak, r)
	}
	eff := make([]float64, len(tiles))
	for i := range tiles {
		eff[i] = rate[i] / peak
	}
	info["metg.tiles"], info["metg.efficiency"], info["metg.task_us"] = tiles, eff, gran
	// Efficiency rises with tile size; find the pair that brackets 0.5.
	for i := 1; i < len(tiles); i++ {
		if eff[i-1] < 0.5 && eff[i] >= 0.5 {
			f := (0.5 - eff[i-1]) / (eff[i] - eff[i-1])
			return math.Exp(math.Log(gran[i-1]) + f*(math.Log(gran[i])-math.Log(gran[i-1])))
		}
	}
	if eff[0] >= 0.5 {
		return gran[0] // every size is efficient: METG is below the sweep
	}
	return gran[len(gran)-1]
}
