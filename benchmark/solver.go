package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"castencil"
	"castencil/internal/core"
	"castencil/internal/grid"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
	"castencil/internal/stencil"
)

// minReps is the least number of timed solves in a window; a run continues
// past its window to reach it, so p75 always has ten samples beyond it.
const minReps = 40

// solver is one of the four solver workloads, resolved for a seed.
type solver struct {
	name     string
	variant  castencil.Variant
	cfg      castencil.Config
	coalesce castencil.CoalesceMode
	sim      bool
	mesh     bool
	ranks    [2]*castencil.NetTransport // mesh only
	lastSim  *castencil.SimResult       // sim only: the latest result
}

// newSolver fixes the inputs of a solver workload. The seed picks the
// initial condition; the program under test sees only the generated
// Config. Every option the workload does not name stays at the library
// default.
func newSolver(name string, seed uint64) *solver {
	s := &solver{name: name}
	switch name {
	case "jacobi-large":
		s.variant = castencil.Base
		s.cfg = castencil.Config{N: 2048, TileRows: 256, P: 2, Steps: 50}
	case "ca-small-tiles":
		s.variant = castencil.CA
		s.cfg = castencil.Config{N: 512, TileRows: 16, P: 2, Steps: 48, StepSize: 4}
		s.coalesce = castencil.CoalesceStep
	case "mesh-base-p2p":
		s.variant = castencil.Base
		s.cfg = castencil.Config{N: 512, TileRows: 32, P: 2, Steps: 100}
		s.mesh = true
	case "sim-paper":
		s.variant = castencil.CA
		s.cfg = castencil.Config{N: 11520, TileRows: 288, P: 2, Steps: 50, StepSize: 15}
		s.sim = true
	}
	s.cfg.Init = castencil.HashInit(seed)
	return s
}

// connect brings up the two-rank loopback mesh once; every solve reuses it.
func (s *solver) connect() error {
	var lns [2]net.Listener
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	var errs [2]error
	var wg sync.WaitGroup
	for r := range s.ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.ranks[r], errs[r] = castencil.NetConnect(r, addrs, castencil.NetOptions{Listener: lns[r]})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close()
			return fmt.Errorf("netcomm connect: %w", err)
		}
	}
	return nil
}

func (s *solver) close() {
	for _, t := range s.ranks {
		if t != nil {
			t.Close()
		}
	}
}

func (s *solver) runOpts() []castencil.Option {
	return []castencil.Option{castencil.WithWorkers(1), castencil.WithCoalesce(s.coalesce)}
}

// solved is what one solve through the public facade gave back.
type solved struct {
	// sig is the solve's signature: the grid's sha256 for a real run, the
	// simulated makespan and traffic for sim-paper. Signatures are checked
	// after the window (see verify).
	sig  string
	dur  time.Duration   // the caller's wait: on the mesh, until both ranks return
	exec *runtime.Result // nil for sim-paper; rank 0's on the mesh
	skew float64         // mesh only: how much sooner the faster rank returned, as a share
	// toFirstTask is the time from the call to the engine's first progress
	// report (rank 0's on the mesh): the graph is built and, for a real run,
	// the executor is set up and past its start barrier. Traced solves only.
	toFirstTask time.Duration
}

// firstTask is a WithProgress callback that closes the "solve.to_first_task"
// span at the engine's first report. Engines report progress from several
// goroutines, hence the atomic.
type firstTask struct {
	rec  *recorder
	t0   time.Time
	span int
	at   atomic.Int64 // ns since t0; 0 until the first report
}

func (f *firstTask) option(rec *recorder, parent, op, rank int) castencil.Option {
	f.rec, f.t0 = rec, time.Now()
	f.span = rec.begin("solve.to_first_task", parent, op, rank)
	return castencil.WithProgress(func(done, total int64) {
		if f.at.CompareAndSwap(0, int64(time.Since(f.t0))) {
			f.rec.end(f.span)
		}
	})
}

// solve is one end-to-end solve through the public facade. With a recorder
// it runs under a "solve" span per calling goroutine and, where the facade
// call does not come apart (sim, mesh), marks the engine's first task.
func (s *solver) solve(h *gridHasher, rec *recorder, op int) (solved, error) {
	switch {
	case s.sim:
		opts := []castencil.Option{castencil.WithMachine(castencil.NaCL())}
		var first firstTask
		id := rec.begin("solve", 0, op, 0)
		if rec != nil {
			opts = append(opts, first.option(rec, id, op, 0))
		}
		t0 := time.Now()
		res, err := castencil.Sim(s.variant, s.cfg, opts...)
		dur := time.Since(t0)
		rec.end(id)
		if err != nil {
			return solved{}, err
		}
		s.lastSim = res
		return solved{sig: simSig(res), dur: dur, toFirstTask: time.Duration(first.at.Load())}, nil
	case s.mesh:
		var out [2]*castencil.RealResult
		var errs [2]error
		var durs [2]float64
		var first [2]firstTask
		var wg sync.WaitGroup
		t0 := time.Now()
		for r, t := range s.ranks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				opts := append(s.runOpts(), castencil.WithCluster(castencil.ClusterOptions{Transport: t}))
				id := rec.begin("solve", 0, op, r)
				if rec != nil {
					opts = append(opts, first[r].option(rec, id, op, r))
				}
				out[r], errs[r] = castencil.Run(s.variant, s.cfg, opts...)
				rec.end(id)
				durs[r] = time.Since(t0).Seconds()
			}()
		}
		wg.Wait()
		dur := time.Since(t0)
		for _, err := range errs {
			if err != nil {
				return solved{}, err
			}
		}
		hi, lo := math.Max(durs[0], durs[1]), math.Min(durs[0], durs[1])
		return solved{sig: h.sum(out[0].Grid), dur: dur, exec: counters(out[0].Exec), skew: (hi - lo) / hi,
			toFirstTask: time.Duration(first[0].at.Load())}, nil
	default:
		t0 := time.Now()
		res, err := castencil.Run(s.variant, s.cfg, s.runOpts()...)
		dur := time.Since(t0)
		if err != nil {
			return solved{}, err
		}
		return solved{sig: h.sum(res.Grid), dur: dur, exec: counters(res.Exec)}, nil
	}
}

// counters copies a run's result without its stores, so keeping the
// counters of one solve does not keep its tiles alive into the next.
func counters(r *runtime.Result) *runtime.Result {
	c := *r
	c.Stores = nil
	return &c
}

func simSig(r *castencil.SimResult) string {
	return fmt.Sprintf("makespan=%d messages=%d bytes=%d", r.Makespan, r.Messages, r.BytesSent)
}

// verify checks every solve's signature and returns one message per failed
// solve. A real run must reproduce the sequential oracle bitwise. A
// simulated run must repeat itself exactly and send what the graph says
// crosses nodes. It runs after the window and after peak RSS is read, so
// the oracle's time and memory are not the program's.
func (s *solver) verify(sigs []string) ([]string, error) {
	var want string
	if s.sim {
		st, err := core.GraphStats(s.variant, s.cfg)
		if err != nil {
			return nil, err
		}
		want = fmt.Sprintf("makespan=%d messages=%d bytes=%d", s.lastSim.Makespan, st.CrossDeps, st.CrossBytes)
	} else {
		want = oracleSHA(s.cfg.N, s.cfg.Steps, s.cfg.Init)
	}
	return mismatches(sigs, want), nil
}

func mismatches(sigs []string, want string) []string {
	var bad []string
	for i, sig := range sigs {
		if sig != want {
			bad = append(bad, fmt.Sprintf("solve %d: got %s, want %s", i, sig, want))
		}
	}
	return bad
}

// oracleSHA is the fingerprint of the sequential reference after steps
// Jacobi sweeps from init, on the library's default zero boundary.
func oracleSHA(n, steps int, init castencil.Init) string {
	ref := stencil.NewReference(n, stencil.Jacobi(), init, stencil.ConstBoundary(0))
	ref.Run(steps)
	return castencil.GridSHA256(ref.Grid())
}

// gridHasher computes castencil.GridSHA256 through a reused row buffer, so
// checking a 32 MB grid after every solve leaves no garbage behind for the
// next timed solve to collect.
type gridHasher struct{ row []byte }

func (h *gridHasher) sum(g *grid.Tile) string {
	if need := g.Cols * 8; cap(h.row) < need {
		h.row = make([]byte, need)
	}
	row := h.row[:g.Cols*8]
	d := sha256.New()
	for r := 0; r < g.Rows; r++ {
		for c, v := range g.Row(r, 0, g.Cols) {
			binary.LittleEndian.PutUint64(row[c*8:], math.Float64bits(v))
		}
		d.Write(row)
	}
	return hex.EncodeToString(d.Sum(nil))
}

// childResult is what a measuring process hands its parent on stdout.
type childResult struct {
	// ColdEndUnixNano is the wall clock at the end of the first, cold solve
	// or job; the parent subtracts the time it started the process.
	ColdEndUnixNano int64              `json:"cold_end_unix_nano"`
	Attempted       int                `json:"attempted"`
	Failed          int                `json:"failed"`
	Errors          []string           `json:"errors,omitempty"`
	Metrics         map[string]float64 `json:"metrics"`
	Info            map[string]any     `json:"info,omitempty"`
}

func (c *childResult) fail(msgs ...string) {
	c.Failed += len(msgs)
	for _, m := range msgs {
		if len(c.Errors) < 8 {
			c.Errors = append(c.Errors, m)
		}
	}
}

// timedSolves runs solves back to back until the window has passed and
// minReps are in. Allocation is read around each solve, so the benchmark's
// own checking between solves is not charged to the program.
type timedSolves struct {
	durs  []float64 // seconds
	alloc uint64    // bytes allocated inside solves
	sigs  []string
}

func (s *solver) window(seconds float64, h *gridHasher, res *childResult) timedSolves {
	var ts timedSolves
	var m0, m1 goruntime.MemStats
	start := time.Now()
	for len(ts.durs) < minReps || time.Since(start).Seconds() < seconds {
		goruntime.ReadMemStats(&m0)
		out, err := s.solve(h, nil, 0)
		goruntime.ReadMemStats(&m1)
		res.Attempted++
		if err != nil {
			res.fail(err.Error())
			if res.Failed > minReps {
				break // a broken program must not spin for the whole window
			}
			continue
		}
		ts.durs = append(ts.durs, out.dur.Seconds())
		ts.alloc += m1.TotalAlloc - m0.TotalAlloc
		ts.sigs = append(ts.sigs, out.sig)
	}
	return ts
}

// runSolver is the measuring process of a solver workload.
func runSolver(name string, seed uint64, seconds float64, trace, coldOnly bool) (*childResult, error) {
	s := newSolver(name, seed)
	res := &childResult{Metrics: map[string]float64{}, Info: map[string]any{}}
	rec := (*recorder)(nil)
	if trace {
		rec = newRecorder()
	}
	if s.mesh {
		id := rec.begin("netcomm.Connect", 0, 0, 0)
		if err := s.connect(); err != nil {
			return nil, err
		}
		rec.end(id)
		defer s.close()
	}
	h := &gridHasher{}
	cold, err := s.solve(h, nil, 0)
	res.ColdEndUnixNano = time.Now().UnixNano()
	if err != nil {
		return nil, fmt.Errorf("cold solve: %w", err)
	}
	if coldOnly {
		return res, nil
	}
	warm, err := s.solve(h, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	res.Attempted = 2
	sigs := []string{cold.sig, warm.sig}

	if trace {
		sigs = append(sigs, s.traced(rec, seconds/2, h, res)...)
		if err := rec.write(spansPath(name), name, seed); err != nil {
			return nil, err
		}
	} else {
		ts := s.window(seconds, h, res)
		if len(ts.durs) == 0 {
			return nil, fmt.Errorf("no solve succeeded: %v", res.Errors)
		}
		sigs = append(sigs, ts.sigs...)
		res.Metrics["peak_rss_mb"] = peakRSSMB()
		latencyMetrics(res, ts.durs)
		res.Metrics["alloc_mb_per_solve"] = float64(ts.alloc) / 1e6 / float64(len(ts.durs))
		res.Metrics["jobs_per_s"] = float64(len(ts.durs)) / sum(ts.durs)
		if s.sim {
			res.Info["sim_gflops"] = s.lastSim.GFLOPS
		} else {
			res.Info["gflops"] = 9 * float64(s.cfg.N) * float64(s.cfg.N) * float64(s.cfg.Steps) / res.Metrics["solve_s_p50"] / 1e9
		}
	}
	bad, err := s.verify(sigs)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	res.fail(bad...)
	return res, nil
}

// latencyMetrics fills the four latency rows from one sample of op
// durations in seconds. The tail rows fall back to the highest percentile
// the sample supports (see supportedPercentile); Info records which.
func latencyMetrics(res *childResult, durs []float64) {
	n := len(durs)
	p75 := supportedPercentile(n, 0.75)
	p95 := supportedPercentile(n, 0.95)
	res.Metrics["solve_s_p50"] = median(durs)
	res.Metrics["solve_s_p75"] = quantile(durs, p75)
	res.Metrics["job_miss_ms_p50"] = median(durs) * 1e3
	res.Metrics["job_miss_ms_p95"] = quantile(durs, p95) * 1e3
	res.Info["samples"] = n
	res.Info["solve_s_p75_percentile"] = p75
	res.Info["job_miss_ms_p95_percentile"] = p95
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// traced runs the traced half of a -trace run: a third of the window
// through the facade for the untraced baseline, the rest with the facade
// call replaced by its three layer calls, each in a child span of "solve".
// Probes follow the window. It returns the signatures to verify.
func (s *solver) traced(rec *recorder, seconds float64, h *gridHasher, res *childResult) []string {
	m := res.Metrics
	var sigs []string
	var plain []float64
	for start := time.Now(); time.Since(start).Seconds() < seconds/3 || len(plain) < 5; {
		out, err := s.solve(h, nil, 0)
		res.Attempted++
		if err != nil {
			res.fail(err.Error())
			return sigs
		}
		plain = append(plain, out.dur.Seconds())
		sigs = append(sigs, out.sig)
	}

	var stats0 [2]netStats
	if s.mesh {
		stats0 = s.netStats()
	}
	layered := !s.sim && !s.mesh // the facade call comes apart at public seams
	var solves, unattributed, skew, execs, toFirst, rest []float64
	var last *runtime.Result
	for start, op := time.Now(), 1; time.Since(start).Seconds() < seconds*2/3 || op <= 5; op++ {
		res.Attempted++
		var out solved
		var err error
		if layered {
			var un float64
			out, un, err = s.layeredSolve(rec, op, h)
			unattributed = append(unattributed, un)
		} else {
			out, err = s.solve(h, rec, op)
		}
		if err != nil {
			res.fail(err.Error())
			return sigs
		}
		solves = append(solves, out.dur.Seconds())
		skew = append(skew, out.skew)
		toFirst = append(toFirst, out.toFirstTask.Seconds())
		after := out.dur - out.toFirstTask // what follows the first task
		if last = out.exec; s.mesh {
			execs = append(execs, last.Elapsed.Seconds())
			after -= last.Elapsed
		}
		rest = append(rest, after.Seconds())
		sigs = append(sigs, out.sig)
	}
	res.Info["traced_solves"] = len(solves)
	res.Info["untraced_solves"] = len(plain)
	m["bench.trace_overhead_frac"] = median(solves)/median(plain) - 1

	// Where the facade call does not come apart, the engine's first task
	// splits it: what comes before is the build (and, on the mesh, executor
	// set-up and the start barrier); what comes after is the engine.
	g := s.buildProbe(m)
	solveP50 := median(solves)
	switch {
	case s.sim:
		m["core.build_s"] = median(toFirst)
		m["desim.sim_s"] = median(rest)
		m["desim.tasks_s"] = float64(s.lastSim.Sim.Tasks) / median(rest)
		m["desim.makespan_s"] = s.lastSim.Makespan.Seconds()
		m["desim.messages"] = float64(s.lastSim.Messages)
	case s.mesh:
		m["core.build_s"] = median(toFirst)
		m["runtime.exec_s"] = median(execs)
		m["mesh.sync_gather_s"] = median(rest)
		m["mesh.rank_skew_frac"] = median(skew)
		m["netcomm.connect_s"] = median(rec.durations("netcomm.Connect"))
		d := s.netStats()
		n := float64(len(solves))
		m["netcomm.frames_solve"] = float64(d[0].frames-stats0[0].frames) / n
		m["netcomm.wire_bytes_solve"] = float64(d[0].bytes-stats0[0].bytes) / n
		m["netcomm.dials_solve"] = float64(d[0].dials-stats0[0].dials) / n
		m["netcomm.reconnects"] = float64(d[0].reconnects)
		if local := s.inProcessP50(h, res); local > 0 {
			m["mesh.tax_frac"] = solveP50/local - 1
		}
		s.netProbes(m)
	case layered:
		m["core.build_s"] = median(rec.durations("core.BuildGraph"))
		m["runtime.exec_s"] = median(rec.durations("runtime.Run"))
		m["core.gather_s"] = median(rec.durations("core.Gather"))
		m["solve.unattributed_frac"] = median(unattributed)
	}
	tasks := float64(len(g.Tasks))
	m["core.build_ns_task"] = m["core.build_s"] * 1e9 / tasks
	if last != nil {
		runtimeCounters(m, last, tasks)
	}
	probes(m, res.Info)
	return sigs
}

// layeredSolve is castencil.Run taken apart at its public seams. It also
// returns the share of the solve span its three layer spans leave uncovered.
func (s *solver) layeredSolve(rec *recorder, op int, h *gridHasher) (out solved, unattributed float64, err error) {
	cfg := s.cfg
	cfg.WithBodies = true
	part, err := cfg.Partition()
	if err != nil {
		return solved{}, 0, err
	}
	top := rec.begin("solve", 0, op, 0)
	id := rec.begin("core.BuildGraph", top, op, 0)
	g, err := core.BuildGraph(s.variant, cfg)
	build := rec.end(id)
	if err != nil {
		return solved{}, 0, err
	}
	id = rec.begin("runtime.Run", top, op, 0)
	r, err := runtime.Run(g, runtime.Options{Workers: 1, Coalesce: s.coalesce})
	exec := rec.end(id)
	if err != nil {
		return solved{}, 0, err
	}
	id = rec.begin("core.Gather", top, op, 0)
	full, err := core.Gather(part, r.Stores)
	gather := rec.end(id)
	total := rec.end(top)
	if err != nil {
		return solved{}, 0, err
	}
	return solved{sig: h.sum(full), dur: total, exec: counters(r)}, 1 - (build+exec+gather).Seconds()/total.Seconds(), nil
}

// buildProbe builds the workload's graph once on its own, for the exact
// counts and the build's allocation.
func (s *solver) buildProbe(m map[string]float64) *ptg.Graph {
	cfg := s.cfg
	cfg.WithBodies = !s.sim
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	g, err := core.BuildGraph(s.variant, cfg)
	goruntime.ReadMemStats(&m1)
	if err != nil {
		panic(err) // the same build succeeded inside every solve
	}
	st := g.ComputeStats()
	m["core.build_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	m["core.build_allocs_task"] = float64(m1.Mallocs-m0.Mallocs) / float64(st.Tasks)
	m["core.tasks"] = float64(st.Tasks)
	m["core.cross_deps"] = float64(st.CrossDeps)
	m["core.cross_bytes"] = float64(st.CrossBytes)
	t0 := time.Now()
	if bundles, err := g.Bundles(); err == nil {
		m["ptg.bundle_plan_s"] = time.Since(t0).Seconds()
		m["ptg.bundles"] = float64(len(bundles))
	}
	return g
}

func runtimeCounters(m map[string]float64, r *runtime.Result, tasks float64) {
	busy := time.Duration(0)
	for _, b := range r.NodeBusy {
		busy += b
	}
	total := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return float64(t)
	}
	// One worker per virtual node, so at most GOMAXPROCS run at once.
	par := math.Min(float64(len(r.NodeBusy)), float64(goruntime.GOMAXPROCS(0)))
	exec := m["runtime.exec_s"]
	m["runtime.busy_s"] = busy.Seconds()
	m["runtime.overhead_frac"] = 1 - busy.Seconds()/(exec*par)
	m["runtime.ns_task"] = exec * 1e9 / tasks
	m["runtime.messages"] = float64(r.Messages)
	m["runtime.bytes_sent"] = float64(r.BytesSent)
	m["runtime.bundles"] = float64(r.BundlesSent)
	m["runtime.bundle_fill"] = r.BundleFill()
	m["runtime.local_hits"] = total(r.NodeLocalHits)
	m["runtime.steals"] = total(r.NodeSteals)
	m["runtime.parks"] = total(r.NodeParks)
	m["runtime.dropped"] = float64(r.Dropped)
}

type netStats struct{ frames, bytes, dials, reconnects int64 }

func (s *solver) netStats() [2]netStats {
	var out [2]netStats
	for r, t := range s.ranks {
		st := t.Stats()
		out[r] = netStats{st.FramesSent, st.BytesSent, st.Dials, st.Reconnects}
	}
	return out
}

// inProcessP50 solves the mesh workload's configuration in one process, for
// the mesh tax.
func (s *solver) inProcessP50(h *gridHasher, res *childResult) float64 {
	local := *s
	local.mesh = false
	var durs []float64
	for i := 0; i < 10; i++ {
		out, err := local.solve(h, nil, 0)
		if err != nil {
			res.fail(err.Error())
			return 0
		}
		durs = append(durs, out.dur.Seconds())
	}
	return median(durs)
}

// netProbes times the transport's two collectives on the idle mesh: the
// loopback floor under every barrier and gather of a solve.
func (s *solver) netProbes(m map[string]float64) {
	const barriers, gathers, payload = 200, 10, 2 << 20
	var lat, mbs []float64
	var wg sync.WaitGroup
	for r, t := range s.ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.Begin()
			buf := make([]byte, payload)
			for i := 0; i < barriers; i++ {
				t0 := time.Now()
				if err := t.Barrier("probe"); err != nil {
					return
				}
				if r == 0 {
					lat = append(lat, time.Since(t0).Seconds()*1e6)
				}
			}
			for i := 0; i < gathers; i++ {
				t0 := time.Now()
				if _, err := t.Gather("probe", buf); err != nil {
					return
				}
				if r == 0 {
					mbs = append(mbs, payload/1e6/time.Since(t0).Seconds())
				}
			}
		}()
	}
	wg.Wait()
	m["netcomm.barrier_us"] = median(lat)
	m["netcomm.gather_mbs"] = median(mbs)
}
