package main

// This file is the benchmark's fixed vocabulary: the five workloads, the
// end-to-end metrics with their regression bounds, and the per-layer metric
// names. BENCHMARK.json at the repository root mirrors it (spec_test.go
// keeps the two in step); every later issue names its claim with these
// names.

type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"jacobi-large", "kernel-bound: 6.4k tasks of 65k points, stencil.Apply does ~90% of the work; a build, dispatch or wire change must not move it"},
	{"ca-small-tiles", "the paper's CA scheme at task-overhead granularity: ~50k tasks of 256 points, so graph build, dispatch, slot rings and coalesced lanes dominate"},
	{"mesh-base-p2p", "the only workload that crosses netcomm: 2 ranks over loopback TCP, 1604 small frames per solve and rank, epoch barriers and a wire gather"},
	{"sim-paper", "the paper's own tile and step size on the simulator that regenerates every figure: ptg, cost-only BuildGraph, desim and netsim, no kernel"},
	{"fleet-mix", "the service path for small jobs: gateway, manager and HTTP cost more than the stencil; closed loop of cache hits and misses over three kernel families"},
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricDef names one metric. Bound is the relative worsening of an
// end-to-end metric that counts as a regression; per-layer metrics carry
// none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists the gated metrics. Every workload reports every one: an
// "op" is one Run/Sim call on the solver workloads and one fresh-spec
// (cache-miss) job on fleet-mix, so the solve_* and job_miss_* rows read
// the same samples in seconds and milliseconds (see README.md). Timings
// carry the widest bound the pipeline allows because this host's timing
// noise comes in phases of up to +-20% (README.md, "Steadiness"); the
// allocation count repeats exactly and is the tight gate.
var endToEnd = []metricDef{
	{"solve_s_p50", "s", "lower", 0.25},
	{"solve_s_p75", "s", "lower", 0.25},
	{"alloc_mb_per_solve", "MB", "lower", 0.02},
	{"job_miss_ms_p50", "ms", "lower", 0.25},
	{"job_miss_ms_p95", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// failedFrac is the ninth end-to-end figure. It is zero on a healthy run,
// so it cannot carry a relative bound: any increase is a regression. The
// driver-facing output reports it as the attempted/failed/correct keys.
var failedFrac = metricDef{Name: "failed_frac", Unit: "fraction", Better: "lower"}

// perLayer lists the metrics of a traced run, in the order of the table in
// README.md. A metric whose layer a workload does not cross reads 0 there.
var perLayer = []metricDef{
	{Name: "membench.stream_copy_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "stencil.apply_mpts_s", Unit: "Mpts/s", Better: "higher"},
	{Name: "stencil.apply_frac_of_stream", Unit: "fraction", Better: "higher"},
	{Name: "stencil.apply_t256_mpts_s", Unit: "Mpts/s", Better: "higher"},
	{Name: "stencil.apply_t16_ns_call", Unit: "ns", Better: "lower"},
	{Name: "stencil.wavefront_mpts_s", Unit: "Mpts/s", Better: "higher"},
	{Name: "grid.pack_row_ns", Unit: "ns", Better: "lower"},
	{Name: "grid.pack_col_ns", Unit: "ns", Better: "lower"},
	{Name: "grid.unpack_row_ns", Unit: "ns", Better: "lower"},
	{Name: "grid.unpack_col_ns", Unit: "ns", Better: "lower"},
	{Name: "grid.pack_allocs", Unit: "count", Better: "lower"},
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.build_ns_task", Unit: "ns", Better: "lower"},
	{Name: "core.build_allocs_task", Unit: "count", Better: "lower"},
	{Name: "core.build_mb", Unit: "MB", Better: "lower"},
	{Name: "core.tasks", Unit: "count", Better: "lower"},
	{Name: "core.cross_deps", Unit: "count", Better: "lower"},
	{Name: "core.cross_bytes", Unit: "B", Better: "lower"},
	{Name: "ptg.bundles", Unit: "count", Better: "lower"},
	{Name: "ptg.bundle_plan_s", Unit: "s", Better: "lower"},
	{Name: "core.gather_s", Unit: "s", Better: "lower"},
	{Name: "runtime.exec_s", Unit: "s", Better: "lower"},
	{Name: "runtime.busy_s", Unit: "s", Better: "lower"},
	{Name: "runtime.overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "runtime.ns_task", Unit: "ns", Better: "lower"},
	{Name: "runtime.empty_task_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.metg_us", Unit: "us", Better: "lower"},
	{Name: "runtime.messages", Unit: "count", Better: "lower"},
	{Name: "runtime.bytes_sent", Unit: "B", Better: "lower"},
	{Name: "runtime.bundles", Unit: "count", Better: "lower"},
	{Name: "runtime.bundle_fill", Unit: "count", Better: "higher"},
	{Name: "runtime.local_hits", Unit: "count", Better: "higher"},
	{Name: "runtime.steals", Unit: "count", Better: "lower"},
	{Name: "runtime.parks", Unit: "count", Better: "lower"},
	{Name: "runtime.dropped", Unit: "count", Better: "lower"},
	{Name: "solve.unattributed_frac", Unit: "fraction", Better: "lower"},
	{Name: "netcomm.connect_s", Unit: "s", Better: "lower"},
	{Name: "netcomm.frames_solve", Unit: "count", Better: "lower"},
	{Name: "netcomm.wire_bytes_solve", Unit: "B", Better: "lower"},
	{Name: "netcomm.dials_solve", Unit: "count", Better: "lower"},
	{Name: "netcomm.reconnects", Unit: "count", Better: "lower"},
	{Name: "netcomm.barrier_us", Unit: "us", Better: "lower"},
	{Name: "netcomm.gather_mbs", Unit: "MB/s", Better: "higher"},
	{Name: "mesh.tax_frac", Unit: "fraction", Better: "lower"},
	{Name: "mesh.rank_skew_frac", Unit: "fraction", Better: "lower"},
	{Name: "mesh.sync_gather_s", Unit: "s", Better: "lower"},
	{Name: "desim.sim_s", Unit: "s", Better: "lower"},
	{Name: "desim.tasks_s", Unit: "1/s", Better: "higher"},
	{Name: "desim.makespan_s", Unit: "s", Better: "lower"},
	{Name: "desim.messages", Unit: "count", Better: "lower"},
	{Name: "run.direct_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.job_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.tax_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http_job_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.http_tax_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.result_grid_ms", Unit: "ms", Better: "lower"},
	{Name: "server.result_kb", Unit: "KB", Better: "lower"},
	{Name: "gateway.miss_tax_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "gateway.hit_us_p95", Unit: "us", Better: "lower"},
	{Name: "gateway.submit_hit_us", Unit: "us", Better: "lower"},
	{Name: "gateway.hit_ratio", Unit: "fraction", Better: "higher"},
	{Name: "gateway.backend_execs", Unit: "count", Better: "lower"},
	{Name: "gateway.retries", Unit: "count", Better: "lower"},
	{Name: "gateway.failovers", Unit: "count", Better: "lower"},
	{Name: "gateway.rejected", Unit: "count", Better: "lower"},
	{Name: "gateway.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "fraction", Better: "lower"},
}
