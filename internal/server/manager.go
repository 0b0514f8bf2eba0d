package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	castencil "castencil"
	"castencil/internal/metrics"
)

// Config sizes a Manager.
type Config struct {
	// QueueSize bounds the admission queue across all priority classes
	// (default 64). A submission arriving at a full queue fails with
	// ErrQueueFull.
	QueueSize int
	// MaxJobs is the executor pool size — jobs running concurrently
	// (default 2).
	MaxJobs int
	// WorkerBudget is the total per-node compute workers the manager
	// divides across concurrently running real jobs that do not pin their
	// own count (default GOMAXPROCS, floor 1): a job with Workers=0 runs
	// with max(1, WorkerBudget/(MaxJobs*nodes)) workers per node, so the
	// service's goroutine appetite stays bounded whatever jobs arrive.
	// Worker count never changes numerics, only latency.
	WorkerBudget int
	// DefaultTimeout bounds jobs without their own timeout_ms (0 = none).
	DefaultTimeout time.Duration
	// Registry receives the service metrics (nil = a fresh registry).
	Registry *metrics.Registry
	// Transport is the distributed mesh of a multi-rank deployment (nil =
	// single-process daemon). A job submitted with ranks>0 runs across it:
	// rank 0 broadcasts the spec over the mesh and runs with the shared
	// transport while every follower executes the broadcast through
	// RunFollower. Distributed jobs serialize — the mesh carries one run
	// at a time, in the same order on every rank.
	Transport *castencil.NetTransport
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2
	}
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = runtime.GOMAXPROCS(0)
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	return c
}

// Manager is the daemon: a Core whose executor runs jobs on the local
// engines, dividing the host's worker budget across them. All exported
// methods are safe for concurrent use.
type Manager struct {
	*Core
	cfg Config

	// distMu serializes distributed jobs: every rank must execute mesh
	// broadcasts in the same order, so rank 0 admits one onto the wire at
	// a time (local single-process jobs run unserialized alongside).
	distMu sync.Mutex

	// Instruments. Counter families are documented in DESIGN.md.
	mSubmitted  *metrics.Counter
	mRejected   *metrics.Counter
	mTasks      *metrics.Counter
	mSteals     *metrics.Counter
	mMessages   *metrics.Counter
	mBytes      *metrics.Counter
	mBundles    *metrics.Counter
	mSegments   *metrics.Counter
	mRetransmit *metrics.Counter
	mDuration   map[string]*metrics.Histogram // by engine
	mQueueWait  *metrics.Histogram
}

// New starts a manager and its executor slots.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{cfg: cfg}
	r := cfg.Registry
	m.mSubmitted = r.Counter("stencild_jobs_submitted_total", "jobs accepted into the admission queue", nil)
	m.mRejected = r.Counter("stencild_jobs_rejected_total", "submissions rejected by queue-full backpressure", nil)
	m.mTasks = r.Counter("stencild_tasks_executed_total", "graph tasks executed across all jobs", nil)
	m.mSteals = r.Counter("stencild_steals_total", "work-stealing scheduler steals across all jobs", nil)
	m.mMessages = r.Counter("stencild_messages_total", "inter-node wire messages across all jobs", nil)
	m.mBytes = r.Counter("stencild_bytes_sent_total", "inter-node wire bytes across all jobs", nil)
	m.mBundles = r.Counter("stencild_bundles_total", "coalesced halo bundles sent across all jobs", nil)
	m.mSegments = r.Counter("stencild_bundle_segments_total", "member transfers carried by coalesced bundles", nil)
	m.mRetransmit = r.Counter("stencild_retransmits_total", "reliable-transport retransmissions across all jobs", nil)
	m.mDuration = map[string]*metrics.Histogram{
		"real": r.Histogram("stencild_job_duration_seconds", "job run wall time by engine", nil, metrics.Labels{"engine": "real"}),
		"sim":  r.Histogram("stencild_job_duration_seconds", "job run wall time by engine", nil, metrics.Labels{"engine": "sim"}),
	}
	m.mQueueWait = r.Histogram("stencild_job_queue_wait_seconds", "time from admission to execution start", nil, nil)
	m.Core = NewCore(CoreConfig{
		IDPrefix:     "job",
		MetricPrefix: "stencild",
		Slots:        cfg.MaxJobs,
		QueueBound:   cfg.QueueSize,
		Registry:     r,
		Exec:         m.exec,
	})
	r.GaugeFunc("stencild_jobs_running", "jobs currently executing", nil, func() int64 {
		_, n, _ := m.Load()
		return int64(n)
	})
	return m
}

// Health is the machine-readable /healthz payload: the daemon's live load
// (for the fleet gateway's load-aware routing) plus its capacity limits and
// transport state. Status mirrors the endpoint's human text line: "ok",
// "draining", or "degraded" (mesh rank down).
type Health struct {
	Status     string `json:"status"`
	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
	MaxJobs    int    `json:"max_jobs"`
	QueueSize  int    `json:"queue_size"`

	// Transport state of a distributed daemon (absent single-process).
	Rank           int `json:"rank,omitempty"`
	Ranks          int `json:"ranks,omitempty"`
	RanksConnected int `json:"ranks_connected,omitempty"`
}

// Health snapshots the manager's live load and transport state.
func (m *Manager) Health() Health {
	h := Health{Status: "ok", MaxJobs: m.cfg.MaxJobs, QueueSize: m.cfg.QueueSize}
	var draining bool
	if h.QueueDepth, h.Running, draining = m.Load(); draining {
		h.Status = "draining"
	}
	if t := m.cfg.Transport; t != nil {
		up, want := t.Connected()
		h.Rank, h.Ranks, h.RanksConnected = t.Rank(), want, up
		if up < want && h.Status == "ok" {
			h.Status = "degraded"
		}
	}
	return h
}

// Submit validates and admits a job, returning it in StateQueued. The
// queue is bounded: a full queue rejects with ErrQueueFull immediately.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	j, err := NewJob(spec)
	if err != nil {
		return nil, err
	}
	if n := spec.Ranks; n > 0 {
		t := m.cfg.Transport
		switch {
		case t == nil:
			return nil, fmt.Errorf("server: distributed job (ranks=%d) needs a daemon started with -ranks", n)
		case t.Rank() != 0:
			return nil, fmt.Errorf("server: distributed jobs are submitted to rank 0 (this daemon is rank %d)", t.Rank())
		case n != t.Ranks():
			return nil, fmt.Errorf("server: spec ranks %d does not match the %d-rank mesh", n, t.Ranks())
		}
	}
	m.setTimeout(j)
	if err := m.Admit(j, false); err != nil {
		if errors.Is(err, ErrQueueFull) {
			m.mRejected.Inc()
		}
		return nil, err
	}
	m.mSubmitted.Inc()
	return j, nil
}

// setTimeout applies the spec's deadline, or the daemon's default.
func (m *Manager) setTimeout(j *Job) {
	j.timeout = j.run.Timeout
	if j.timeout == 0 {
		j.timeout = m.cfg.DefaultTimeout
	}
}

// exec is the local executor: it runs one admitted job on the engines.
func (m *Manager) exec(ctx context.Context, j *Job) (*Result, error) {
	m.mQueueWait.Observe(j.QueueWait().Seconds())
	if err := m.plan(j); err != nil {
		return nil, err
	}
	var t *castencil.NetTransport
	if j.Spec.Ranks > 0 {
		// Distributed: broadcast the spec so every follower enters the
		// same run, then execute with the shared mesh. The broadcast
		// carries the raw submitted spec — followers re-validate and
		// re-resolve it with the same deterministic parsers and planner,
		// so every rank agrees on the resulting configuration.
		m.distMu.Lock()
		defer m.distMu.Unlock()
		payload, err := json.Marshal(j.Spec)
		if err == nil {
			err = m.cfg.Transport.SendJob(payload)
		}
		if err != nil {
			return nil, err
		}
		t = m.cfg.Transport
	}
	return nil, m.run(ctx, j, t)
}

// plan applies a plan=auto decision, recording it on the job.
func (m *Manager) plan(j *Job) error {
	plan, err := j.run.AutoPlan()
	if plan != nil {
		j.mu.Lock()
		j.plan = plan
		j.mu.Unlock()
	}
	return err
}

// workersFor resolves a job's per-node worker count against the manager's
// budget: an explicit request is honored; otherwise the budget is divided
// evenly across the job slots and the job's P×P nodes.
func (m *Manager) workersFor(j *Job) int {
	if j.Spec.Workers > 0 {
		return j.Spec.Workers
	}
	return max(1, m.cfg.WorkerBudget/(m.cfg.MaxJobs*j.run.Config.P*j.run.Config.P))
}

// run executes a job on its engine and folds its counters into the
// service's; t is the mesh of a distributed run (nil single-process). On a
// distributed run, rank 0's
// result carries the global counters (the runtime folds every rank's slice
// at the drain gather) while a follower's carries only its local slice —
// each daemon's metrics report its own rank's view.
func (m *Manager) run(ctx context.Context, j *Job, t *castencil.NetTransport) error {
	r := j.run
	opts := append([]castencil.Option{castencil.WithContext(ctx), castencil.WithProgress(j.ReportProgress)}, r.Options...)
	opts = append(opts, castencil.WithWorkers(m.workersFor(j)))
	if t != nil {
		opts = append(opts, castencil.WithCluster(castencil.ClusterOptions{Transport: t}))
	}
	start := time.Now()
	if r.Engine == "sim" {
		res, err := castencil.Sim(r.Variant, r.Config, opts...)
		m.mDuration["sim"].Observe(time.Since(start).Seconds())
		if err != nil {
			return err
		}
		m.account(res.Sim.Tasks, res.Messages, res.BytesSent, res.Bundles, res.Segments, 0, 0)
		j.mu.Lock()
		j.sim = res
		j.mu.Unlock()
		return nil
	}
	res, err := castencil.Run(r.Variant, r.Config, opts...)
	m.mDuration["real"].Observe(time.Since(start).Seconds())
	if err != nil {
		return err
	}
	ex := res.Exec
	steals := 0
	for _, s := range ex.NodeSteals {
		steals += s
	}
	m.account(ex.Completed, ex.Messages, ex.BytesSent, ex.BundlesSent, ex.BundleSegments, ex.Fault.Retransmits, steals)
	j.mu.Lock()
	j.real = res
	j.mu.Unlock()
	return nil
}

// account folds one run's counters into the service's.
func (m *Manager) account(tasks, messages, bytes, bundles, segments, retransmits, steals int) {
	m.mTasks.Add(int64(tasks))
	m.mMessages.Add(int64(messages))
	m.mBytes.Add(int64(bytes))
	m.mBundles.Add(int64(bundles))
	m.mSegments.Add(int64(segments))
	m.mRetransmit.Add(int64(retransmits))
	m.mSteals.Add(int64(steals))
}
