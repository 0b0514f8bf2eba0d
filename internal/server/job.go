// Package server is the stencil-as-a-service layer. Core (core.go) is the
// job-lifecycle core both services share: the job table, the state machine,
// bounded DRR-over-priority admission (explicit backpressure instead of
// hangs), a slot-bounded dispatcher, per-job contexts as the one
// cancellation path, a graceful drain and one HTTP skeleton (http.go).
// Manager runs jobs on the castencil.Run/Sim facade, sharing the host's
// worker budget across them; cmd/stencild fronts it with HTTP, and the
// fleet gateway (internal/gateway) puts a remote executor on the same core.
package server

import (
	"sync"
	"sync/atomic"
	"time"

	castencil "castencil"
)

// State is a job's lifecycle position. The machine is strictly
//
//	queued -> running -> done | failed | cancelled
//	queued -> cancelled            (cancelled before a slot picked it up)
//
// and terminal states never transition again.
type State string

// Lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is one job request — the JSON submit body (see castencil.Spec for
// its fields and their roles).
type Spec = castencil.Spec

// Priority is a job's admission class.
type Priority = castencil.Priority

// Priority classes, best first.
const (
	PriorityHigh   = castencil.PriorityHigh
	PriorityNormal = castencil.PriorityNormal
	PriorityLow    = castencil.PriorityLow
	numPriorities  = PriorityLow + 1
)

// CacheBypass is the spec "cache" spelling that forces re-execution at the
// fleet gateway.
const CacheBypass = castencil.CacheBypass

// Job is one unit of service work: a Spec moving through the lifecycle
// state machine of a Core.
type Job struct {
	// ID is the core-assigned identifier ("job-000001", monotone).
	ID string
	// Spec is the request as submitted.
	Spec Spec
	// Tenant is the job's admission key and Fingerprint its content
	// address. The fleet gateway sets both before admission; a daemon
	// admits every job under the tenant "" and leaves Fingerprint empty.
	Tenant      string
	Fingerprint string

	run     *castencil.Resolved
	prio    Priority
	timeout time.Duration // run deadline (0 = none)
	seq     uint64        // submission order

	mu        sync.Mutex
	state     State
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    func() // cancels the job's context (nil until running)
	real      *castencil.RealResult
	sim       *castencil.SimResult
	plan      *castencil.Plan
	res       *Result // stored by a remote executor or a cache hit

	// The fleet gateway's record: cache disposition and routing.
	cache     string
	backend   string
	backendID string
	retries   int

	done chan struct{} // closed on reaching a terminal state

	progDone  atomic.Int64
	progTotal atomic.Int64
}

// NewJob validates spec and returns it as a queued job, not yet admitted.
func NewJob(spec Spec) (*Job, error) {
	r, err := spec.Options()
	if err != nil {
		return nil, err
	}
	return &Job{Spec: spec, run: r, prio: r.Priority, state: StateQueued, submitted: time.Now(), done: make(chan struct{})}, nil
}

// read returns *p under the job lock.
func read[T any](j *Job, p *T) T {
	j.mu.Lock()
	defer j.mu.Unlock()
	return *p
}

// Engine is the job's resolved engine, "real" or "sim".
func (j *Job) Engine() string { return j.run.Engine }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle state.
func (j *Job) State() State { return read(j, &j.state) }

// Err returns the terminal error of a failed job (nil otherwise).
func (j *Job) Err() error { return read(j, &j.err) }

// RealResult returns the exact-execution result of a done real job.
func (j *Job) RealResult() *castencil.RealResult { return read(j, &j.real) }

// SimResult returns the virtual-time result of a done sim job.
func (j *Job) SimResult() *castencil.SimResult { return read(j, &j.sim) }

// Plan returns the AutoPlan outcome of a plan=auto job (nil otherwise or
// before planning ran).
func (j *Job) Plan() *castencil.Plan { return read(j, &j.plan) }

// Result returns the terminal result stored on the job: a fleet job's
// backend result (grid data included). A daemon job stores none; its
// result is built from RealResult or SimResult.
func (j *Job) Result() *Result { return read(j, &j.res) }

// SetCacheStatus records how the fleet cache treated this job: "hit",
// "miss", "coalesced" (merged into an identical in-flight job), "bypass",
// or "uncacheable". The View reports it as Cache ("" on a daemon).
func (j *Job) SetCacheStatus(s string) {
	j.mu.Lock()
	j.cache = s
	j.mu.Unlock()
}

// Route records the backend executing the job, its backend-side id ("" until
// the backend accepted it) and the failover attempts so far.
func (j *Job) Route(backend, backendID string, retries int) {
	j.mu.Lock()
	j.backend, j.backendID, j.retries = backend, backendID, retries
	j.mu.Unlock()
}

// QueueWait is the time from submission to start, for a started job.
func (j *Job) QueueWait() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started.Sub(j.submitted)
}

// ReportProgress records the live task counters of the run.
func (j *Job) ReportProgress(done, total int64) {
	j.progDone.Store(done)
	j.progTotal.Store(total)
}

// View is a JSON-ready snapshot of a job, served by the status endpoints
// and the progress stream. The fleet fields are set on gateway jobs only.
type View struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Priority string `json:"priority"`
	Engine   string `json:"engine"`
	Error    string `json:"error,omitempty"`

	// Fleet: admission tenant, content address, cache disposition (hit,
	// miss, coalesced, bypass or uncacheable) and routing.
	Tenant      string `json:"tenant,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Cache       string `json:"cache,omitempty"`
	Backend     string `json:"backend,omitempty"`
	BackendJob  string `json:"backend_job,omitempty"`
	Retries     int    `json:"retries,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// TasksDone/TasksTotal are the live progress counters streamed from
	// the engine (on the gateway, from the backend's stream); Progress is
	// their ratio in [0,1].
	TasksDone  int64   `json:"tasks_done"`
	TasksTotal int64   `json:"tasks_total"`
	Progress   float64 `json:"progress"`

	// Plan reports the AutoPlan decision of a plan=auto job: the chosen
	// kernel family ("base", "ca", "wf"), its parameter (step size for CA,
	// wavefront width for WF) and its predicted GFLOP/s. PlanStepSize is
	// the legacy two-way field (0 = not CA).
	PlanStepSize *int     `json:"plan_step_size,omitempty"`
	PlanGFLOPS   *float64 `json:"plan_gflops,omitempty"`
	PlanFamily   *string  `json:"plan_family,omitempty"`
	PlanWidth    *int     `json:"plan_width,omitempty"`
}

// Snapshot captures the job's current state for serialization.
func (j *Job) Snapshot() View {
	j.mu.Lock()
	v := View{
		ID:          j.ID,
		State:       j.state,
		Priority:    j.prio.String(),
		Engine:      j.run.Engine,
		Tenant:      j.Tenant,
		Fingerprint: j.Fingerprint,
		Cache:       j.cache,
		Backend:     j.backend,
		BackendJob:  j.backendID,
		Retries:     j.retries,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.plan != nil {
		best := j.plan.Candidates[0]
		s, g := best.StepSize, best.GFLOPS
		fam, w := best.Family.String(), best.Width
		v.PlanStepSize, v.PlanGFLOPS = &s, &g
		v.PlanFamily, v.PlanWidth = &fam, &w
	}
	j.mu.Unlock()
	v.TasksDone = j.progDone.Load()
	v.TasksTotal = j.progTotal.Load()
	if v.State == StateDone {
		// The engines throttle progress callbacks; a finished job is by
		// definition fully progressed.
		v.TasksDone = v.TasksTotal
		v.Progress = 1
	} else if v.TasksTotal > 0 {
		v.Progress = float64(v.TasksDone) / float64(v.TasksTotal)
	}
	return v
}
