package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"castencil/internal/metrics"
)

// Sentinel errors of the admission path. HTTP maps ErrQueueFull to 429 and
// ErrDraining to 503.
var (
	// ErrQueueFull is the backpressure signal: the submitting tenant's
	// bounded admission queue is at capacity and the submission is rejected
	// immediately — the service never parks a client on a full queue.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrNotFound reports an unknown (or evicted) job id.
	ErrNotFound = errors.New("server: no such job")
)

// retainJobs is how many terminal jobs a job table keeps; past it the
// oldest-finished is evicted and its id answers 404. Queued and running
// jobs are never evicted, so a long-running process holds bounded memory.
const retainJobs = 256

// CoreConfig wires a Core to the side it serves: stencild runs jobs on the
// local engines, stencilgate on a backend of its fleet.
type CoreConfig struct {
	IDPrefix     string // job ids: "job" -> "job-000001"
	MetricPrefix string // <prefix>_jobs_total{state=}, <prefix>_queue_depth
	Slots        int    // jobs running at once
	QueueBound   int    // per-tenant admission queue bound
	Weights      map[string]int
	Registry     *metrics.Registry
	// Exec runs one job under its own context — the only cancellation path
	// for Cancel, deadlines and a forced drain. A non-nil Result is stored.
	Exec func(ctx context.Context, j *Job) (*Result, error)
	// OnFinish, if set, runs after each job turns terminal, no lock held.
	OnFinish func(j *Job)
}

// Core is the job-lifecycle core of both services: the job table, the
// queued -> running -> done|failed|cancelled state machine with one finish
// path, the DRR-over-priority admitter, a dispatcher of Slots workers and
// the drain policy. All methods are safe for concurrent use. Lock order is
// Core.mu before Job.mu.
type Core struct {
	cfg       CoreConfig
	mTerminal map[State]*metrics.Counter

	mu       sync.Mutex
	cond     *sync.Cond
	adm      *admitter
	jobs     map[string]*Job
	ended    []*Job // terminal jobs still in the table, oldest finished first
	running  int
	draining bool
	nextID   uint64
	wg       sync.WaitGroup

	// ctx is the parent of every running job's context; abort cancels it
	// when the drain window expires, and from then on nothing starts.
	ctx   context.Context
	abort context.CancelFunc
}

// NewCore starts a core and its Slots dispatch workers.
func NewCore(cfg CoreConfig) *Core {
	c := &Core{cfg: cfg, adm: newAdmitter(cfg.QueueBound, cfg.Weights), jobs: make(map[string]*Job)}
	c.cond = sync.NewCond(&c.mu)
	c.ctx, c.abort = context.WithCancel(context.Background())
	r, fam := cfg.Registry, cfg.MetricPrefix+"_jobs_total"
	c.mTerminal = map[State]*metrics.Counter{}
	for _, s := range []State{StateDone, StateFailed, StateCancelled} {
		c.mTerminal[s] = r.Counter(fam, "jobs by terminal state", metrics.Labels{"state": string(s)})
	}
	r.GaugeFunc(cfg.MetricPrefix+"_queue_depth", "jobs waiting in the admission queues", nil, func() int64 {
		q, _, _ := c.Load()
		return int64(q)
	})
	for i := 0; i < cfg.Slots; i++ {
		c.wg.Add(1)
		go c.worker()
	}
	return c
}

// Metrics returns the registry the core reports into.
func (c *Core) Metrics() *metrics.Registry { return c.cfg.Registry }

// Load reports the jobs waiting for a slot, the jobs running, and whether
// Shutdown has begun.
func (c *Core) Load() (queued, running int, draining bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.adm.depth(), c.running, c.draining
}

// registerLocked assigns j its id and enters it in the table (c.mu held).
func (c *Core) registerLocked(j *Job) {
	c.nextID++
	j.ID = fmt.Sprintf("%s-%06d", c.cfg.IDPrefix, c.nextID)
	j.seq = c.nextID
	c.jobs[j.ID] = j
}

// Admit enters a queued job in the table and its tenant's admission queue,
// or rejects it with ErrQueueFull or ErrDraining. force re-queues a job
// already in the table (a promoted singleflight waiter): it bypasses the
// bound and is refused only once the drain window has expired.
func (c *Core) Admit(j *Job, force bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctx.Err() != nil || (c.draining && !force) {
		return ErrDraining
	}
	if err := c.adm.enqueue(j, force); err != nil {
		return err
	}
	if !force {
		c.registerLocked(j)
	}
	c.cond.Signal()
	return nil
}

// Register enters a job in the table that the caller finishes itself (a
// cache hit, a singleflight waiter).
func (c *Core) Register(j *Job) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return ErrDraining
	}
	c.registerLocked(j)
	return nil
}

// Get returns a job by id.
func (c *Core) Get(id string) (*Job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}

// Jobs lists the table in submission order.
func (c *Core) Jobs() []*Job {
	c.mu.Lock()
	out := make([]*Job, 0, len(c.jobs))
	for _, j := range c.jobs {
		out = append(out, j)
	}
	c.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// Cancel stops a job: a queued one at once, a running one through its
// context. Terminal jobs are a no-op; unknown ids return ErrNotFound.
func (c *Core) Cancel(id string) error {
	c.mu.Lock()
	j, ok := c.jobs[id]
	if ok {
		c.adm.remove(j)
	}
	c.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	j.mu.Lock()
	state, cancel := j.state, j.cancel
	j.mu.Unlock()
	switch {
	case state == StateQueued:
		c.Finish(j, nil, context.Canceled)
	case cancel != nil:
		cancel()
	}
	return nil
}

// startLocked moves a queued j to running under a child of parent bounded
// by its timeout (c.mu held); false means a Cancel already finished it.
func (c *Core) startLocked(j *Job, parent context.Context) (context.Context, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return nil, false
	}
	ctx, cancel := context.WithCancel(parent)
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(parent, j.timeout)
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	c.running++
	return ctx, true
}

// end lands a started job's outcome and frees its slot.
func (c *Core) end(j *Job, res *Result, err error) {
	c.Finish(j, res, err)
	c.mu.Lock()
	c.running--
	c.mu.Unlock()
}

// worker is one dispatch slot: it claims jobs in admission order until the
// queue is empty during a drain, or the drain window expires.
func (c *Core) worker() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		var j *Job
		for j == nil {
			if c.ctx.Err() == nil {
				j = c.adm.next()
			}
			if j == nil && c.draining {
				c.mu.Unlock()
				return
			}
			if j == nil {
				c.cond.Wait()
			}
		}
		ctx, ok := c.startLocked(j, c.ctx)
		c.mu.Unlock()
		if ok {
			res, err := c.cfg.Exec(ctx, j)
			c.end(j, res, err)
		}
	}
}

// Finish lands a job's terminal state — the one finish path: nil error is
// done, a cancellation cancelled, anything else (a blown deadline too)
// failed. Finishing a terminal job is a no-op.
func (c *Core) Finish(j *Job, res *Result, err error) {
	state := StateDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state = StateCancelled
	default:
		state = StateFailed
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	if j.cancel != nil {
		j.cancel()
	}
	j.state, j.err, j.res = state, err, res
	j.finished = time.Now()
	close(j.done)
	j.mu.Unlock()
	c.mTerminal[state].Inc()

	c.mu.Lock()
	c.ended = append(c.ended, j)
	for len(c.ended) > retainJobs {
		delete(c.jobs, c.ended[0].ID)
		c.ended[0] = nil
		c.ended = c.ended[1:]
	}
	c.mu.Unlock()
	if c.cfg.OnFinish != nil {
		c.cfg.OnFinish(j)
	}
}

// Shutdown drains the core: admission closes (ErrDraining), queued and
// running jobs get until ctx expires, then every remaining job is cancelled.
// The workers are gone when it returns; the error is ctx's when the drain
// had to force-cancel.
func (c *Core) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.cond.Broadcast()
	c.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		c.abort()
		<-drained
	}
	// Whatever is still queued — force-drained, or re-queued after the
	// workers left — is cancelled; nothing is admitted from here on.
	c.abort()
	c.mu.Lock()
	left := c.adm.drainAll()
	c.mu.Unlock()
	for _, j := range left {
		c.Finish(j, nil, context.Canceled)
	}
	return err
}
