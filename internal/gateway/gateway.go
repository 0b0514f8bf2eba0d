// Package gateway is the fleet front-end over a set of stencild backends:
// one ingress (cmd/stencilgate) that makes many jobs across many daemons
// behave like one service.
//
// Three mechanisms, layered:
//
//   - A content-addressed result cache keyed by server.Spec.Fingerprint()
//     — the canonical sha256 over the result-affecting subset of a job
//     spec. Jobs are deterministic by construction (the repo's determinism
//     suites prove bitwise-equal grids across schedulers, worker counts,
//     coalescing, transforms, distribution and stealing), so a repeated
//     spec IS its previous result: hits are served without touching any
//     backend, and identical in-flight submissions collapse into one
//     execution (singleflight).
//
//   - Weighted fair-share admission across tenants: deficit round robin
//     over bounded per-tenant queues, layered on the backend's
//     high/normal/low priority classes. One tenant's burst cannot starve
//     another's queue; overload answers 429 + Retry-After at the gateway's
//     own front door, composing with the backends' bounded admission.
//
//   - Sharded routing: rendezvous hashing of the fingerprint across the
//     healthy backends (stable shards through membership churn), health
//     probes ejecting dead or draining backends, persistent keep-alive
//     connections on the gateway->backend hop, and bounded
//     retry-with-backoff failover — safe to re-run anywhere precisely
//     because jobs are deterministic and idempotent.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"castencil/internal/metrics"
	"castencil/internal/server"
)

// Sentinel errors of the gateway admission path.
var (
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("gateway: draining, not accepting jobs")
	// ErrNotFound reports an unknown gateway job id.
	ErrNotFound = errors.New("gateway: no such job")
)

// Config sizes a Gateway.
type Config struct {
	// Backends are the stencild addresses (host:port or http URL) the
	// gateway shards across. At least one is required.
	Backends []string
	// CacheEntries / CacheBytes bound the result cache (defaults 512
	// entries, 256 MiB).
	CacheEntries int
	CacheBytes   int64
	// TenantWeights are the fair-share weights; tenants not listed weigh
	// 1. The per-tenant queue bound is TenantQueue (default 64).
	TenantWeights map[string]int
	TenantQueue   int
	// MaxInflight caps jobs dispatched onto the fleet concurrently
	// (default 2 x backends).
	MaxInflight int
	// Retries bounds per-job failover attempts past the first (default 3).
	Retries int
	// ProbeInterval paces the per-backend health probes (default 250ms);
	// PollInterval paces job-status polling of a dispatched job (default
	// 25ms); RetryBackoff is the base failover backoff, doubled per
	// attempt and capped at 2s (default 100ms).
	ProbeInterval time.Duration
	PollInterval  time.Duration
	RetryBackoff  time.Duration
	// Registry receives the stencilgate_* metric families (nil = fresh).
	Registry *metrics.Registry
	// Client overrides the backend HTTP client (tests); nil builds a
	// keep-alive client with persistent connections per backend.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.TenantQueue <= 0 {
		c.TenantQueue = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * len(c.Backends)
		if c.MaxInflight < 1 {
			c.MaxInflight = 1
		}
	}
	if c.Retries <= 0 {
		c.Retries = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 25 * time.Millisecond
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 8,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return c
}

// Job is one unit of gateway work: a spec moving through the cache, the
// fair-share queue, and (on a miss) a backend of the fleet.
type Job struct {
	// ID is the gateway-assigned identifier ("gw-000001", monotone).
	ID string
	// Spec is the request as submitted (forwarded verbatim to backends).
	Spec server.Spec
	// Fingerprint is the spec's content address (cache key, shard key).
	Fingerprint string
	// Tenant is the fair-share accounting identity ("default" when the
	// spec named none).
	Tenant string

	prio       server.Priority
	readCache  bool // may hit the cache / join a singleflight
	storeCache bool // terminal result is written back into the cache

	mu          sync.Mutex
	state       server.State
	err         error
	submitted   time.Time
	started     time.Time
	finished    time.Time
	backend     string // backend addr currently (or last) executing it
	backendID   string // backend-side job id
	cacheStatus string // hit | miss | coalesced | bypass | uncacheable
	retries     int
	cancelReq   bool
	res         *server.Result
	resSize     int64
	lastView    *server.View // last polled backend view (progress)
	done        chan struct{}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle state.
func (j *Job) State() server.State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the terminal error of a failed job (nil otherwise).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the terminal backend result (nil before done).
func (j *Job) Result() *server.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res
}

// CacheStatus reports how the cache treated this job: "hit", "miss",
// "coalesced" (merged into an identical in-flight job), "bypass", or
// "uncacheable".
func (j *Job) CacheStatus() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cacheStatus
}

func (j *Job) canceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelReq
}

// Gateway owns the job table, the result cache, the tenant queues and the
// dispatcher. All exported methods are safe for concurrent use.
type Gateway struct {
	cfg  Config
	reg  *metrics.Registry
	pool *pool

	mu       sync.Mutex
	cond     *sync.Cond
	cache    *cache
	flights  map[string]*flight
	adm      *admitter
	jobs     map[string]*Job
	order    []*Job
	inflight int
	draining bool
	nextID   uint64

	dispWg sync.WaitGroup
	jobWg  sync.WaitGroup

	// Instruments (stencilgate_* families, documented in DESIGN.md).
	mHits      *metrics.Counter
	mMisses    *metrics.Counter
	mBypass    *metrics.Counter
	mEvict     *metrics.Counter
	mMerged    *metrics.Counter
	mFailovers *metrics.Counter
	mRetries   *metrics.Counter
	mTerminal  map[server.State]*metrics.Counter
	bJobs      map[string]*metrics.Counter
	bErrs      map[string]*metrics.Counter
}

// New starts a gateway: probers up, dispatcher running.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: at least one backend is required")
	}
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:     cfg,
		reg:     cfg.Registry,
		pool:    newPool(cfg.Backends, cfg.Client, cfg.ProbeInterval),
		cache:   newCache(cfg.CacheEntries, cfg.CacheBytes),
		flights: make(map[string]*flight),
		adm:     newAdmitter(cfg.TenantQueue, cfg.TenantWeights),
		jobs:    make(map[string]*Job),
	}
	g.cond = sync.NewCond(&g.mu)

	r := g.reg
	g.mHits = r.Counter("stencilgate_cache_hits_total", "jobs served from the content-addressed result cache", nil)
	g.mMisses = r.Counter("stencilgate_cache_misses_total", "cacheable jobs that had to execute", nil)
	g.mBypass = r.Counter("stencilgate_cache_bypass_total", "jobs that forced re-execution via cache=bypass", nil)
	g.mEvict = r.Counter("stencilgate_cache_evictions_total", "cache entries evicted by the byte or entry cap", nil)
	g.mMerged = r.Counter("stencilgate_singleflight_merged_total", "submissions collapsed into an identical in-flight job", nil)
	g.mFailovers = r.Counter("stencilgate_failovers_total", "job attempts re-routed to another backend", nil)
	g.mRetries = r.Counter("stencilgate_retries_total", "job dispatch retries (backoff attempts past the first)", nil)
	g.mTerminal = map[server.State]*metrics.Counter{
		server.StateDone:      r.Counter("stencilgate_jobs_total", "gateway jobs by terminal state", metrics.Labels{"state": "done"}),
		server.StateFailed:    r.Counter("stencilgate_jobs_total", "gateway jobs by terminal state", metrics.Labels{"state": "failed"}),
		server.StateCancelled: r.Counter("stencilgate_jobs_total", "gateway jobs by terminal state", metrics.Labels{"state": "cancelled"}),
	}
	r.GaugeFunc("stencilgate_queue_depth", "jobs waiting in the tenant admission queues", nil, func() int64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return int64(g.adm.depth())
	})
	r.GaugeFunc("stencilgate_jobs_inflight", "jobs currently dispatched onto the fleet", nil, func() int64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return int64(g.inflight)
	})
	r.GaugeFunc("stencilgate_cache_entries", "live entries in the result cache", nil, func() int64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return int64(g.cache.len())
	})
	r.GaugeFunc("stencilgate_cache_bytes", "bytes held by the result cache", nil, func() int64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.cache.size()
	})
	g.bJobs = make(map[string]*metrics.Counter)
	g.bErrs = make(map[string]*metrics.Counter)
	for _, b := range g.pool.backends {
		b := b
		lbl := metrics.Labels{"backend": b.addr}
		g.bJobs[b.addr] = r.Counter("stencilgate_backend_jobs_total", "jobs dispatched per backend", lbl)
		g.bErrs[b.addr] = r.Counter("stencilgate_backend_errors_total", "request failures per backend", lbl)
		r.GaugeFunc("stencilgate_backend_inflight", "jobs currently running per backend", lbl, func() int64 {
			return b.inflight.Load()
		})
		r.GaugeFunc("stencilgate_backend_healthy", "1 if the backend is routable", lbl, func() int64 {
			if b.healthy.Load() {
				return 1
			}
			return 0
		})
	}

	g.pool.start()
	g.dispWg.Add(1)
	go g.dispatcher()
	return g, nil
}

// Metrics returns the registry the gateway reports into.
func (g *Gateway) Metrics() *metrics.Registry { return g.reg }

// tenantCounter lazily materializes a per-tenant counter series.
func (g *Gateway) tenantCounter(name, help, tenant string) *metrics.Counter {
	return g.reg.Counter(name, help, metrics.Labels{"tenant": tenant})
}

func (g *Gateway) tenantWait(tenant string) *metrics.Histogram {
	return g.reg.Histogram("stencilgate_queue_wait_seconds", "admission-to-dispatch wait by tenant", nil, metrics.Labels{"tenant": tenant})
}

// Submit validates and admits a job. Cache hits and singleflight merges
// return immediately (the returned job may already be done); misses queue
// under the submitting tenant's fair share. A full tenant queue rejects
// with ErrQueueFull.
func (g *Gateway) Submit(spec server.Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Ranks > 0 {
		return nil, fmt.Errorf("gateway: distributed jobs (ranks=%d) are submitted to rank 0 of a mesh directly, not through the fleet gateway", spec.Ranks)
	}
	tenant := spec.Tenant
	if tenant == "" {
		tenant = "default"
	}
	prio, err := server.ParsePriority(spec.Priority)
	if err != nil {
		return nil, err
	}
	bypass := strings.EqualFold(spec.Cache, server.CacheBypass)
	noBypass := spec
	noBypass.Cache = ""
	safe := noBypass.CacheSafe()

	j := &Job{
		Spec:        spec,
		Fingerprint: spec.Fingerprint(),
		Tenant:      tenant,
		prio:        prioIndex(prio),
		readCache:   safe && !bypass,
		storeCache:  safe,
		state:       server.StateQueued,
		submitted:   time.Now(),
		done:        make(chan struct{}),
	}
	switch {
	case bypass:
		j.cacheStatus = "bypass"
	case !safe:
		j.cacheStatus = "uncacheable"
	default:
		j.cacheStatus = "miss" // promoted to hit/coalesced below
	}

	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		return nil, ErrDraining
	}
	g.nextID++
	j.ID = fmt.Sprintf("gw-%06d", g.nextID)
	if j.readCache {
		if res, size, ok := g.cache.get(j.Fingerprint); ok {
			g.jobs[j.ID] = j
			g.order = append(g.order, j)
			g.mu.Unlock()
			g.mHits.Inc()
			g.tenantCounter("stencilgate_jobs_admitted_total", "jobs admitted by tenant", tenant).Inc()
			j.mu.Lock()
			j.cacheStatus = "hit"
			j.mu.Unlock()
			g.finishDone(j, res, size)
			return j, nil
		}
		if fl, ok := g.flights[j.Fingerprint]; ok {
			fl.waiters = append(fl.waiters, j)
			g.jobs[j.ID] = j
			g.order = append(g.order, j)
			g.mu.Unlock()
			g.mMerged.Inc()
			g.tenantCounter("stencilgate_jobs_admitted_total", "jobs admitted by tenant", tenant).Inc()
			j.mu.Lock()
			j.cacheStatus = "coalesced"
			j.mu.Unlock()
			return j, nil
		}
	}
	if err := g.adm.enqueue(j, false); err != nil {
		g.mu.Unlock()
		g.tenantCounter("stencilgate_jobs_rejected_total", "submissions rejected by tenant-queue backpressure", tenant).Inc()
		return nil, err
	}
	g.jobs[j.ID] = j
	g.order = append(g.order, j)
	if j.readCache {
		g.flights[j.Fingerprint] = &flight{leader: j}
	}
	g.cond.Broadcast()
	g.mu.Unlock()
	g.tenantCounter("stencilgate_jobs_admitted_total", "jobs admitted by tenant", tenant).Inc()
	if j.readCache {
		g.mMisses.Inc()
	} else if bypass {
		g.mBypass.Inc()
	}
	return j, nil
}

// Get returns a job by id.
func (g *Gateway) Get(id string) (*Job, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.jobs[id]
	return j, ok
}

// Jobs lists all known jobs in submission order.
func (g *Gateway) Jobs() []*Job {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Job, len(g.order))
	copy(out, g.order)
	return out
}

// Cancel stops a job: queued jobs cancel immediately (promoting a
// singleflight waiter to leader if one rode on it), running jobs forward
// the cancellation to their backend. Terminal jobs are a no-op.
func (g *Gateway) Cancel(id string) error {
	g.mu.Lock()
	j, ok := g.jobs[id]
	if !ok {
		g.mu.Unlock()
		return ErrNotFound
	}
	if g.adm.remove(j) {
		g.promoteLocked(j)
		g.mu.Unlock()
		g.finishOne(j, context.Canceled)
		return nil
	}
	// Not in a queue: a singleflight waiter cancels alone; a dispatched
	// job gets the request flag its poll loop forwards.
	if fl, ok := g.flights[j.Fingerprint]; ok && fl.leader != j {
		for i, w := range fl.waiters {
			if w == j {
				fl.waiters = append(fl.waiters[:i], fl.waiters[i+1:]...)
				g.mu.Unlock()
				g.finishOne(j, context.Canceled)
				return nil
			}
		}
	}
	g.mu.Unlock()
	j.mu.Lock()
	if !j.state.Terminal() {
		j.cancelReq = true
	}
	j.mu.Unlock()
	return nil
}

// promoteLocked hands a cancelled queued leader's flight to its first
// waiter, re-enqueueing the waiter (its admission was already granted, so
// the bound is bypassed). Requires g.mu.
func (g *Gateway) promoteLocked(j *Job) {
	fl, ok := g.flights[j.Fingerprint]
	if !ok || fl.leader != j {
		return
	}
	if len(fl.waiters) == 0 {
		delete(g.flights, j.Fingerprint)
		return
	}
	next := fl.waiters[0]
	fl.leader = next
	fl.waiters = fl.waiters[1:]
	_ = g.adm.enqueue(next, true)
	g.cond.Broadcast()
}

// dispatcher claims jobs in fair-share order and runs each on its own
// goroutine, bounded by MaxInflight.
func (g *Gateway) dispatcher() {
	defer g.dispWg.Done()
	for {
		g.mu.Lock()
		var j *Job
		for {
			if g.draining && g.adm.depth() == 0 {
				g.mu.Unlock()
				return
			}
			if g.inflight < g.cfg.MaxInflight {
				if j = g.adm.next(); j != nil {
					break
				}
			}
			g.cond.Wait()
		}
		g.inflight++
		g.jobWg.Add(1)
		g.mu.Unlock()
		go func(j *Job) {
			defer g.jobWg.Done()
			g.runJob(j)
			g.mu.Lock()
			g.inflight--
			g.cond.Broadcast()
			g.mu.Unlock()
		}(j)
	}
}

// errPermanent marks a failure retrying cannot fix (spec rejected, job
// failed deterministically, cancellation).
type errPermanent struct{ err error }

func (e *errPermanent) Error() string { return e.err.Error() }
func (e *errPermanent) Unwrap() error { return e.err }

func permanent(err error) error { return &errPermanent{err} }

// runJob drives one dispatched job: pick a backend by rendezvous order,
// execute, and on retryable failure (connection loss, 429/503, a backend
// dying mid-run) back off and fail over down the preference list. Jobs are
// deterministic and idempotent, so re-running a possibly-started job on a
// survivor is always safe — the grid is a pure function of the spec.
func (g *Gateway) runJob(j *Job) {
	j.mu.Lock()
	j.state = server.StateRunning
	j.started = time.Now()
	wait := j.started.Sub(j.submitted)
	cancelled := j.cancelReq
	j.mu.Unlock()
	g.tenantWait(j.Tenant).Observe(wait.Seconds())
	if cancelled {
		g.finish(j, context.Canceled)
		return
	}

	var lastErr error
	for attempt := 0; attempt <= g.cfg.Retries; attempt++ {
		if attempt > 0 {
			g.mRetries.Inc()
			backoff := g.cfg.RetryBackoff << (attempt - 1)
			if backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			if !sleepUnless(backoff, j.canceled) {
				g.finish(j, context.Canceled)
				return
			}
			j.mu.Lock()
			j.retries = attempt
			j.mu.Unlock()
		}
		b := g.pool.pickAt(j.Fingerprint, attempt)
		if b == nil {
			lastErr = errors.New("no healthy backends")
			continue
		}
		if attempt > 0 {
			g.mFailovers.Inc()
		}
		res, size, err := g.execOn(b, j)
		if err == nil {
			g.complete(j, res, size)
			return
		}
		var pe *errPermanent
		if errors.As(err, &pe) {
			g.finish(j, pe.err)
			return
		}
		g.bErrs[b.addr].Inc()
		lastErr = err
	}
	g.finish(j, fmt.Errorf("gateway: job %s failed after %d attempts: %w", j.ID, g.cfg.Retries+1, lastErr))
}

// sleepUnless sleeps d in small slices, returning false early if abort()
// reports true.
func sleepUnless(d time.Duration, abort func() bool) bool {
	const slice = 10 * time.Millisecond
	for d > 0 {
		if abort() {
			return false
		}
		step := slice
		if d < step {
			step = d
		}
		time.Sleep(step)
		d -= step
	}
	return !abort()
}

// execOn runs j on one backend: submit, poll to terminal, fetch the result.
// Retryable errors (anything but an errPermanent) mean the backend is gone
// or pushing back and the caller should fail over.
func (g *Gateway) execOn(b *backend, j *Job) (*server.Result, int64, error) {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	j.mu.Lock()
	j.backend, j.backendID = b.addr, ""
	j.mu.Unlock()

	view, err := g.submitTo(b, j.Spec)
	if err != nil {
		return nil, 0, err
	}
	g.bJobs[b.addr].Inc()
	j.mu.Lock()
	j.backendID = view.ID
	j.mu.Unlock()

	cancelSent := false
	failures := 0
	for {
		time.Sleep(g.cfg.PollInterval)
		if j.canceled() && !cancelSent {
			// Best-effort: if the cancel does not land, the poll loop still
			// sees the job through to its backend-terminal state.
			_ = g.post(b, "/v1/jobs/"+view.ID+"/cancel", nil, nil)
			cancelSent = true
		}
		var v server.View
		if err := g.getJSON(b, "/v1/jobs/"+view.ID, &v); err != nil {
			failures++
			if failures >= 3 {
				return nil, 0, fmt.Errorf("backend %s lost mid-job: %w", b.addr, err)
			}
			continue
		}
		failures = 0
		j.mu.Lock()
		j.lastView = &v
		j.mu.Unlock()
		if !v.State.Terminal() {
			continue
		}
		switch v.State {
		case server.StateDone:
			var res server.Result
			if err := g.getJSON(b, "/v1/jobs/"+view.ID+"/result?grid=1", &res); err != nil {
				return nil, 0, fmt.Errorf("backend %s result fetch: %w", b.addr, err)
			}
			raw, _ := json.Marshal(&res)
			return &res, int64(len(raw)), nil
		case server.StateCancelled:
			return nil, 0, permanent(context.Canceled)
		default:
			return nil, 0, permanent(fmt.Errorf("backend %s: job failed: %s", b.addr, v.Error))
		}
	}
}

// submitTo posts the spec, classifying the response: 202 succeeds, 4xx
// spec rejections are permanent, backpressure (429 with its Retry-After,
// 503) and transport errors are retryable.
func (g *Gateway) submitTo(b *backend, spec server.Spec) (*server.View, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, permanent(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", b.base+"/v1/jobs", strings.NewReader(string(body)))
	if err != nil {
		return nil, permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("backend %s submit: %w", b.addr, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusAccepted:
		var v server.View
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			return nil, fmt.Errorf("backend %s submit decode: %w", b.addr, err)
		}
		return &v, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		// Backend backpressure propagates into the failover/backoff loop:
		// honor its Retry-After before the next attempt.
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if d, err := time.ParseDuration(ra + "s"); err == nil && d > 0 && d <= 5*time.Second {
				time.Sleep(d)
			}
		}
		return nil, fmt.Errorf("backend %s pushed back: %s", b.addr, resp.Status)
	case resp.StatusCode >= 500:
		return nil, fmt.Errorf("backend %s submit: %s", b.addr, resp.Status)
	default:
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		return nil, permanent(fmt.Errorf("backend %s rejected spec: %s", b.addr, e.Error))
	}
}

func (g *Gateway) getJSON(b *backend, path string, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", b.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (g *Gateway) post(b *backend, path string, body, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var rd *strings.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = strings.NewReader(string(raw))
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequestWithContext(ctx, "POST", b.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// resolveFlightLocked detaches and returns j's singleflight waiters if j
// leads a flight. Requires g.mu.
func (g *Gateway) resolveFlightLocked(j *Job) []*Job {
	fl, ok := g.flights[j.Fingerprint]
	if !ok || fl.leader != j {
		return nil
	}
	delete(g.flights, j.Fingerprint)
	return fl.waiters
}

// complete lands a successful result: cache write-back (bypass refreshes
// the entry too), singleflight resolution, terminal bookkeeping.
func (g *Gateway) complete(j *Job, res *server.Result, size int64) {
	g.mu.Lock()
	if j.storeCache {
		if ev := g.cache.put(j.Fingerprint, res, size); ev > 0 {
			g.mEvict.Add(int64(ev))
		}
	}
	waiters := g.resolveFlightLocked(j)
	g.mu.Unlock()
	g.finishDone(j, res, size)
	for _, w := range waiters {
		g.finishDone(w, res, size)
	}
}

// finish lands a terminal failure (or cancellation), propagating it to any
// singleflight waiters — a deterministic failure would fail them all
// identically anyway.
func (g *Gateway) finish(j *Job, err error) {
	g.mu.Lock()
	waiters := g.resolveFlightLocked(j)
	g.mu.Unlock()
	g.finishOne(j, err)
	for _, w := range waiters {
		g.finishOne(w, fmt.Errorf("gateway: merged into job %s which did not complete: %w", j.ID, err))
	}
}

func (g *Gateway) finishDone(j *Job, res *server.Result, size int64) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	if j.started.IsZero() {
		j.started = j.submitted
	}
	j.state = server.StateDone
	j.res, j.resSize = res, size
	j.finished = time.Now()
	close(j.done)
	j.mu.Unlock()
	g.mTerminal[server.StateDone].Inc()
}

func (g *Gateway) finishOne(j *Job, err error) {
	state := server.StateFailed
	if errors.Is(err, context.Canceled) {
		state = server.StateCancelled
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.err = err
	j.finished = time.Now()
	close(j.done)
	j.mu.Unlock()
	g.mTerminal[state].Inc()
}

// Healthy reports routable backends out of the fleet total.
func (g *Gateway) Healthy() (int, int) {
	return g.pool.healthyCount(), len(g.pool.backends)
}

// Draining reports whether shutdown has begun.
func (g *Gateway) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// Shutdown drains the gateway: admission closes, queued jobs cancel
// immediately (their backends never saw them), and running jobs get until
// ctx expires before their cancellation is forwarded. The dispatcher and
// probers are gone when it returns.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	queued := g.adm.drainAll()
	g.cond.Broadcast()
	g.mu.Unlock()
	for _, j := range queued {
		g.finish(j, context.Canceled)
	}

	done := make(chan struct{})
	go func() {
		g.jobWg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		for _, j := range g.Jobs() {
			j.mu.Lock()
			if !j.state.Terminal() {
				j.cancelReq = true
			}
			j.mu.Unlock()
		}
		<-done
		err = ctx.Err()
	}
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
	g.dispWg.Wait()
	g.pool.stop()
	return err
}
