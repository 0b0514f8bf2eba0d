// Package gateway is the fleet front-end over a set of stencild backends:
// one ingress (cmd/stencilgate) that makes many jobs across many daemons
// behave like one service. It layers three mechanisms (DESIGN.md "Fleet
// gateway"): a content-addressed result cache with singleflight, keyed by
// server.Spec.Fingerprint() — jobs are deterministic, so a repeated spec IS
// its previous result; weighted fair-share (DRR) admission across tenants;
// and sharded routing — rendezvous hashing, health-probe ejection and
// bounded failover, safe because jobs are idempotent.
//
// The job lifecycle itself — table, state machine, admission, dispatch,
// cancellation, drain and the HTTP surface — is server.Core, the same core
// the daemon runs; the gateway plugs a remote executor into it.
package gateway

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"castencil/internal/metrics"
	"castencil/internal/server"
)

// The gateway rejects with the core's admission errors: ErrQueueFull when
// the tenant's queue is full (429), ErrDraining during shutdown (503).
var (
	ErrQueueFull = server.ErrQueueFull
	ErrDraining  = server.ErrDraining
)

// Job is a gateway job: a core job carrying its fleet record (tenant,
// fingerprint, cache disposition, backend routing).
type Job = server.Job

// View is the JSON snapshot of a gateway job.
type View = server.View

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
	// RetryBackoff is the base failover backoff, doubled per attempt and
	// capped at 2s (default 100ms).
	ProbeInterval time.Duration
	RetryBackoff  time.Duration
	// Registry receives the stencilgate_* metric families (nil = fresh).
	Registry *metrics.Registry
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
	}
	if c.Retries <= 0 {
		c.Retries = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	return c
}

// Gateway is a server.Core whose executor runs jobs on the fleet, fronted
// by the result cache and singleflight. Safe for concurrent use.
type Gateway struct {
	*server.Core
	cfg     Config
	pool    *pool
	timeout time.Duration // bounds each backend request and streamed line

	mu      sync.Mutex
	cache   *cache
	flights map[string]*flight

	// Instruments (stencilgate_* families, documented in DESIGN.md).
	mCache     map[string]*metrics.Counter // by cache disposition
	mEvict     *metrics.Counter
	mFailovers *metrics.Counter
	mRetries   *metrics.Counter
}

// New starts a gateway: probers up, dispatcher running.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: at least one backend is required")
	}
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:     cfg,
		pool:    newPool(cfg.Backends, cfg.ProbeInterval),
		timeout: 10 * time.Second,
		cache:   newCache(cfg.CacheEntries, cfg.CacheBytes),
		flights: make(map[string]*flight),
	}
	r := cfg.Registry
	g.mCache = map[string]*metrics.Counter{
		"hit":       r.Counter("stencilgate_cache_hits_total", "jobs served from the content-addressed result cache", nil),
		"miss":      r.Counter("stencilgate_cache_misses_total", "cacheable jobs that had to execute", nil),
		"bypass":    r.Counter("stencilgate_cache_bypass_total", "jobs that forced re-execution via cache=bypass", nil),
		"coalesced": r.Counter("stencilgate_singleflight_merged_total", "submissions collapsed into an identical in-flight job", nil),
	}
	g.mEvict = r.Counter("stencilgate_cache_evictions_total", "cache entries evicted by the byte or entry cap", nil)
	g.mFailovers = r.Counter("stencilgate_failovers_total", "job attempts re-routed to another backend", nil)
	g.mRetries = r.Counter("stencilgate_retries_total", "job dispatch retries (backoff attempts past the first)", nil)
	g.Core = server.NewCore(server.CoreConfig{
		IDPrefix:     "gw",
		MetricPrefix: "stencilgate",
		Slots:        cfg.MaxInflight,
		QueueBound:   cfg.TenantQueue,
		Weights:      cfg.TenantWeights,
		Registry:     r,
		Exec:         g.exec,
		OnFinish:     g.landed,
	})
	r.GaugeFunc("stencilgate_jobs_inflight", "jobs currently dispatched onto the fleet", nil, func() int64 {
		_, n, _ := g.Load()
		return int64(n)
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
	for _, b := range g.pool.backends {
		b := b
		lbl := metrics.Labels{"backend": b.addr}
		b.jobs = r.Counter("stencilgate_backend_jobs_total", "jobs dispatched per backend", lbl)
		b.errs = r.Counter("stencilgate_backend_errors_total", "request failures per backend", lbl)
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
	return g, nil
}

func (g *Gateway) tenantCounter(name, help, tenant string) *metrics.Counter {
	return g.cfg.Registry.Counter(name, help, metrics.Labels{"tenant": tenant})
}

// Submit validates and admits a job. Cache hits and singleflight merges
// return immediately (the returned job may already be done); misses queue
// under the submitting tenant's fair share. A full tenant queue rejects
// with ErrQueueFull.
func (g *Gateway) Submit(spec server.Spec) (*Job, error) {
	j, err := server.NewJob(spec)
	if err != nil {
		return nil, err
	}
	if spec.Ranks > 0 {
		return nil, fmt.Errorf("gateway: distributed jobs (ranks=%d) are submitted to rank 0 of a mesh directly, not through the fleet gateway", spec.Ranks)
	}
	j.Tenant = spec.Tenant
	if j.Tenant == "" {
		j.Tenant = "default"
	}
	j.Fingerprint = spec.Fingerprint()
	status := "miss"
	switch {
	case strings.EqualFold(spec.Cache, server.CacheBypass):
		status = "bypass"
	case !cacheable(spec):
		status = "uncacheable"
	}

	g.mu.Lock()
	var hit *server.Result
	var fl *flight
	if status == "miss" {
		if res, _, ok := g.cache.get(j.Fingerprint); ok {
			hit, status = res, "hit"
		} else if fl = g.flights[j.Fingerprint]; fl != nil {
			status = "coalesced"
		}
	}
	j.SetCacheStatus(status)
	if hit != nil || fl != nil {
		if err = g.Register(j); err == nil && fl != nil {
			fl.waiters = append(fl.waiters, j)
		}
	} else if err = g.Admit(j, false); err == nil && status == "miss" {
		g.flights[j.Fingerprint] = &flight{leader: j}
	}
	g.mu.Unlock()
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			g.tenantCounter("stencilgate_jobs_rejected_total", "submissions rejected by tenant-queue backpressure", j.Tenant).Inc()
		}
		return nil, err
	}
	g.tenantCounter("stencilgate_jobs_admitted_total", "jobs admitted by tenant", j.Tenant).Inc()
	if c := g.mCache[status]; c != nil {
		c.Inc()
	}
	if hit != nil {
		g.Finish(j, hit, nil)
	}
	return j, nil
}

// cacheable reports whether spec's result may be stored: CacheSafe, except
// that a bypass still refreshes the entry it recomputes.
func cacheable(spec server.Spec) bool {
	spec.Cache = ""
	return spec.CacheSafe()
}

// landed is the core's finish hook: a singleflight leader's outcome lands
// on its waiters. A cancelled leader instead hands the flight to its first
// live waiter, which re-enters the queue (its admission was already
// granted) — one client's cancel does not cancel another's job.
func (g *Gateway) landed(j *Job) {
	g.mu.Lock()
	fl, ok := g.flights[j.Fingerprint]
	if !ok || fl.leader != j {
		g.mu.Unlock()
		return
	}
	waiters := fl.waiters
	if j.State() == server.StateCancelled {
		for len(waiters) > 0 && waiters[0].State().Terminal() {
			waiters = waiters[1:]
		}
		if len(waiters) > 0 && g.Admit(waiters[0], true) == nil {
			fl.leader, fl.waiters = waiters[0], waiters[1:]
			g.mu.Unlock()
			return
		}
	}
	delete(g.flights, j.Fingerprint)
	g.mu.Unlock()
	res, err := j.Result(), j.Err()
	if err != nil {
		err = fmt.Errorf("gateway: merged into job %s which did not complete: %w", j.ID, err)
	}
	for _, w := range waiters {
		g.Finish(w, res, err)
	}
}

// errPermanent marks a failure retrying cannot fix (a rejected spec, a failed or cancelled job).
type errPermanent struct{ err error }

func (e *errPermanent) Error() string { return e.err.Error() }
func (e *errPermanent) Unwrap() error { return e.err }

func permanent(err error) error { return &errPermanent{err} }

// wait blocks for d, or until ctx is done (returning its error).
func wait(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// exec is the remote executor: run on the rendezvous owner and, on a
// retryable failure, back off and fail over down the preference list —
// safe because a job's grid is a pure function of its spec.
func (g *Gateway) exec(ctx context.Context, j *Job) (*server.Result, error) {
	g.cfg.Registry.Histogram("stencilgate_queue_wait_seconds", "admission-to-dispatch wait by tenant", nil,
		metrics.Labels{"tenant": j.Tenant}).Observe(j.QueueWait().Seconds())
	var lastErr error
	for attempt := 0; attempt <= g.cfg.Retries; attempt++ {
		if attempt > 0 {
			g.mRetries.Inc()
			if err := wait(ctx, min(g.cfg.RetryBackoff<<(attempt-1), 2*time.Second)); err != nil {
				return nil, err
			}
		}
		b := g.pool.pickAt(j.Fingerprint, attempt)
		if b == nil {
			lastErr = errors.New("no healthy backends")
			continue
		}
		if attempt > 0 {
			g.mFailovers.Inc()
		}
		res, size, err := g.execOn(ctx, b, j, attempt)
		var pe *errPermanent
		switch {
		case err == nil:
			if cacheable(j.Spec) {
				g.mu.Lock()
				ev := g.cache.put(j.Fingerprint, res, size)
				g.mu.Unlock()
				g.mEvict.Add(int64(ev))
			}
			return res, nil
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case errors.As(err, &pe):
			return nil, pe.err
		}
		b.errs.Inc()
		lastErr = err
	}
	return nil, fmt.Errorf("gateway: job %s failed after %d attempts: %w", j.ID, g.cfg.Retries+1, lastErr)
}

// execOn runs j on one backend: submit, follow the job's stream to its
// terminal line (three lost reads mean the backend was lost mid-job), fetch
// the result and size it by the bytes it holds. Errors but errPermanent are
// retryable.
func (g *Gateway) execOn(ctx context.Context, b *backend, j *Job, attempt int) (*server.Result, int64, error) {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	j.Route(b.addr, "", attempt)
	var v server.View
	if err := g.submitTo(ctx, b, j.Spec, &v); err != nil {
		return nil, 0, err
	}
	b.jobs.Inc()
	j.Route(b.addr, v.ID, attempt)
	path := "/v1/jobs/" + v.ID
	for lost := 0; !v.State.Terminal(); {
		err := g.follow(ctx, b, path+"/stream", j, &v)
		if ctx.Err() != nil {
			// Best effort: a backend the cancel misses runs the job out,
			// and nothing waits for that result.
			_, _, _ = g.call(context.Background(), b, "POST", path+"/cancel", nil)
			return nil, 0, ctx.Err()
		}
		if err != nil {
			if lost++; lost == 3 {
				return nil, 0, fmt.Errorf("backend %s lost mid-job: %w", b.addr, err)
			}
		}
	}
	switch v.State {
	case server.StateDone:
		res, size, err := g.fetchResult(ctx, b, path, j)
		if err != nil {
			return nil, 0, fmt.Errorf("backend %s result fetch: %w", b.addr, err)
		}
		return res, size, nil
	case server.StateCancelled:
		return nil, 0, permanent(context.Canceled)
	default:
		return nil, 0, permanent(fmt.Errorf("backend %s: job failed: %s", b.addr, v.Error))
	}
}

// fetchResult reads a done backend job's report without its grid, then a
// real job's grid as raw bytes from /grid. The grid's length comes from the
// spec the gateway submitted, not from the backend, and its sha256 must
// equal the report's grid_sha256 before anything caches it. The size is
// what the result holds: the grid plus the report's JSON.
func (g *Gateway) fetchResult(ctx context.Context, b *backend, path string, j *Job) (*server.Result, int64, error) {
	resp, body, err := g.call(ctx, b, "GET", path+"/result", nil)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = errors.New(resp.Status)
	}
	res := new(server.Result)
	if err == nil {
		err = json.Unmarshal(body, res)
	}
	if err != nil {
		return nil, 0, err
	}
	if j.Engine() != "real" {
		return res, int64(len(body)), nil
	}
	n := int64(j.Spec.N)
	if res.Grid, err = g.fetchGrid(ctx, b, path+"/grid", n*n*8); err != nil {
		return nil, 0, err
	}
	if sum := sha256.Sum256(res.Grid); hex.EncodeToString(sum[:]) != res.GridSHA256 {
		return nil, 0, fmt.Errorf("grid bytes do not match grid_sha256 %q", res.GridSHA256)
	}
	return res, int64(len(res.Grid) + len(body)), nil
}

// fetchGrid reads a /grid body of exactly size bytes into one slice. A
// Content-Length other than size is refused before anything is allocated;
// a short body fails the read.
func (g *Gateway) fetchGrid(ctx context.Context, b *backend, path string, size int64) ([]byte, error) {
	var grid []byte
	err := g.send(ctx, b, "GET", path, nil, func(resp *http.Response) error {
		switch {
		case resp.StatusCode != http.StatusOK:
			return fmt.Errorf("%s: %s", path, resp.Status)
		case resp.ContentLength != size:
			return fmt.Errorf("%s: Content-Length %d, want %d", path, resp.ContentLength, size)
		}
		grid = make([]byte, size)
		_, err := io.ReadFull(resp.Body, grid)
		return err
	})
	return grid, err
}

// send makes one request to a backend, bounded by the request timeout, and
// hands the response to read before closing its body.
func (g *Gateway) send(ctx context.Context, b *backend, method, path string, body []byte, read func(*http.Response) error) error {
	ctx, cancel := context.WithTimeout(ctx, g.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.pool.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return read(resp)
}

// call makes one request to a backend and reads the whole (JSON) response
// body.
func (g *Gateway) call(ctx context.Context, b *backend, method, path string, body []byte) (*http.Response, []byte, error) {
	var resp *http.Response
	var data []byte
	err := g.send(ctx, b, method, path, body, func(r *http.Response) (err error) {
		resp = r
		data, err = io.ReadAll(r.Body)
		return err
	})
	return resp, data, err
}

// submitTo posts the spec, classifying the response: 202 succeeds (the
// backend's view lands in v), 4xx spec rejections are permanent,
// backpressure (429 with its Retry-After, 503) and transport errors are
// retryable.
func (g *Gateway) submitTo(ctx context.Context, b *backend, spec server.Spec, v *server.View) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return permanent(err)
	}
	resp, data, err := g.call(ctx, b, "POST", "/v1/jobs", body)
	switch {
	case err != nil:
		return fmt.Errorf("backend %s submit: %w", b.addr, err)
	case resp.StatusCode == http.StatusAccepted:
		if err := json.Unmarshal(data, v); err != nil {
			return fmt.Errorf("backend %s submit decode: %w", b.addr, err)
		}
		return nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		// Backend backpressure propagates into the failover/backoff loop:
		// honor its Retry-After before the next attempt.
		if d, err := time.ParseDuration(resp.Header.Get("Retry-After") + "s"); err == nil && d > 0 && d <= 5*time.Second {
			if err := wait(ctx, d); err != nil {
				return err
			}
		}
		return fmt.Errorf("backend %s pushed back: %s", b.addr, resp.Status)
	case resp.StatusCode >= 500:
		return fmt.Errorf("backend %s submit: %s", b.addr, resp.Status)
	default:
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) != nil || e.Error == "" {
			e.Error = resp.Status
		}
		return permanent(fmt.Errorf("backend %s rejected spec: %s", b.addr, e.Error))
	}
}

// follow reads one backend job's NDJSON stream until its terminal line,
// keeping the last view in v and its live counters on j. A stream that
// fails, ends early, stalls past the request timeout between lines, or
// carries a line that is not a job view (or is over 1 MiB) is one lost
// read, returned as an error.
func (g *Gateway) follow(ctx context.Context, b *backend, path string, j *Job, v *server.View) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stall := time.AfterFunc(g.timeout, cancel)
	defer stall.Stop()
	req, err := http.NewRequestWithContext(ctx, "GET", b.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := g.pool.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		stall.Reset(g.timeout)
		if err := json.Unmarshal(sc.Bytes(), v); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		j.ReportProgress(v.TasksDone, v.TasksTotal)
		if v.State.Terminal() {
			// Read the stream's end so the connection is reused.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return fmt.Errorf("%s: stream ended before the job did", path)
}

// Shutdown drains the gateway with the core's policy — admission closes,
// queued and running jobs get until ctx expires, then the rest are
// cancelled (running ones forward the cancel to their backend) — and then
// stops the probers.
func (g *Gateway) Shutdown(ctx context.Context) error {
	err := g.Core.Shutdown(ctx)
	g.pool.stop()
	return err
}
