package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"castencil/internal/metrics"
	"castencil/internal/server"
)

// fleetBackend is one in-process stencild: manager + HTTP server.
type fleetBackend struct {
	mgr *server.Manager
	reg *metrics.Registry
	srv *httptest.Server
}

func (b *fleetBackend) submitted() int64 {
	n, _ := b.reg.CounterValue("stencild_jobs_submitted_total", nil)
	return n
}

func (b *fleetBackend) close() {
	b.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = b.mgr.Shutdown(ctx)
}

func startBackend(t *testing.T, maxJobs, queue int) *fleetBackend {
	t.Helper()
	reg := metrics.NewRegistry()
	mgr := server.New(server.Config{MaxJobs: maxJobs, QueueSize: queue, Registry: reg})
	srv := httptest.NewServer(server.Handler(mgr))
	b := &fleetBackend{mgr: mgr, reg: reg, srv: srv}
	t.Cleanup(b.close)
	return b
}

func startGateway(t *testing.T, cfg Config, backends ...*fleetBackend) *Gateway {
	t.Helper()
	for _, b := range backends {
		cfg.Backends = append(cfg.Backends, b.srv.URL)
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	})
	return g
}

// quickSpec finishes in milliseconds; slowSpec runs long enough to observe
// (and kill things) mid-flight.
func quickSpec(seed uint64) server.Spec {
	return server.Spec{Engine: "real", Variant: "ca", N: 64, Tile: 16, Steps: 6, StepSize: 3, Seed: seed, Workers: 1}
}

func slowSpec(seed uint64) server.Spec {
	return server.Spec{Engine: "real", Variant: "ca", N: 256, Tile: 32, Steps: 400, StepSize: 8, Seed: seed, Workers: 1}
}

func waitDone(t *testing.T, j *Job) *server.Result {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish (state %s)", j.ID, j.State())
	}
	if j.State() != server.StateDone {
		t.Fatalf("job %s = %s (err %v), want done", j.ID, j.State(), j.Err())
	}
	res := j.Result()
	if res == nil {
		t.Fatalf("job %s done with nil result", j.ID)
	}
	return res
}

func TestGatewayCacheHitServedWithoutBackend(t *testing.T) {
	b := startBackend(t, 2, 16)
	g := startGateway(t, Config{}, b)

	j1, err := g.Submit(quickSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	r1 := waitDone(t, j1)
	if j1.Snapshot().Cache != "miss" {
		t.Fatalf("first job cache status %q, want miss", j1.Snapshot().Cache)
	}
	if r1.GridSHA256 == "" || r1.Grid == nil {
		t.Fatal("backend result missing grid sha or bytes")
	}
	before := b.submitted()

	// Identical spec, even with different execution-only knobs: a cache
	// hit, served without touching the backend, bitwise-equal result.
	respec := quickSpec(7)
	respec.Workers = 2
	respec.Coalesce = "step"
	j2, err := g.Submit(respec)
	if err != nil {
		t.Fatal(err)
	}
	r2 := waitDone(t, j2)
	if j2.Snapshot().Cache != "hit" {
		t.Fatalf("repeat cache status %q, want hit", j2.Snapshot().Cache)
	}
	if b.submitted() != before {
		t.Fatalf("cache hit touched the backend: %d submissions, want %d", b.submitted(), before)
	}
	if r2.GridSHA256 != r1.GridSHA256 || !bytes.Equal(r2.Grid, r1.Grid) {
		t.Fatal("cache hit is not bitwise-equal to the original result")
	}
	if hits, _ := g.Metrics().CounterValue("stencilgate_cache_hits_total", nil); hits != 1 {
		t.Fatalf("stencilgate_cache_hits_total = %d, want 1", hits)
	}
}

func TestGatewayDifferentSpecMisses(t *testing.T) {
	b := startBackend(t, 2, 16)
	g := startGateway(t, Config{}, b)

	r1 := waitDone(t, mustSubmit(t, g, quickSpec(7)))
	r2 := waitDone(t, mustSubmit(t, g, quickSpec(8))) // different seed: different content
	if r1.GridSHA256 == r2.GridSHA256 {
		t.Fatal("different seeds produced the same grid sha (suspicious cache collision)")
	}
	if b.submitted() != 2 {
		t.Fatalf("2 distinct specs made %d backend submissions, want 2", b.submitted())
	}
}

func mustSubmit(t *testing.T, g *Gateway, spec server.Spec) *Job {
	t.Helper()
	j, err := g.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestGatewaySingleflightExecutesOnce(t *testing.T) {
	b := startBackend(t, 2, 16)
	g := startGateway(t, Config{}, b)

	// Identical concurrent submissions: one leader executes, the rest ride
	// along and land the same (bitwise-equal) result.
	leader := mustSubmit(t, g, quickSpec(11))
	var waiters []*Job
	for i := 0; i < 4; i++ {
		waiters = append(waiters, mustSubmit(t, g, quickSpec(11)))
	}
	rl := waitDone(t, leader)
	for _, w := range waiters {
		rw := waitDone(t, w)
		if rw.GridSHA256 != rl.GridSHA256 {
			t.Fatal("singleflight waiter got a different grid sha than the leader")
		}
		if got := w.Snapshot().Cache; got != "coalesced" && got != "hit" {
			t.Fatalf("waiter cache status %q, want coalesced (or hit if the leader already landed)", got)
		}
	}
	if b.submitted() != 1 {
		t.Fatalf("singleflight made %d backend submissions, want 1", b.submitted())
	}
	merged, _ := g.Metrics().CounterValue("stencilgate_singleflight_merged_total", nil)
	hits, _ := g.Metrics().CounterValue("stencilgate_cache_hits_total", nil)
	if merged+hits != 4 {
		t.Fatalf("merged(%d) + hits(%d) = %d, want 4", merged, hits, merged+hits)
	}
}

func TestGatewayBypassForcesReexecution(t *testing.T) {
	b := startBackend(t, 2, 16)
	g := startGateway(t, Config{}, b)

	r1 := waitDone(t, mustSubmit(t, g, quickSpec(13)))
	before := b.submitted()

	spec := quickSpec(13)
	spec.Cache = "bypass"
	j := mustSubmit(t, g, spec)
	r2 := waitDone(t, j)
	if j.Snapshot().Cache != "bypass" {
		t.Fatalf("cache status %q, want bypass", j.Snapshot().Cache)
	}
	if b.submitted() != before+1 {
		t.Fatalf("bypass did not re-execute: %d submissions, want %d", b.submitted(), before+1)
	}
	// Determinism: the re-execution reproduces the grid bit for bit.
	if r2.GridSHA256 != r1.GridSHA256 {
		t.Fatal("bypass re-execution produced a different grid sha")
	}
	// The bypass refreshed the cache entry: a plain repeat hits.
	j3 := mustSubmit(t, g, quickSpec(13))
	waitDone(t, j3)
	if j3.Snapshot().Cache != "hit" {
		t.Fatalf("post-bypass repeat status %q, want hit", j3.Snapshot().Cache)
	}
}

func TestGatewayTenantBackpressure(t *testing.T) {
	b := startBackend(t, 1, 16)
	g := startGateway(t, Config{TenantQueue: 1, MaxInflight: 1}, b)

	// Occupy the single dispatch slot with a long job, then fill tenant
	// "busy"'s queue of one. The third submission bounces; another tenant
	// still gets in.
	spec := slowSpec(1)
	spec.Tenant = "busy"
	running := mustSubmit(t, g, spec)
	deadline := time.Now().Add(5 * time.Second)
	for running.State() == server.StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("first job never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	spec2 := slowSpec(2)
	spec2.Tenant = "busy"
	mustSubmit(t, g, spec2)
	spec3 := slowSpec(3)
	spec3.Tenant = "busy"
	if _, err := g.Submit(spec3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull tenant queue: got %v, want ErrQueueFull", err)
	}
	spec4 := slowSpec(4)
	spec4.Tenant = "other"
	mustSubmit(t, g, spec4)
	rej, _ := g.Metrics().CounterValue("stencilgate_jobs_rejected_total", metrics.Labels{"tenant": "busy"})
	if rej != 1 {
		t.Fatalf("stencilgate_jobs_rejected_total{tenant=busy} = %d, want 1", rej)
	}
}

func TestGatewayFailoverMidJob(t *testing.T) {
	// Two backends; kill whichever one the job lands on mid-run. The
	// gateway fails the job over to the survivor and the final grid is
	// bitwise-identical to an undisturbed single-backend run.
	ref := startBackend(t, 1, 16)
	gref := startGateway(t, Config{}, ref)
	want := waitDone(t, mustSubmit(t, gref, slowSpec(21)))

	b1 := startBackend(t, 1, 16)
	b2 := startBackend(t, 1, 16)
	g := startGateway(t, Config{Retries: 4}, b1, b2)

	j := mustSubmit(t, g, slowSpec(21))
	deadline := time.Now().Add(5 * time.Second)
	var victim *fleetBackend
	for victim == nil {
		if time.Now().After(deadline) {
			t.Fatal("job never landed on a backend")
		}
		snap := j.Snapshot()
		if snap.BackendJob != "" {
			for _, b := range []*fleetBackend{b1, b2} {
				if strings.Contains(b.srv.URL, snap.Backend) {
					victim = b
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim.srv.CloseClientConnections()
	victim.srv.Close()

	got := waitDone(t, j)
	if got.GridSHA256 != want.GridSHA256 {
		t.Fatalf("failover grid sha %s != reference %s", got.GridSHA256, want.GridSHA256)
	}
	fo, _ := g.Metrics().CounterValue("stencilgate_failovers_total", nil)
	if fo == 0 {
		t.Fatal("stencilgate_failovers_total = 0, want > 0")
	}
}

func TestGatewayCancelQueued(t *testing.T) {
	b := startBackend(t, 1, 16)
	g := startGateway(t, Config{MaxInflight: 1}, b)

	running := mustSubmit(t, g, slowSpec(31))
	deadline := time.Now().Add(5 * time.Second)
	for running.State() == server.StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("first job never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	queued := mustSubmit(t, g, slowSpec(32))
	if err := g.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-queued.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled queued job never terminal")
	}
	if queued.State() != server.StateCancelled {
		t.Fatalf("state %s, want cancelled", queued.State())
	}
	if err := g.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-running.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled running job never terminal")
	}
	if running.State() != server.StateCancelled {
		t.Fatalf("running job state %s, want cancelled", running.State())
	}
}

// TestGatewayBodyTooLarge checks the gateway bounds submit bodies like a
// backend does: 2 MiB answers 413, and the next valid submit is accepted.
func TestGatewayBodyTooLarge(t *testing.T) {
	g := startGateway(t, Config{}, startBackend(t, 1, 4))
	front := httptest.NewServer(Handler(g))
	t.Cleanup(front.Close)
	post := func(body string) int {
		resp, err := http.Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"variant":"` + strings.Repeat("x", 2<<20) + `"}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB body: %d, want 413", code)
	}
	if code := post(`{"engine":"real","variant":"ca","n":64,"tile":16,"steps":6,"step_size":3,"seed":7,"workers":1}`); code != http.StatusAccepted {
		t.Errorf("submit after the oversized body: %d, want 202", code)
	}
}

func TestGatewayHTTPSurface(t *testing.T) {
	b := startBackend(t, 2, 16)
	g := startGateway(t, Config{}, b)
	front := httptest.NewServer(Handler(g))
	t.Cleanup(front.Close)

	// Submit through HTTP.
	body := `{"engine":"real","variant":"ca","n":64,"tile":16,"steps":6,"step_size":3,"seed":7,"workers":1,"tenant":"web"}`
	resp, err := http.Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if v.Tenant != "web" || v.Fingerprint == "" {
		t.Fatalf("view missing fleet fields: %+v", v)
	}

	// Stream until terminal: last line is the gateway terminal snapshot.
	sresp, err := http.Get(front.URL + "/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var last string
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	var terminal View
	if err := json.Unmarshal([]byte(last), &terminal); err != nil {
		t.Fatalf("last stream line not a gateway view: %v (%q)", err, last)
	}
	if terminal.State != server.StateDone {
		t.Fatalf("stream ended at state %s, want done", terminal.State)
	}

	// Result without ?grid=1 has the sha but not the data.
	rresp, err := http.Get(front.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res server.Result
	if err := json.NewDecoder(rresp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if res.GridSHA256 == "" || res.GridData != "" {
		t.Fatalf("result: sha %q data %d bytes; want sha set, data stripped", res.GridSHA256, len(res.GridData))
	}

	// Healthz: status word first, JSON payload last.
	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody := make([]byte, 4096)
	n, _ := hresp.Body.Read(hbody)
	hresp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(hbody[:n])), "\n")
	if lines[0] != "ok" {
		t.Fatalf("healthz first line %q, want ok", lines[0])
	}
	var h health
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &h); err != nil {
		t.Fatalf("healthz last line not JSON: %v", err)
	}
	if h.BackendsTotal != 1 {
		t.Fatalf("healthz backends_total = %d, want 1", h.BackendsTotal)
	}

	// Unknown spec field -> 400 at the gateway, no backend involved.
	bresp, err := http.Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(`{"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus spec status %d, want 400", bresp.StatusCode)
	}
}

func TestGatewayRejectsDistributedSpecs(t *testing.T) {
	b := startBackend(t, 1, 4)
	g := startGateway(t, Config{}, b)
	spec := quickSpec(1)
	spec.Ranks = 2
	if _, err := g.Submit(spec); err == nil {
		t.Fatal("gateway accepted a ranks>0 spec")
	}
}

func TestGatewayShutdownDrains(t *testing.T) {
	b := startBackend(t, 1, 16)
	g := startGateway(t, Config{MaxInflight: 1}, b)
	running := mustSubmit(t, g, quickSpec(41))
	queued := mustSubmit(t, g, slowSpec(42))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !running.State().Terminal() || !queued.State().Terminal() {
		t.Fatalf("jobs not terminal after shutdown: %s / %s", running.State(), queued.State())
	}
	if _, err := g.Submit(quickSpec(43)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-shutdown submit: got %v, want ErrDraining", err)
	}
}

// TestGatewayMissMakesNoStatusPolls pins the event-driven miss path: the
// gateway follows the backend's stream to its terminal line and never reads
// GET /v1/jobs/{id}.
func TestGatewayMissMakesNoStatusPolls(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr := server.New(server.Config{MaxJobs: 2, QueueSize: 16, Registry: reg})
	h := server.Handler(mgr)
	var polls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == "GET" && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && strings.Count(r.URL.Path, "/") == 3 {
			polls.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	b := &fleetBackend{mgr: mgr, reg: reg, srv: srv}
	t.Cleanup(b.close)
	g := startGateway(t, Config{}, b)
	if res := waitDone(t, mustSubmit(t, g, quickSpec(51))); res.GridSHA256 == "" {
		t.Fatal("miss result has no grid sha")
	}
	if n := polls.Load(); n != 0 {
		t.Fatalf("a miss made %d status requests, want 0", n)
	}
}

// waitGoroutines fails the test unless the goroutine count settles back to
// at most base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// hostileBackend accepts every job and serves the job routes in routes,
// keyed by path suffix ("/stream", "/result", "/grid"), counting the
// requests to each.
func hostileBackend(t *testing.T, routes map[string]http.HandlerFunc) (*httptest.Server, map[string]*atomic.Int64) {
	hits := make(map[string]*atomic.Int64, len(routes))
	for suffix := range routes {
		hits[suffix] = new(atomic.Int64)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == "POST" && r.URL.Path == "/v1/jobs" {
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(server.View{ID: "job-000001", State: server.StateQueued})
			return
		}
		for suffix, serve := range routes {
			if strings.HasSuffix(r.URL.Path, suffix) {
				hits[suffix].Add(1)
				serve(w, r)
				return
			}
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, hits
}

// ownedBy returns a quick spec whose rendezvous owner is addr among addrs.
func ownedBy(addr string, addrs ...string) server.Spec {
	for seed := uint64(1); ; seed++ {
		spec := quickSpec(seed)
		fp, best := spec.Fingerprint(), true
		for _, other := range addrs {
			best = best && rendezvousScore(fp, addr) > rendezvousScore(fp, other)
		}
		if best {
			return spec
		}
	}
}

// TestGatewayHostileStreamFailsOver: a backend whose stream sends a non-JSON
// line, a line over 1 MiB, or stalls past the request timeout costs one lost
// read per stream request. Three fail the job over to a healthy backend,
// whose grid it returns, and no goroutine is left behind.
func TestGatewayHostileStreamFailsOver(t *testing.T) {
	for name, stream := range map[string]func(http.ResponseWriter, *http.Request){
		"non-JSON line": func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "not a job view")
		},
		"line over 1 MiB": func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write(append(bytes.Repeat([]byte("x"), 1<<20+1), '\n'))
		},
		"stalled stream": func(w http.ResponseWriter, r *http.Request) {
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		},
	} {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			good := startBackend(t, 1, 16)
			hostile, hits := hostileBackend(t, map[string]http.HandlerFunc{"/stream": stream})
			g := startGateway(t, Config{Backends: []string{hostile.URL}}, good)
			g.timeout = 200 * time.Millisecond
			hostileAddr, _ := normalizeAddr(hostile.URL)
			goodAddr, _ := normalizeAddr(good.srv.URL)

			got := waitDone(t, mustSubmit(t, g, ownedBy(hostileAddr, goodAddr)))
			if got.GridSHA256 == "" {
				t.Fatal("failed-over job has no grid sha")
			}
			if n := hits["/stream"].Load(); n != 3 {
				t.Fatalf("hostile stream read %d times, want 3 lost reads", n)
			}
			if fo, _ := g.Metrics().CounterValue("stencilgate_failovers_total", nil); fo != 1 {
				t.Fatalf("stencilgate_failovers_total = %d, want 1", fo)
			}
			if err := g.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			hostile.Close()
			good.close()
			waitGoroutines(t, base)
		})
	}
}

// TestGatewayCancelDuringRetryAfter: a backend's Retry-After wait is bound
// to the job's context, so a cancel ends the job at once.
func TestGatewayCancelDuringRetryAfter(t *testing.T) {
	posted := make(chan struct{}, 1)
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == "POST" {
			w.Header().Set("Retry-After", "5")
			w.WriteHeader(http.StatusTooManyRequests)
			select {
			case posted <- struct{}{}:
			default:
			}
		}
	}))
	t.Cleanup(busy.Close)
	g := startGateway(t, Config{Backends: []string{busy.URL}})
	j := mustSubmit(t, g, quickSpec(61))
	<-posted
	if err := g.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("cancel did not interrupt the Retry-After wait")
	}
	if j.State() != server.StateCancelled {
		t.Fatalf("state %s, want cancelled", j.State())
	}
}
