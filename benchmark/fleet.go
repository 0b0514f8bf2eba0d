package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"sync"
	"time"

	"castencil"
	"castencil/internal/gateway"
	"castencil/internal/metrics"
	"castencil/internal/server"
)

// The fleet-mix job shape: every job is this small, so the service path
// and not the stencil sets the latency.
const (
	fleetN, fleetTile, fleetSteps = 128, 32, 20
	fleetClients                  = 2
	fleetRecent                   = 32 // a repeat draws from this many latest fresh specs
	fleetBlock                    = 16 // jobs per block of the stratified fresh/repeat coin
	fleetJobsPerClient            = 8192
	ladderReps                    = 30
)

// fleetJob is one entry of a client's job stream.
type fleetJob struct {
	Fresh bool // a spec not submitted before (a cache miss); else an exact repeat (a hit)
	Spec  server.Spec
}

// splitmix64 is the generator behind the job stream. It is written out here
// so the stream is a pure function of -seed on every Go release.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// freshSpec is the i-th fresh spec of a stream: a new initial-condition
// seed, with the kernel family cycling base / ca / wf.
func freshSpec(i int, seed uint64) server.Spec {
	spec := server.Spec{N: fleetN, Tile: fleetTile, Steps: fleetSteps, Workers: 1, Seed: seed}
	switch i % 3 {
	case 0:
		spec.Variant = "base"
	case 1:
		spec.Variant, spec.StepSize = "ca", 4
	case 2:
		spec.Variant, spec.Wavefront = "wf", 4
	}
	return spec
}

// genJobs generates one client's job stream, a pure function of (seed,
// client). A job is fresh with probability one half, else an exact repeat
// of one of the client's last fleetRecent fresh specs, drawn uniformly. The
// coin is stratified: every block of fleetBlock jobs holds as many fresh
// specs as repeats, in seeded random order, so the miss share of any
// window is one half whatever the seed and throughput differences between
// runs come from the service, not from the draw.
func genJobs(seed uint64, client, n int) []fleetJob {
	rng := splitmix64(seed*0x100000001b3 + uint64(client) + 1)
	jobs := make([]fleetJob, 0, n+fleetBlock)
	var fresh []server.Spec
	for len(jobs) < n {
		var coin [fleetBlock]bool // true = fresh
		for i := range coin {
			coin[i] = i%2 == 0
		}
		for i := len(coin) - 1; i > 0; i-- {
			j := rng.next() % uint64(i+1)
			coin[i], coin[j] = coin[j], coin[i]
		}
		for _, isFresh := range coin {
			if isFresh || len(fresh) == 0 { // nothing to repeat yet
				spec := freshSpec(len(fresh), rng.next()|1) // HashInit seed 0 means "default"
				fresh = append(fresh, spec)
				jobs = append(jobs, fleetJob{Fresh: true, Spec: spec})
				continue
			}
			recent := fresh[max(0, len(fresh)-fleetRecent):]
			jobs = append(jobs, fleetJob{Spec: recent[rng.next()%uint64(len(recent))]})
		}
	}
	return jobs[:n]
}

// fleetRig is one gateway over two stencild backends, all on loopback
// httptest servers. gateway.Config has only Backends set and server.Config
// only what the workload names, so every default is the production one.
type fleetRig struct {
	managers []*server.Manager
	backends []*httptest.Server
	gw       *gateway.Gateway
	front    *httptest.Server
}

func startFleet() (*fleetRig, error) {
	rig := &fleetRig{}
	var addrs []string
	for i := 0; i < 2; i++ {
		m := server.New(server.Config{MaxJobs: 2, QueueSize: 64})
		s := httptest.NewServer(server.Handler(m))
		rig.managers = append(rig.managers, m)
		rig.backends = append(rig.backends, s)
		addrs = append(addrs, s.URL)
	}
	gw, err := gateway.New(gateway.Config{Backends: addrs})
	if err != nil {
		rig.stop()
		return nil, err
	}
	rig.gw = gw
	rig.front = httptest.NewServer(gateway.Handler(gw))
	return rig, nil
}

func (r *fleetRig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if r.front != nil {
		r.front.Close()
	}
	if r.gw != nil {
		_ = r.gw.Shutdown(ctx) // draining an idle rig; nothing to report
	}
	for _, s := range r.backends {
		s.Close()
	}
	for _, m := range r.managers {
		_ = m.Shutdown(ctx)
	}
}

// counter sums a counter family over registries.
func counter(name string, labels metrics.Labels, regs ...*metrics.Registry) float64 {
	var n int64
	for _, reg := range regs {
		v, _ := reg.CounterValue(name, labels)
		n += v
	}
	return float64(n)
}

// fleetClient is one closed-loop submitter with one connection of its own.
type fleetClient struct {
	base string
	http *http.Client
}

func newFleetClient(base string) *fleetClient {
	return &fleetClient{base: base, http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
}

// jobOutcome is what the client saw of one job.
type jobOutcome struct {
	id      string
	sha     string
	cache   string
	latency time.Duration
}

// do runs one job the way a submitter does: POST the spec, follow the
// progress stream to its end, fetch the result. Any error, unexpected
// status or non-done terminal state fails the job.
func (c *fleetClient) do(spec server.Spec, rec *recorder, op int) (jobOutcome, error) {
	var out jobOutcome
	body, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	top := rec.begin("job", 0, op, 0)
	defer rec.end(top)
	t0 := time.Now()

	var view struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Cache string `json:"cache"`
	}
	id := rec.begin("client.post", top, op, 0)
	err = c.call("POST", "/v1/jobs", body, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&view)
	})
	rec.end(id)
	if err != nil {
		return out, err
	}
	out.id, out.cache = view.ID, view.Cache

	id = rec.begin("client.stream", top, op, 0)
	err = c.call("GET", "/v1/jobs/"+view.ID+"/stream", nil, http.StatusOK, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		var last []byte
		for sc.Scan() {
			last = append(last[:0], sc.Bytes()...)
		}
		if err := sc.Err(); err != nil {
			return err
		}
		return json.Unmarshal(last, &view)
	})
	rec.end(id)
	if err != nil {
		return out, err
	}
	if view.State != string(server.StateDone) {
		return out, fmt.Errorf("job %s ended %s", view.ID, view.State)
	}

	var result struct {
		SHA string `json:"grid_sha256"`
	}
	id = rec.begin("client.result", top, op, 0)
	err = c.call("GET", "/v1/jobs/"+view.ID+"/result", nil, http.StatusOK, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&result)
	})
	rec.end(id)
	out.sha, out.latency = result.SHA, time.Since(t0)
	return out, err
}

// call makes one request, checks the status and hands the body to read; the
// body is drained and closed so the connection is reused.
func (c *fleetClient) call(method, path string, body []byte, want int, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// fleetRecord is one completed job, kept for the check after the window.
type fleetRecord struct {
	fresh bool
	seed  uint64
	jobOutcome
}

// runFleet is the measuring process of fleet-mix.
func runFleet(seed uint64, seconds float64, trace, coldOnly bool) (*childResult, error) {
	res := &childResult{Metrics: map[string]float64{}, Info: map[string]any{}}
	rec := (*recorder)(nil)
	if trace {
		rec = newRecorder()
	}
	rig, err := startFleet()
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	clients := make([]*fleetClient, fleetClients)
	streams := make([][]fleetJob, fleetClients)
	for c := range clients {
		clients[c] = newFleetClient(rig.front.URL)
		streams[c] = genJobs(seed, c, fleetJobsPerClient)
	}

	// The cold job, then one warm-up job per client: the first entries of
	// the streams, which are fresh by construction.
	var records []fleetRecord
	first := func(c int) error {
		out, err := clients[c].do(streams[c][0].Spec, nil, 0)
		records = append(records, fleetRecord{true, streams[c][0].Spec.Seed, out})
		return err
	}
	err = first(0)
	res.ColdEndUnixNano = time.Now().UnixNano()
	if err != nil {
		return nil, fmt.Errorf("cold job: %w", err)
	}
	if coldOnly {
		return res, nil
	}
	if err := first(1); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	res.Attempted = 2

	if trace {
		seconds /= 2
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	start := time.Now()
	for c, client := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, job := range streams[c][1:] {
				if time.Since(start).Seconds() >= seconds {
					return
				}
				out, err := client.do(job.Spec, rec, c*fleetJobsPerClient+i+1)
				mu.Lock()
				res.Attempted++
				if err != nil {
					res.fail(err.Error())
				} else {
					records = append(records, fleetRecord{job.Fresh, job.Spec.Seed, out})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	goruntime.ReadMemStats(&m1)
	res.Metrics["peak_rss_mb"] = peakRSSMB()

	// Check every job against the sequential oracle for its seed, which
	// also asserts that the three kernel families agree bitwise.
	want := map[uint64]string{}
	var miss, hit []float64
	distinct := map[uint64]bool{}
	good := 0
	for _, r := range records[2:] {
		if r.fresh {
			miss = append(miss, r.latency.Seconds())
		} else {
			hit = append(hit, r.latency.Seconds())
		}
	}
	for _, r := range records {
		if r.fresh {
			distinct[r.seed] = true
		}
		if want[r.seed] == "" {
			want[r.seed] = oracleSHA(fleetN, fleetSteps, castencil.HashInit(r.seed))
		}
		if r.sha != want[r.seed] {
			res.fail(fmt.Sprintf("job seed %d: sha %s, want %s", r.seed, r.sha, want[r.seed]))
			continue
		}
		good++
	}
	if len(miss) == 0 {
		return nil, fmt.Errorf("no fresh job completed: %v", res.Errors)
	}
	res.Info["jobs"], res.Info["misses"], res.Info["hits"] = len(records)-2, len(miss), len(hit)

	if !trace {
		latencyMetrics(res, miss)
		res.Metrics["jobs_per_s"] = float64(good-2) / elapsed
		res.Metrics["alloc_mb_per_solve"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(len(miss))
		return res, nil
	}

	m := res.Metrics
	gwReg := rig.gw.Metrics()
	backendRegs := []*metrics.Registry{rig.managers[0].Metrics(), rig.managers[1].Metrics()}
	m["gateway.hit_us_p50"] = median(hit) * 1e6
	m["gateway.hit_us_p95"] = quantile(hit, supportedPercentile(len(hit), 0.95)) * 1e6
	m["gateway.hit_ratio"] = (counter("stencilgate_cache_hits_total", nil, gwReg) +
		counter("stencilgate_singleflight_merged_total", nil, gwReg)) / float64(len(records))
	m["gateway.backend_execs"] = counter("stencild_jobs_submitted_total", nil, backendRegs...)
	if int(m["gateway.backend_execs"]) != len(distinct) {
		res.fail(fmt.Sprintf("backends executed %v jobs for %d distinct fresh specs", m["gateway.backend_execs"], len(distinct)))
	}
	m["gateway.retries"] = counter("stencilgate_retries_total", nil, gwReg)
	m["gateway.failovers"] = counter("stencilgate_failovers_total", nil, gwReg)
	tenant := metrics.Labels{"tenant": "default"}
	m["gateway.rejected"] = counter("stencilgate_jobs_rejected_total", tenant, gwReg)
	m["gateway.queue_wait_ms_p50"] = gwReg.Histogram("stencilgate_queue_wait_seconds", "", nil, tenant).Quantile(0.5) * 1e3

	// In-process hit: resubmit a cached spec straight to the gateway.
	cached := streams[0][0].Spec
	m["gateway.submit_hit_us"] = best(1, ladderReps, func() {
		if j, err := rig.gw.Submit(cached); err == nil {
			<-j.Done()
		}
	}) * 1e6

	if err := hopLadder(m); err != nil {
		return nil, err
	}
	m["gateway.miss_tax_ms"] = median(miss)*1e3 - m["server.http_job_ms_p50"]
	res.Info["traced_miss_ms_p50"] = median(miss) * 1e3
	probes(m, res.Info)
	return res, rec.write(spansPath("fleet-mix"), "fleet-mix", seed)
}

// hopLadder prices each hop a fleet-mix miss crosses by running the same
// job shape at every rung: the facade alone, through a job manager, through
// one backend's HTTP surface. With the gateway on top, the rungs sum to the
// traced miss latency by construction.
func hopLadder(m map[string]float64) error {
	spec := func(i int) server.Spec { return freshSpec(i, uint64(1000+i)) }

	var direct []float64
	for i := 0; i < ladderReps; i++ {
		s := spec(i)
		cfg := castencil.Config{N: s.N, TileRows: s.Tile, Steps: s.Steps, StepSize: s.StepSize,
			Wavefront: s.Wavefront, Init: castencil.HashInit(s.Seed)}
		variant := map[string]castencil.Variant{"base": castencil.Base, "ca": castencil.CA, "wf": castencil.WF}[s.Variant]
		t0 := time.Now()
		if _, err := castencil.Run(variant, cfg, castencil.WithWorkers(1)); err != nil {
			return err
		}
		direct = append(direct, time.Since(t0).Seconds())
	}

	mgr := server.New(server.Config{MaxJobs: 2, QueueSize: 64})
	srv := httptest.NewServer(server.Handler(mgr))
	defer func() {
		srv.Close()
		_ = mgr.Shutdown(context.Background())
	}()
	var inProc, wait []float64
	for i := 0; i < ladderReps; i++ {
		t0 := time.Now()
		j, err := mgr.Submit(spec(i))
		if err != nil {
			return err
		}
		<-j.Done()
		inProc = append(inProc, time.Since(t0).Seconds())
		if v := j.Snapshot(); v.StartedAt != nil {
			wait = append(wait, v.StartedAt.Sub(v.SubmittedAt).Seconds())
		}
	}

	client := newFleetClient(srv.URL)
	var overHTTP, gridFetch []float64
	gridBytes := 0
	for i := 0; i < ladderReps; i++ {
		out, err := client.do(spec(i), nil, 0)
		if err != nil {
			return err
		}
		overHTTP = append(overHTTP, out.latency.Seconds())
		// What the gateway does on every miss: fetch the result with the
		// grid.
		t0 := time.Now()
		err = client.call("GET", "/v1/jobs/"+out.id+"/result?grid=1", nil, http.StatusOK, func(r io.Reader) error {
			n, err := io.Copy(io.Discard, r)
			gridBytes = int(n)
			return err
		})
		if err != nil {
			return err
		}
		gridFetch = append(gridFetch, time.Since(t0).Seconds())
	}

	m["run.direct_ms_p50"] = median(direct) * 1e3
	m["server.job_ms_p50"] = median(inProc) * 1e3
	m["server.tax_ms"] = m["server.job_ms_p50"] - m["run.direct_ms_p50"]
	m["server.http_job_ms_p50"] = median(overHTTP) * 1e3
	m["server.http_tax_ms"] = m["server.http_job_ms_p50"] - m["server.job_ms_p50"]
	m["server.queue_wait_ms_p50"] = median(wait) * 1e3
	m["server.result_grid_ms"] = median(gridFetch) * 1e3
	m["server.result_kb"] = float64(gridBytes) / 1e3
	return nil
}
