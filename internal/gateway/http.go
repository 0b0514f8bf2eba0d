package gateway

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"castencil/internal/server"
)

// View is the JSON snapshot of a gateway job: the stencild view shape plus
// the fleet dimensions (tenant, fingerprint, cache disposition, routing).
type View struct {
	ID          string       `json:"id"`
	State       server.State `json:"state"`
	Tenant      string       `json:"tenant"`
	Priority    string       `json:"priority"`
	Fingerprint string       `json:"fingerprint"`
	// Cache is the cache disposition: hit, miss, coalesced, bypass or
	// uncacheable.
	Cache      string `json:"cache"`
	Backend    string `json:"backend,omitempty"`
	BackendJob string `json:"backend_job,omitempty"`
	Retries    int    `json:"retries,omitempty"`
	Error      string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	TasksDone  int64   `json:"tasks_done"`
	TasksTotal int64   `json:"tasks_total"`
	Progress   float64 `json:"progress"`
}

// Snapshot captures the job's current state for serialization.
func (j *Job) Snapshot() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:          j.ID,
		State:       j.state,
		Tenant:      j.Tenant,
		Priority:    j.prio.String(),
		Fingerprint: j.Fingerprint,
		Cache:       j.cacheStatus,
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
	if bv := j.lastView; bv != nil {
		v.TasksDone, v.TasksTotal, v.Progress = bv.TasksDone, bv.TasksTotal, bv.Progress
	}
	if j.state == server.StateDone {
		v.Progress = 1
		if bv := j.lastView; bv != nil {
			v.TasksDone = bv.TasksTotal
		}
	}
	return v
}

// health is the gateway's own /healthz payload.
type health struct {
	Status          string `json:"status"`
	BackendsHealthy int    `json:"backends_healthy"`
	BackendsTotal   int    `json:"backends_total"`
	QueueDepth      int    `json:"queue_depth"`
	Inflight        int    `json:"inflight"`
	CacheEntries    int    `json:"cache_entries"`
	CacheBytes      int64  `json:"cache_bytes"`
}

// Handler returns the gateway's HTTP API, the same surface a stencild
// exposes so clients (and the smoke scripts) point at a fleet the way they
// point at one daemon:
//
//	POST /v1/jobs              submit a Spec -> 202 + gateway job view
//	GET  /v1/jobs              list gateway jobs
//	GET  /v1/jobs/{id}         one job's live view
//	GET  /v1/jobs/{id}/stream  NDJSON progress (proxied from the backend)
//	POST /v1/jobs/{id}/cancel  request cancellation
//	GET  /v1/jobs/{id}/result  terminal result (?grid=1 for the field data)
//	GET  /metrics              Prometheus text exposition (stencilgate_*)
//	GET  /healthz              status word + fleet health JSON
//
// Backpressure composes: a full tenant queue answers 429 + Retry-After at
// the gateway; backend 429/503s feed the failover loop instead of the
// client.
func Handler(g *Gateway) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec server.Spec
		if !server.DecodeSpec(w, r, &spec) {
			return
		}
		j, err := g.Submit(spec)
		if err != nil {
			switch {
			case errors.Is(err, ErrQueueFull):
				w.Header().Set("Retry-After", "1")
				writeErr(w, http.StatusTooManyRequests, err)
			case errors.Is(err, ErrDraining):
				writeErr(w, http.StatusServiceUnavailable, err)
			default:
				writeErr(w, http.StatusBadRequest, err)
			}
			return
		}
		writeJSON(w, http.StatusAccepted, j.Snapshot())
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := g.Jobs()
		views := make([]View, len(jobs))
		for i, j := range jobs {
			views[i] = j.Snapshot()
		}
		writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := g.Get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, ErrNotFound)
			return
		}
		writeJSON(w, http.StatusOK, j.Snapshot())
	})
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if err := g.Cancel(r.PathValue("id")); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		j, _ := g.Get(r.PathValue("id"))
		writeJSON(w, http.StatusAccepted, j.Snapshot())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		j, ok := g.Get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, ErrNotFound)
			return
		}
		switch j.State() {
		case server.StateDone:
		case server.StateFailed, server.StateCancelled:
			writeErr(w, http.StatusConflict, fmt.Errorf("gateway: job %s is %s: %v", j.ID, j.State(), j.Err()))
			return
		default:
			writeErr(w, http.StatusConflict, fmt.Errorf("gateway: job %s is %s, not terminal", j.ID, j.State()))
			return
		}
		// Serve the backend result verbatim (the cache holds it with the
		// grid data, fetched once at execution); strip the field bytes
		// unless the client asked for them, exactly as a stencild would.
		res := *j.Result()
		if r.URL.Query().Get("grid") == "" {
			res.GridData = ""
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		j, ok := g.Get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, ErrNotFound)
			return
		}
		g.streamJob(w, r, j)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = g.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		healthy, total := g.Healthy()
		h := health{
			Status:          "ok",
			BackendsHealthy: healthy,
			BackendsTotal:   total,
		}
		switch {
		case g.Draining():
			h.Status = "draining"
		case healthy == 0:
			h.Status = "degraded"
		}
		g.mu.Lock()
		h.QueueDepth = g.adm.depth()
		h.Inflight = g.inflight
		h.CacheEntries = g.cache.len()
		h.CacheBytes = g.cache.size()
		g.mu.Unlock()
		status := http.StatusOK
		if h.Status != "ok" {
			status = http.StatusServiceUnavailable
		}
		w.WriteHeader(status)
		fmt.Fprintln(w, h.Status)
		fmt.Fprintf(w, "backends: %d/%d healthy\n", healthy, total)
		_ = json.NewEncoder(w).Encode(h)
	})
	return mux
}

// streamJob serves NDJSON progress: while the job executes on a backend its
// stream is proxied through line by line (the client sees the backend's
// live task counters, not a gateway approximation); the final line is
// always the gateway's own terminal snapshot, so failovers and cache hits
// stream coherently too.
func (g *Gateway) streamJob(w http.ResponseWriter, r *http.Request, j *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func() {
		_ = enc.Encode(j.Snapshot())
		if fl != nil {
			fl.Flush()
		}
	}
	emit()
	proxied := "" // backend job already streamed, never re-attach to the same one
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-j.Done():
			emit()
			return
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
		j.mu.Lock()
		addr, bid := j.backend, j.backendID
		j.mu.Unlock()
		if bid != "" && bid != proxied {
			proxied = bid
			g.proxyStream(w, r, fl, addr, bid)
			continue
		}
		emit()
	}
}

// proxyStream copies one backend job's NDJSON stream through to the client
// until it ends (terminal view or connection loss — either way the caller's
// loop resumes with gateway snapshots).
func (g *Gateway) proxyStream(w http.ResponseWriter, r *http.Request, fl http.Flusher, addr, bid string) {
	var b *backend
	for _, cand := range g.pool.backends {
		if cand.addr == addr {
			b = cand
			break
		}
	}
	if b == nil {
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), "GET", b.base+"/v1/jobs/"+bid+"/stream", nil)
	if err != nil {
		return
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if _, err := w.Write(append(sc.Bytes(), '\n')); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
