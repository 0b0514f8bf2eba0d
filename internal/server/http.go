package server

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	castencil "castencil"
)

// Handler returns the daemon's HTTP API over the manager:
//
//	POST /v1/jobs              submit a Spec (JSON body) -> 202 + job view
//	GET  /v1/jobs              list all jobs
//	GET  /v1/jobs/{id}         one job's live view
//	GET  /v1/jobs/{id}/stream  NDJSON progress stream until terminal
//	POST /v1/jobs/{id}/cancel  request cancellation
//	GET  /v1/jobs/{id}/result  terminal result (add ?grid=1 for the field data)
//	GET  /metrics              Prometheus text exposition
//	GET  /healthz              200 ok / 503 draining
//
// Backpressure is explicit: a full admission queue answers 429 with
// Retry-After, a draining daemon 503. Malformed or invalid specs answer
// 400, bodies over MaxSpecBytes 413, before anything queues.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if !DecodeSpec(w, r, &spec) {
			return
		}
		j, err := m.Submit(spec)
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
		jobs := m.Jobs()
		views := make([]View, len(jobs))
		for i, j := range jobs {
			views[i] = j.Snapshot()
		}
		writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, ErrNotFound)
			return
		}
		writeJSON(w, http.StatusOK, j.Snapshot())
	})
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if err := m.Cancel(r.PathValue("id")); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		j, _ := m.Get(r.PathValue("id"))
		writeJSON(w, http.StatusAccepted, j.Snapshot())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, ErrNotFound)
			return
		}
		if !j.State().Terminal() {
			writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s, not terminal", j.ID, j.State()))
			return
		}
		writeJSON(w, http.StatusOK, buildResult(j, r.URL.Query().Get("grid") != ""))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, ErrNotFound)
			return
		}
		streamJob(w, r, j)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// The first line stays the plain status word ("ok" / "draining" /
		// "degraded") for back-compat with scripts that `head -n 1` it; the
		// last line is the machine-readable Health JSON the fleet gateway
		// parses for load-aware routing. A degraded mesh cannot accept
		// distributed jobs, so it is surfaced the same way draining is —
		// load balancers and the smoke tests see the gap before a run
		// hangs on it.
		h := m.Health()
		status := http.StatusOK
		if h.Status != "ok" {
			status = http.StatusServiceUnavailable
		}
		w.WriteHeader(status)
		fmt.Fprintln(w, h.Status)
		if t := m.Transport(); t != nil {
			fmt.Fprintf(w, "transport: rank %d, %d/%d ranks connected\n", h.Rank, h.RanksConnected, h.Ranks)
		}
		_ = json.NewEncoder(w).Encode(h)
	})
	return mux
}

// Result is the terminal report served by /v1/jobs/{id}/result. For real
// jobs GridSHA256 fingerprints the final field (sha256 over the row-major
// float64 little-endian bytes), so clients can check bitwise determinism
// without shipping the data; ?grid=1 adds the same bytes base64-encoded.
type Result struct {
	View View `json:"job"`

	// Real-engine outcome.
	GridN      int    `json:"grid_n,omitempty"`
	GridSHA256 string `json:"grid_sha256,omitempty"`
	GridData   string `json:"grid_data,omitempty"` // base64 float64-LE, on request
	Tasks      int    `json:"tasks,omitempty"`
	Messages   int    `json:"messages,omitempty"`
	BytesSent  int    `json:"bytes_sent,omitempty"`
	Steals     int    `json:"steals,omitempty"`
	ElapsedMS  int64  `json:"elapsed_ms,omitempty"`

	// Sim-engine outcome.
	MakespanMS float64 `json:"makespan_ms,omitempty"`
	GFLOPS     float64 `json:"gflops,omitempty"`
}

func buildResult(j *Job, withGrid bool) Result {
	out := Result{View: j.Snapshot()}
	if res := j.RealResult(); res != nil {
		// A distributed follower's result has no grid (rank 0 holds the
		// gathered field); its counters are still its rank's local view.
		if res.Grid != nil {
			out.GridN = res.Grid.Rows
			out.GridSHA256 = castencil.GridSHA256(res.Grid)
			if withGrid {
				out.GridData = base64.StdEncoding.EncodeToString(castencil.GridBytes(res.Grid))
			}
		}
		ex := res.Exec
		out.Tasks = ex.Completed
		out.Messages = ex.Messages
		out.BytesSent = ex.BytesSent
		out.ElapsedMS = ex.Elapsed.Milliseconds()
		for _, s := range ex.NodeSteals {
			out.Steals += s
		}
	}
	if res := j.SimResult(); res != nil {
		out.MakespanMS = float64(res.Makespan) / float64(time.Millisecond)
		out.GFLOPS = res.GFLOPS
		out.Tasks = res.Sim.Tasks
		out.Messages = res.Messages
		out.BytesSent = res.BytesSent
	}
	return out
}

// streamJob writes newline-delimited JSON snapshots until the job is
// terminal or the client goes away, flushing each line. The final line is
// always the terminal view.
func streamJob(w http.ResponseWriter, r *http.Request, j *Job) {
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
			emit()
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// MaxSpecBytes bounds a POST /v1/jobs body. A Spec is a few hundred bytes;
// a body past the bound answers 413 and is not read further.
const MaxSpecBytes = 1 << 20

// DecodeSpec reads the Spec of a POST /v1/jobs request, rejecting unknown
// fields. On failure it has answered the request — 413 for a body over
// MaxSpecBytes, 400 for anything else malformed — and returns false.
func DecodeSpec(w http.ResponseWriter, r *http.Request, spec *Spec) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		code := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
