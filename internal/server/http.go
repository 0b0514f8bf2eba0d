package server

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	castencil "castencil"
)

// MaxSpecBytes bounds a POST /v1/jobs body. A Spec is a few hundred bytes;
// a body past the bound answers 413 and is not read further.
const MaxSpecBytes = 1 << 20

// specReadTimeout bounds reading a POST /v1/jobs body, so a body that
// trickles in cannot hold a handler. It equals the daemons' header timeout;
// tests shorten it.
var specReadTimeout = 10 * time.Second

// Handler returns the daemon's HTTP API over the manager: the job routes
// of Routes plus
//
//	GET  /healthz              200 ok / 503 draining or degraded
func Handler(m *Manager) http.Handler {
	mux := Routes(m.Core, m.Submit)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// A degraded mesh cannot run distributed jobs: it answers 503 like
		// draining does, so the gap shows before a run hangs on it.
		h := m.Health()
		var detail []string
		if m.cfg.Transport != nil {
			detail = append(detail, fmt.Sprintf("transport: rank %d, %d/%d ranks connected", h.Rank, h.RanksConnected, h.Ranks))
		}
		WriteHealth(w, h.Status, h, detail...)
	})
	return mux
}

// Routes returns the job API both services serve over a core, so clients
// point at a fleet gateway the way they point at one daemon:
//
//	POST /v1/jobs              submit a Spec (JSON body) -> 202 + job view
//	GET  /v1/jobs              list the job table
//	GET  /v1/jobs/{id}         one job's live view
//	GET  /v1/jobs/{id}/stream  NDJSON progress stream until terminal
//	POST /v1/jobs/{id}/cancel  request cancellation
//	GET  /v1/jobs/{id}/result  terminal result (add ?grid=1 for the field data)
//	GET  /v1/jobs/{id}/grid    the final field as raw float64-LE bytes
//	GET  /metrics              Prometheus text exposition
//
// /grid is the field in its native form (application/octet-stream, the
// bytes of castencil.GridBytes with an exact Content-Length): the fleet
// gateway fetches it on every miss and caches it as is. A non-terminal job
// answers 409, a job without a grid (sim, failed, cancelled, a distributed
// follower) 404.
//
// Backpressure is explicit: a full admission queue answers 429 with
// Retry-After, a draining service 503. Malformed or invalid specs answer
// 400, bodies over MaxSpecBytes 413, before anything queues; a body not
// read in full within the header timeout answers 400 too. The caller adds
// GET /healthz.
func Routes(c *Core, submit func(Spec) (*Job, error)) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		var j *Job
		_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(specReadTimeout))
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
		dec.DisallowUnknownFields()
		err := dec.Decode(&spec)
		if err == nil {
			j, err = submit(spec)
		} else {
			err = fmt.Errorf("bad request body: %w", err)
		}
		tooBig := (*http.MaxBytesError)(nil)
		switch {
		case err == nil:
			writeJSON(w, http.StatusAccepted, j.Snapshot())
		case errors.As(err, &tooBig):
			writeErr(w, http.StatusRequestEntityTooLarge, err)
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			writeErr(w, http.StatusServiceUnavailable, err)
		default:
			writeErr(w, http.StatusBadRequest, err)
		}
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := c.Jobs()
		views := make([]View, len(jobs))
		for i, j := range jobs {
			views[i] = j.Snapshot()
		}
		writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
	})
	// job serves one job's endpoint, answering 404 for an unknown id.
	job := func(serve func(http.ResponseWriter, *http.Request, *Job)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			j, ok := c.Get(r.PathValue("id"))
			if !ok {
				writeErr(w, http.StatusNotFound, ErrNotFound)
				return
			}
			serve(w, r, j)
		}
	}
	mux.HandleFunc("GET /v1/jobs/{id}", job(func(w http.ResponseWriter, r *http.Request, j *Job) {
		writeJSON(w, http.StatusOK, j.Snapshot())
	}))
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", job(func(w http.ResponseWriter, r *http.Request, j *Job) {
		_ = c.Cancel(j.ID) // the job was just found; an eviction since still answers its snapshot
		writeJSON(w, http.StatusAccepted, j.Snapshot())
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/result", job(func(w http.ResponseWriter, r *http.Request, j *Job) {
		if !j.State().Terminal() {
			writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s, not terminal", j.ID, j.State()))
			return
		}
		writeJSON(w, http.StatusOK, buildResult(j, r.URL.Query().Get("grid") != ""))
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/grid", job(serveGrid))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", job(streamJob))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.Metrics().WritePrometheus(w)
	})
	return mux
}

// WriteHealth answers /healthz: the plain status word as the first line
// (for scripts that `head -n 1` it; 200 when "ok", else 503), then any
// detail lines, then payload as the machine-readable JSON last line.
func WriteHealth(w http.ResponseWriter, status string, payload any, detail ...string) {
	code := http.StatusOK
	if status != "ok" {
		code = http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	fmt.Fprintln(w, status)
	for _, d := range detail {
		fmt.Fprintln(w, d)
	}
	_ = json.NewEncoder(w).Encode(payload)
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
	// Grid is a stored result's field in its raw form (what /grid serves);
	// ?grid=1 encodes it on demand. It is shared by every job the result
	// lands on and never written after it is stored.
	Grid      []byte `json:"-"`
	Tasks     int    `json:"tasks,omitempty"`
	Messages  int    `json:"messages,omitempty"`
	BytesSent int    `json:"bytes_sent,omitempty"`
	Steals    int    `json:"steals,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`

	// Sim-engine outcome.
	MakespanMS float64 `json:"makespan_ms,omitempty"`
	GFLOPS     float64 `json:"gflops,omitempty"`
}

// buildResult is a terminal job's report. A stored result (a fleet job's
// backend result) is served under the job's own view, its field bytes
// encoded only when asked for.
func buildResult(j *Job, withGrid bool) Result {
	if res := j.Result(); res != nil {
		out := *res
		out.View = j.Snapshot()
		if withGrid && out.Grid != nil {
			out.GridData = base64.StdEncoding.EncodeToString(out.Grid)
		}
		return out
	}
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

// serveGrid answers /grid: a stored result's raw bytes as they are, a
// daemon job's field written row by row from its RealResult.
func serveGrid(w http.ResponseWriter, r *http.Request, j *Job) {
	if !j.State().Terminal() {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s, not terminal", j.ID, j.State()))
		return
	}
	raw := func(size int) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(size))
	}
	if res := j.RealResult(); res != nil && res.Grid != nil {
		raw(res.Grid.Rows * res.Grid.Cols * 8)
		_ = castencil.WriteGrid(w, res.Grid) // a failed write is the client gone
		return
	}
	if res := j.Result(); res != nil && res.Grid != nil {
		raw(len(res.Grid))
		_, _ = w.Write(res.Grid)
		return
	}
	writeErr(w, http.StatusNotFound, fmt.Errorf("job %s has no grid", j.ID))
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

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
