package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"castencil/internal/metrics"
)

func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := New(cfg)
	srv := httptest.NewServer(Handler(m))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	})
	return m, srv
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, b.Bytes()
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// TestHTTPSubmitStatusResult drives the full request lifecycle over the
// wire: submit, poll, fetch the result with its determinism checksum, and
// confirm the grid bytes round-trip matches the checksum.
func TestHTTPSubmitStatusResult(t *testing.T) {
	_, srv := newTestServer(t, Config{MaxJobs: 2, QueueSize: 8})

	resp, body := postJSON(t, srv.URL+"/v1/jobs",
		`{"n":64,"tile":16,"steps":6,"step_size":3,"seed":7,"workers":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || (v.State != StateQueued && v.State != StateRunning) {
		t.Fatalf("submit view: %+v", v)
	}

	// Poll until terminal.
	deadline := time.Now().Add(30 * time.Second)
	for !v.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", v)
		}
		time.Sleep(10 * time.Millisecond)
		getJSON(t, srv.URL+"/v1/jobs/"+v.ID, &v)
	}
	if v.State != StateDone {
		t.Fatalf("job state %s, error %q", v.State, v.Error)
	}
	if v.TasksDone != v.TasksTotal || v.Progress != 1 {
		t.Errorf("done job progress %d/%d (%v)", v.TasksDone, v.TasksTotal, v.Progress)
	}

	var res Result
	if code := getJSON(t, srv.URL+"/v1/jobs/"+v.ID+"/result?grid=1", &res).StatusCode; code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}
	if res.GridSHA256 == "" || res.GridN != 64 || res.Tasks == 0 {
		t.Errorf("result incomplete: %+v", res)
	}
	raw, err := base64.StdEncoding.DecodeString(res.GridData)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 64*64*8 {
		t.Errorf("grid payload %d bytes, want %d", len(raw), 64*64*8)
	}
	// Same spec, same seed, second job: the service's determinism contract
	// over the wire.
	_, body2 := postJSON(t, srv.URL+"/v1/jobs",
		`{"n":64,"tile":16,"steps":6,"step_size":3,"seed":7,"workers":1}`)
	var v2 View
	if err := json.Unmarshal(body2, &v2); err != nil {
		t.Fatal(err)
	}
	for !v2.State.Terminal() {
		time.Sleep(10 * time.Millisecond)
		getJSON(t, srv.URL+"/v1/jobs/"+v2.ID, &v2)
	}
	var res2 Result
	getJSON(t, srv.URL+"/v1/jobs/"+v2.ID+"/result", &res2)
	if res2.GridSHA256 != res.GridSHA256 {
		t.Errorf("same seed, different checksum: %s vs %s", res2.GridSHA256, res.GridSHA256)
	}

	// Listing includes both jobs.
	var list struct {
		Jobs []View `json:"jobs"`
	}
	getJSON(t, srv.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 2 {
		t.Errorf("list has %d jobs, want 2", len(list.Jobs))
	}
}

// TestHTTPErrors covers the failure surface: malformed body, invalid spec,
// unknown job, premature result, queue-full 429.
func TestHTTPErrors(t *testing.T) {
	m, srv := newTestServer(t, Config{MaxJobs: 1, QueueSize: 1})

	for _, bad := range []struct{ name, body string }{
		{"malformed body", `{not json`},
		{"invalid spec", `{"n":64,"tile":16,"steps":6,"nodes":3}`},
		{"unknown field", `{"n":64,"tile":16,"steps":6,"bogus_knob":1}`},
		{"removed sched field", `{"n":64,"tile":16,"steps":6,"step_size":3,"sched":"priority"}`},
		{"removed transform field", `{"n":64,"tile":16,"steps":6,"step_size":3,"transform":"split"}`},
		{"removed steal field", `{"n":64,"tile":16,"nodes":4,"steps":6,"step_size":3,"ranks":2,"steal":"greedy"}`},
	} {
		if resp, body := postJSON(t, srv.URL+"/v1/jobs", bad.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", bad.name, resp.StatusCode, body)
		}
	}
	if resp := getJSON(t, srv.URL+"/v1/jobs/job-999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/jobs/job-999999/cancel", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown: %d, want 404", resp.StatusCode)
	}

	// Occupy the executor, fill the queue, then overflow it. The blocker
	// must outlast several HTTP round-trips, so give it plenty of steps.
	blocker, err := m.Submit(Spec{N: 256, Tile: 32, Steps: 4000, StepSize: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning, 10*time.Second)
	if resp, body := postJSON(t, srv.URL+"/v1/jobs", `{"n":64,"tile":16,"steps":6,"step_size":3}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue fill: %d %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, srv.URL+"/v1/jobs", `{"n":64,"tile":16,"steps":6,"step_size":3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// A running job has no result yet.
	if resp := getJSON(t, srv.URL+"/v1/jobs/"+blocker.ID+"/result", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("premature result: %d, want 409", resp.StatusCode)
	}
	// Cancel over the wire.
	if resp, _ := postJSON(t, srv.URL+"/v1/jobs/"+blocker.ID+"/cancel", ""); resp.StatusCode != http.StatusAccepted {
		t.Errorf("cancel: %d, want 202", resp.StatusCode)
	}
	waitState(t, blocker, StateCancelled, 30*time.Second)
}

// TestHTTPBodyTooLarge checks a submit body past MaxSpecBytes answers 413
// without being read in full, and the handler keeps serving: the next
// valid submit is accepted.
func TestHTTPBodyTooLarge(t *testing.T) {
	_, srv := newTestServer(t, Config{MaxJobs: 1, QueueSize: 4})
	huge := `{"variant":"` + strings.Repeat("x", 2<<20) + `"}`
	if resp, body := postJSON(t, srv.URL+"/v1/jobs", huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB body: %d %s, want 413", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, srv.URL+"/v1/jobs", `{"n":64,"tile":16,"steps":6,"step_size":3}`); resp.StatusCode != http.StatusAccepted {
		t.Errorf("submit after the oversized body: %d %s, want 202", resp.StatusCode, body)
	}
}

// TestHTTPSpecBodyDeadline sends a submit whose headers promise a 100-byte
// body and then only one byte: the handler must give up at the body-read
// deadline and answer 400 or close the connection, not wait for the rest.
func TestHTTPSpecBodyDeadline(t *testing.T) {
	defer func(d time.Duration) { specReadTimeout = d }(specReadTimeout)
	specReadTimeout = 200 * time.Millisecond
	_, srv := newTestServer(t, Config{MaxJobs: 1, QueueSize: 4})
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprint(conn, "POST /v1/jobs HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(specReadTimeout + 5*time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("no answer %v after a trickled body: the handler is still reading", time.Since(start))
	}
	if err == nil && resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trickled body: status %d, want 400", resp.StatusCode)
	}
}

// TestHTTPMetricsAndHealth checks the observability endpoints: Prometheus
// exposition with the service families, healthz flipping to 503 on drain.
func TestHTTPMetricsAndHealth(t *testing.T) {
	m, srv := newTestServer(t, Config{MaxJobs: 1, QueueSize: 4})

	j, err := m.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone, 30*time.Second)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	_, _ = b.ReadFrom(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	out := b.String()
	for _, want := range []string{
		`stencild_jobs_total{state="done"} 1`,
		"stencild_queue_depth 0",
		"stencild_jobs_running 0",
		"stencild_tasks_executed_total",
		"stencild_job_duration_seconds_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}

	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d, want 200", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/jobs", `{"n":64,"tile":16,"steps":6,"step_size":3}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

// TestHTTPHealthPayload checks the machine-readable healthz contract the
// fleet gateway depends on: the first line stays the plain status word
// (back-compat) and the last line parses as a Health JSON object carrying
// the daemon's capacity limits.
func TestHTTPHealthPayload(t *testing.T) {
	_, srv := newTestServer(t, Config{MaxJobs: 3, QueueSize: 5})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	_, _ = b.ReadFrom(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "ok" {
		t.Errorf("first healthz line %q, want ok", lines[0])
	}
	var h Health
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &h); err != nil {
		t.Fatalf("last healthz line is not Health JSON: %v\n%s", err, b.String())
	}
	if h.Status != "ok" || h.MaxJobs != 3 || h.QueueSize != 5 {
		t.Errorf("health payload %+v, want status ok, max_jobs 3, queue_size 5", h)
	}
	if h.QueueDepth != 0 || h.Running != 0 {
		t.Errorf("idle daemon reports load %+v", h)
	}
}

// TestHTTPStream reads the NDJSON progress stream: at least an initial and
// a terminal snapshot, the last one terminal with full progress.
func TestHTTPStream(t *testing.T) {
	m, srv := newTestServer(t, Config{MaxJobs: 1, QueueSize: 4})
	j, err := m.Submit(Spec{N: 128, Tile: 32, Steps: 60, StepSize: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream", srv.URL, j.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	var views []View
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var v View
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		views = append(views, v)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(views) < 2 {
		t.Fatalf("stream delivered %d snapshots, want >= 2", len(views))
	}
	last := views[len(views)-1]
	if !last.State.Terminal() {
		t.Errorf("final snapshot not terminal: %+v", last)
	}
	if last.State == StateDone && last.Progress != 1 {
		t.Errorf("final progress %v, want 1", last.Progress)
	}
}

// TestJobTableRetention: the table keeps retainJobs terminal jobs, evicting
// the oldest-finished first, and an evicted id answers 404. A running job
// is never evicted, however many finish around it.
func TestJobTableRetention(t *testing.T) {
	m, srv := newTestServer(t, Config{MaxJobs: 2, QueueSize: 8})
	blocker, err := m.Submit(Spec{N: 256, Tile: 32, Steps: 4000, StepSize: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning, 10*time.Second)
	var first *Job
	for i := 0; i < retainJobs+20; i++ {
		j, err := m.Submit(Spec{Variant: "base", N: 16, Tile: 8, Steps: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if first == nil {
			first = j
		}
	}
	if n := len(m.Jobs()); n != retainJobs+1 {
		t.Errorf("table holds %d jobs, want %d terminal + 1 running", n, retainJobs)
	}
	if _, ok := m.Get(blocker.ID); !ok {
		t.Error("running job was evicted")
	}
	if resp := getJSON(t, srv.URL+"/v1/jobs/"+first.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job: %d, want 404", resp.StatusCode)
	}
	if err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
}

// FuzzSubmit posts arbitrary bodies to POST /v1/jobs over a core whose
// executor is a stub, so a valid spec never runs: the handler must not
// panic, and every body answers 202, 400, 413 or 429.
func FuzzSubmit(f *testing.F) {
	for _, v := range []string{"base", "ca", "wf"} {
		f.Add([]byte(`{"engine":"real","variant":"` + v + `","n":64,"tile":16,"steps":6,"seed":7,"workers":1}`))
	}
	for _, spec := range hostileSpecs {
		body, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"n":64,"tile":16,"ste`))
	f.Add([]byte(`{"n":64,"tile":16,"steps":6,"bogus":1}`))
	f.Add([]byte(`{"n":64,"tile":16,"nodes":4,"steps":6,"ranks":2,"steal":"greedy"}`))
	f.Add([]byte(`{"variant":"` + strings.Repeat("x", MaxSpecBytes) + `"}`))

	c := NewCore(CoreConfig{
		IDPrefix:     "fuzz",
		MetricPrefix: "fuzz",
		Slots:        1,
		QueueBound:   8,
		Registry:     metrics.NewRegistry(),
		Exec:         func(context.Context, *Job) (*Result, error) { return nil, nil },
	})
	f.Cleanup(func() { _ = c.Shutdown(context.Background()) })
	h := Routes(c, func(spec Spec) (*Job, error) {
		j, err := NewJob(spec)
		if err != nil {
			return nil, err
		}
		return j, c.Admit(j, false)
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("POST /v1/jobs %.80q: status %d", body, rec.Code)
		}
	})
}
