package gateway

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	castencil "castencil"
	"castencil/internal/metrics"
	"castencil/internal/server"
)

// directGrid is castencil.GridBytes of spec run straight on the facade.
func directGrid(t *testing.T, spec server.Spec) []byte {
	t.Helper()
	r, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	res, err := castencil.Run(r.Variant, r.Config, r.Options...)
	if err != nil {
		t.Fatal(err)
	}
	return castencil.GridBytes(res.Grid)
}

// get fetches url and returns the response (body closed) and its body.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// getGrid fetches a /grid body that must be served raw with status 200.
func getGrid(t *testing.T, url string) []byte {
	t.Helper()
	resp, body := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("GET %s: Content-Type %q, want application/octet-stream", url, ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("GET %s: Content-Length %q for a %d-byte body", url, cl, len(body))
	}
	return body
}

// wantStatus fails unless GET url answers code.
func wantStatus(t *testing.T, url string, code int) {
	t.Helper()
	if resp, body := get(t, url); resp.StatusCode != code {
		t.Fatalf("GET %s: %d %s, want %d", url, resp.StatusCode, body, code)
	}
}

// waitTerminal waits for j to finish and returns its state.
func waitTerminal(t *testing.T, j *Job) server.State {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish (state %s)", j.ID, j.State())
	}
	return j.State()
}

// TestGatewayGridRoute drives /v1/jobs/{id}/grid over a fleet: on a miss
// and on a hit the gateway serves the bytes the backend produced, equal to
// a direct castencil.Run; ?grid=1 through the gateway is the backend's
// answer; jobs that are not terminal answer 409 and jobs without a grid
// 404, at the gateway and at the backend alike.
func TestGatewayGridRoute(t *testing.T) {
	b := startBackend(t, 1, 16)
	g := startGateway(t, Config{MaxInflight: 1}, b)
	front := httptest.NewServer(Handler(g))
	t.Cleanup(front.Close)
	gw := func(j *Job, route string) string { return front.URL + "/v1/jobs/" + j.ID + route }
	be := func(j *Job, route string) string { return b.srv.URL + "/v1/jobs/" + j.Snapshot().BackendJob + route }

	spec := quickSpec(71)
	want := directGrid(t, spec)
	miss := mustSubmit(t, g, spec)
	waitDone(t, miss)
	if !bytes.Equal(getGrid(t, gw(miss, "/grid")), want) {
		t.Fatal("gateway /grid on a miss differs from a direct run")
	}
	if !bytes.Equal(getGrid(t, be(miss, "/grid")), want) {
		t.Fatal("backend /grid differs from a direct run")
	}
	hit := mustSubmit(t, g, spec)
	waitDone(t, hit)
	if hit.Snapshot().Cache != "hit" {
		t.Fatalf("repeat cache status %q, want hit", hit.Snapshot().Cache)
	}
	if !bytes.Equal(getGrid(t, gw(hit, "/grid")), want) {
		t.Fatal("gateway /grid on a hit differs from a direct run")
	}

	// ?grid=1: every field but the job's own view is the backend's, byte
	// for byte.
	var atGateway, atBackend map[string]json.RawMessage
	for url, out := range map[string]*map[string]json.RawMessage{
		gw(miss, "/result?grid=1"): &atGateway,
		be(miss, "/result?grid=1"): &atBackend,
	} {
		resp, body := get(t, url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", url, resp.StatusCode)
		}
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatal(err)
		}
	}
	delete(atGateway, "job")
	delete(atBackend, "job")
	if len(atGateway) != len(atBackend) || atGateway["grid_data"] == nil {
		t.Fatalf("?grid=1 fields differ: gateway %d, backend %d", len(atGateway), len(atBackend))
	}
	for k, v := range atBackend {
		if !bytes.Equal(atGateway[k], v) {
			t.Errorf("?grid=1 field %q: gateway %.60s, backend %.60s", k, atGateway[k], v)
		}
	}

	// Not terminal: one job running on the backend, one queued behind it
	// at the gateway.
	running := mustSubmit(t, g, slowSpec(72))
	queued := mustSubmit(t, g, slowSpec(73))
	deadline := time.Now().Add(10 * time.Second)
	for running.Snapshot().BackendJob == "" {
		if time.Now().After(deadline) {
			t.Fatal("slow job never reached the backend")
		}
		time.Sleep(2 * time.Millisecond)
	}
	wantStatus(t, gw(running, "/grid"), http.StatusConflict)
	wantStatus(t, be(running, "/grid"), http.StatusConflict)
	wantStatus(t, gw(queued, "/grid"), http.StatusConflict)
	for _, j := range []*Job{queued, running} {
		if err := g.Cancel(j.ID); err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
	}

	// No grid: a sim job, and a job failed by its deadline.
	simSpec := quickSpec(74)
	simSpec.Engine = "sim"
	sim := mustSubmit(t, g, simSpec)
	waitDone(t, sim)
	wantStatus(t, gw(sim, "/grid"), http.StatusNotFound)
	wantStatus(t, be(sim, "/grid"), http.StatusNotFound)
	late := slowSpec(75)
	late.TimeoutMS = 20
	failed := mustSubmit(t, g, late)
	if s := waitTerminal(t, failed); s != server.StateFailed {
		t.Fatalf("deadline job %s, want failed", s)
	}
	wantStatus(t, gw(failed, "/grid"), http.StatusNotFound)
	wantStatus(t, be(failed, "/grid"), http.StatusNotFound)
}

// TestGatewayHostileGridFailsOver: a backend whose /grid body is truncated,
// one byte long, does not match its grid_sha256, or claims a length past
// N²·8 costs one retryable failure. The job fails over to a good backend,
// its grid is bitwise correct, the cache never holds the bad bytes, and the
// oversized claim is refused without being allocated.
func TestGatewayHostileGridFailsOver(t *testing.T) {
	const claim = 64 << 20 // past N²·8 by far more than a job allocates
	for name, grid := range map[string]func(w http.ResponseWriter, want []byte){
		"truncated": func(w http.ResponseWriter, want []byte) {
			w.Header().Set("Content-Length", strconv.Itoa(len(want)))
			_, _ = w.Write(want[:len(want)/2])
		},
		"one byte": func(w http.ResponseWriter, want []byte) {
			w.Header().Set("Content-Length", "1")
			_, _ = w.Write(want[:1])
		},
		"sha mismatch": func(w http.ResponseWriter, want []byte) {
			bad := bytes.Clone(want)
			bad[len(bad)/2] ^= 1
			w.Header().Set("Content-Length", strconv.Itoa(len(bad)))
			_, _ = w.Write(bad)
		},
		"oversized length": func(w http.ResponseWriter, want []byte) {
			w.Header().Set("Content-Length", strconv.Itoa(len(want)+claim))
			_, _ = w.Write(want[:64])
		},
	} {
		t.Run(name, func(t *testing.T) {
			good := startBackend(t, 1, 16)
			// The spec depends on the hostile address, so the true grid is
			// known only once the server runs; ready publishes it.
			var want []byte
			var sha string
			ready := make(chan struct{})
			hostile, hits := hostileBackend(t, map[string]http.HandlerFunc{
				"/stream": func(w http.ResponseWriter, r *http.Request) {
					_ = json.NewEncoder(w).Encode(server.View{ID: "job-000001", State: server.StateDone})
				},
				"/result": func(w http.ResponseWriter, r *http.Request) {
					<-ready
					_ = json.NewEncoder(w).Encode(server.Result{GridN: 64, GridSHA256: sha})
				},
				"/grid": func(w http.ResponseWriter, r *http.Request) {
					<-ready
					grid(w, want)
				},
			})
			hostileAddr, _ := normalizeAddr(hostile.URL)
			goodAddr, _ := normalizeAddr(good.srv.URL)
			spec := ownedBy(hostileAddr, goodAddr)
			want = directGrid(t, spec)
			sum := sha256.Sum256(want)
			sha = hex.EncodeToString(sum[:])
			close(ready)
			g := startGateway(t, Config{Backends: []string{hostile.URL}}, good)

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got := waitDone(t, mustSubmit(t, g, spec))
			runtime.ReadMemStats(&after)
			if !bytes.Equal(got.Grid, want) || got.GridSHA256 != sha {
				t.Fatal("failed-over grid is not the direct run's")
			}
			if n := hits["/grid"].Load(); n != 1 {
				t.Fatalf("hostile /grid read %d times, want 1", n)
			}
			if fo, _ := g.Metrics().CounterValue("stencilgate_failovers_total", nil); fo != 1 {
				t.Fatalf("stencilgate_failovers_total = %d, want 1", fo)
			}
			if n, _ := g.Metrics().CounterValue("stencilgate_backend_errors_total", metrics.Labels{"backend": hostileAddr}); n != 1 {
				t.Fatalf("hostile backend errors = %d, want 1", n)
			}
			g.mu.Lock()
			entries := g.cache.len()
			cached, _, _ := g.cache.get(spec.Fingerprint())
			g.mu.Unlock()
			if entries != 1 || cached == nil || !bytes.Equal(cached.Grid, want) {
				t.Fatalf("cache holds %d entries; want 1 holding the good grid", entries)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= claim {
				t.Fatalf("the job allocated %d bytes; a %d-byte claim must be refused before allocation", grew, claim)
			}
		})
	}
}
