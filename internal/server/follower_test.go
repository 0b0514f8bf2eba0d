package server

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	castencil "castencil"
)

// connectMesh brings up a 2-rank loopback mesh: listeners are bound first
// so both addresses are known before either rank dials.
func connectMesh(t *testing.T) [2]*castencil.NetTransport {
	t.Helper()
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	var ts [2]*castencil.NetTransport
	var errs [2]error
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ts[r], errs[r] = castencil.NetConnect(r, addrs, castencil.NetOptions{Listener: lns[r]})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	t.Cleanup(func() {
		ts[0].Close()
		ts[1].Close()
	})
	return ts
}

// TestDistributedJobMatchesSingleProcess is the service-level parity check:
// a ranks=2 job submitted to rank 0's manager — spec broadcast over the
// mesh, follower executing it through RunFollower — produces a grid
// bitwise identical to the same spec run single-process, and the follower
// registers the broadcast in its own job table.
func TestDistributedJobMatchesSingleProcess(t *testing.T) {
	ts := connectMesh(t)
	lead := New(Config{MaxJobs: 1, WorkerBudget: 2, Transport: ts[0]})
	fol := New(Config{MaxJobs: 1, WorkerBudget: 2, Transport: ts[1]})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	folDone := make(chan struct{})
	go func() {
		defer close(folDone)
		_ = fol.RunFollower(ctx, ts[1])
	}()

	spec := quickSpec(7)
	spec.Nodes = 4
	spec.Coalesce = "step"
	spec.Ranks = 2
	j, err := lead.Submit(spec)
	if err != nil {
		t.Fatalf("submit distributed: %v", err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("distributed job did not finish")
	}
	if j.State() != StateDone {
		t.Fatalf("distributed job %s: %v", j.State(), j.Err())
	}
	res := j.RealResult()
	if res == nil || res.Grid == nil {
		t.Fatal("rank 0's distributed result must carry the gathered grid")
	}

	single := quickSpec(7)
	single.Nodes = 4
	single.Coalesce = "step"
	j2, err := lead.Submit(single)
	if err != nil {
		t.Fatalf("submit single: %v", err)
	}
	<-j2.Done()
	if j2.State() != StateDone {
		t.Fatalf("single job %s: %v", j2.State(), j2.Err())
	}
	if gridHash(res) != gridHash(j2.RealResult()) {
		t.Error("distributed grid differs from single-process grid")
	}
	// Rank 0 folds every rank's counters at the drain gather, so the
	// distributed job's wire accounting equals the single-process run's.
	if a, b := res.Exec.Messages, j2.RealResult().Exec.Messages; a != b {
		t.Errorf("messages: distributed %d != single %d", a, b)
	}
	if a, b := res.Exec.BundlesSent, j2.RealResult().Exec.BundlesSent; a != b {
		t.Errorf("bundles: distributed %d != single %d", a, b)
	}

	// The follower saw the broadcast: one job in its table, done, local
	// counters but no grid.
	var fj *Job
	for _, cand := range fol.Jobs() {
		fj = cand
	}
	if fj == nil {
		t.Fatal("follower registered no job for the broadcast")
	}
	select {
	case <-fj.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("follower job did not finish")
	}
	if fj.State() != StateDone {
		t.Fatalf("follower job %s: %v", fj.State(), fj.Err())
	}
	fres := fj.RealResult()
	if fres == nil {
		t.Fatal("follower job has no result")
	}
	if fres.Grid != nil {
		t.Error("follower result must not carry a grid")
	}
	if fres.Exec.Messages <= 0 || fres.Exec.Messages >= res.Exec.Messages {
		t.Errorf("follower local messages %d should be a proper slice of the global %d", fres.Exec.Messages, res.Exec.Messages)
	}
	if r := buildResult(fj, true); r.GridSHA256 != "" || r.GridData != "" {
		t.Error("follower /result must omit the grid fingerprint")
	}
	rec := httptest.NewRecorder()
	serveGrid(rec, nil, fj)
	if rec.Code != http.StatusNotFound {
		t.Errorf("follower /grid answered %d, want 404", rec.Code)
	}

	if err := lead.Shutdown(context.Background()); err != nil {
		t.Errorf("lead shutdown: %v", err)
	}
	cancel()
	select {
	case <-folDone:
	case <-time.After(5 * time.Second):
		t.Fatal("follower loop did not stop on cancel")
	}
}

// TestDistributedAdmission covers the mesh-aware admission rules: ranks
// jobs need a transport, must match the mesh size, and go to rank 0 only.
func TestDistributedAdmission(t *testing.T) {
	plain := New(Config{MaxJobs: 1})
	spec := quickSpec(1)
	spec.Nodes = 4
	spec.Ranks = 2
	if _, err := plain.Submit(spec); err == nil || !strings.Contains(err.Error(), "-ranks") {
		t.Errorf("transportless distributed submit: got %v", err)
	}
	bad := spec
	bad.Ranks = 1
	if _, err := plain.Submit(bad); err == nil {
		t.Error("ranks=1 must be rejected")
	}
	bad.Ranks = 2
	bad.Engine = "sim"
	if _, err := plain.Submit(bad); err == nil || !strings.Contains(err.Error(), "real engine") {
		t.Errorf("sim distributed submit: got %v", err)
	}
	_ = plain.Shutdown(context.Background())

	ts := connectMesh(t)
	lead := New(Config{MaxJobs: 1, Transport: ts[0]})
	fol := New(Config{MaxJobs: 1, Transport: ts[1]})
	mismatch := spec
	mismatch.Ranks = 3
	if _, err := lead.Submit(mismatch); err == nil || !strings.Contains(err.Error(), "mesh") {
		t.Errorf("mesh-size mismatch: got %v", err)
	}
	if _, err := fol.Submit(spec); err == nil || !strings.Contains(err.Error(), "rank 0") {
		t.Errorf("follower submit: got %v", err)
	}
	if err := fol.RunFollower(context.Background(), ts[0]); err == nil {
		t.Error("RunFollower on rank 0's transport must refuse")
	}
	_ = lead.Shutdown(context.Background())
	_ = fol.Shutdown(context.Background())
}

// TestHealthzTransport checks the daemon's liveness surface of the mesh:
// all ranks connected reports 200 with the transport line; a vanished peer
// flips it to 503 degraded.
func TestHealthzTransport(t *testing.T) {
	ts := connectMesh(t)
	lead := New(Config{MaxJobs: 1, Transport: ts[0]})
	h := Handler(lead)

	get := func() (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code, rec.Body.String()
	}
	code, body := get()
	if code != 200 || !strings.Contains(body, "transport: rank 0, 2/2 ranks connected") {
		t.Errorf("healthy mesh: got %d %q", code, body)
	}

	ts[1].Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body = get()
		if code == 503 && strings.Contains(body, "1/2 ranks connected") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mesh loss not reflected: got %d %q", code, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(body, "degraded") {
		t.Errorf("degraded mesh body: %q", body)
	}
	_ = lead.Shutdown(context.Background())
}
