package castencil_test

import (
	"net"
	"sync"
	"testing"

	castencil "castencil"
)

// connectFacadeMesh brings up a 2-rank loopback mesh through the public
// NetConnect surface, listeners pre-bound so there are no port races.
func connectFacadeMesh(t *testing.T) [2]*castencil.NetTransport {
	t.Helper()
	var lns [2]net.Listener
	addrs := make([]string, 2)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
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
		for _, tr := range ts {
			if tr != nil {
				tr.Close()
			}
		}
	})
	return ts
}

// TestWithClusterRun drives the facade's cluster option end to end: a
// two-rank run over WithCluster — on the skewed shape where the two ranks
// own 15 and 10 tiles — must stay bitwise identical to the single-process
// run with the same halo message count, with the transport alone and with
// a recovery policy riding along.
func TestWithClusterRun(t *testing.T) {
	cfg := castencil.Config{N: 80, TileRows: 16, P: 2, Steps: 6, Wavefront: 2}
	single, err := castencil.Run(castencil.WF, cfg, castencil.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ts := connectFacadeMesh(t)
	for name, rec := range map[string]*castencil.FaultRecovery{
		"transport": nil,
		"recovery":  castencil.DefaultFaultRecovery(),
	} {
		var res [2]*castencil.RealResult
		var errs [2]error
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				res[r], errs[r] = castencil.Run(castencil.WF, cfg, castencil.WithWorkers(1),
					castencil.WithCluster(castencil.ClusterOptions{Transport: ts[r], Recovery: rec}))
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("%s: rank %d: %v", name, r, err)
			}
		}
		if !sameGrids(t, single.Grid, res[0].Grid) {
			t.Errorf("%s: cluster grid diverged from single-process run", name)
		}
		if res[0].Exec.Messages != single.Exec.Messages {
			t.Errorf("%s: halo messages %d != single-process run %d", name, res[0].Exec.Messages, single.Exec.Messages)
		}
	}
}
