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

// TestWithClusterStealRun drives the facade's steal plumbing end to end: a
// two-rank run over WithCluster with each steal mode must stay bitwise
// identical to the single-process run — on the skewed shape where the two
// ranks own 15 and 10 tiles — with the same halo message count as a
// transport-only WithCluster run (stealing never adds halo traffic).
func TestWithClusterStealRun(t *testing.T) {
	cfg := castencil.Config{N: 80, TileRows: 16, P: 2, Steps: 6, Wavefront: 2}
	single, err := castencil.Run(castencil.WF, cfg, castencil.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ts := connectFacadeMesh(t)
	runPair := func(opt func(r int) castencil.Option) [2]*castencil.RealResult {
		t.Helper()
		var res [2]*castencil.RealResult
		var errs [2]error
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				res[r], errs[r] = castencil.Run(castencil.WF, cfg, castencil.WithWorkers(1), opt(r))
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		return res
	}

	plain := runPair(func(r int) castencil.Option {
		return castencil.WithCluster(castencil.ClusterOptions{Transport: ts[r]})
	})
	for _, mode := range []castencil.StealMode{castencil.StealOff, castencil.StealGreedy, castencil.StealGated} {
		neu := runPair(func(r int) castencil.Option {
			return castencil.WithCluster(castencil.ClusterOptions{
				Transport: ts[r],
				Steal:     castencil.StealPolicy{Mode: mode},
			})
		})
		if !sameGrids(t, single.Grid, neu[0].Grid) {
			t.Errorf("steal mode %v: cluster grid diverged from single-process run", mode)
		}
		if neu[0].Exec.Messages != plain[0].Exec.Messages {
			t.Errorf("steal mode %v: halo messages %d != transport-only run %d",
				mode, neu[0].Exec.Messages, plain[0].Exec.Messages)
		}
	}
	if !sameGrids(t, single.Grid, plain[0].Grid) {
		t.Error("transport-only WithCluster run diverged from single-process run")
	}
}
