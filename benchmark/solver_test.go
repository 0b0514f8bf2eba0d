package main

import (
	"testing"

	"castencil"
)

// A small configuration of every real-engine workload must reproduce the
// oracle, and a wrong expected sha must be counted as a failure and turn
// the run's result into an error (the command's non-zero exit).
func TestVerifyCountsAWrongSHA(t *testing.T) {
	s := newSolver("ca-small-tiles", 5)
	s.cfg.N, s.cfg.Steps = 64, 8
	h := &gridHasher{}
	out, err := s.solve(h, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sig := out.sig
	bad, err := s.verify([]string{sig, sig})
	if err != nil || len(bad) != 0 {
		t.Fatalf("a correct solve failed the check: %v %v", bad, err)
	}
	bad, err = s.verify([]string{sig, "0000"})
	if err != nil || len(bad) != 1 {
		t.Fatalf("want exactly the corrupted solve reported, got %v %v", bad, err)
	}

	res := &childResult{Attempted: 2}
	res.fail(bad...)
	run := runResult{Workload: s.name, Errors: res.Errors}
	run.Correct, run.Attempted, run.Failed = res.Failed == 0, res.Attempted, res.Failed
	if res.Failed != 1 || run.err() == nil {
		t.Errorf("failed=%d err=%v: a mismatch must fail the run", res.Failed, run.err())
	}
	if ok := (runResult{driverResult: driverResult{Correct: true, Attempted: 2}}); ok.err() != nil {
		t.Errorf("a clean run reported %v", ok.err())
	}
}

func TestSimVerify(t *testing.T) {
	s := newSolver("sim-paper", 1)
	s.cfg.N, s.cfg.TileRows, s.cfg.Steps, s.cfg.StepSize = 576, 72, 10, 5
	out, err := s.solve(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sig := out.sig
	if bad, err := s.verify([]string{sig, sig}); err != nil || len(bad) != 0 {
		t.Fatalf("a repeatable simulation failed the check: %v %v", bad, err)
	}
	if bad, _ := s.verify([]string{sig, "makespan=1 messages=2 bytes=3"}); len(bad) != 1 {
		t.Errorf("a simulation that does not repeat must fail, got %v", bad)
	}
}

func TestGridHasherMatchesFacade(t *testing.T) {
	res, err := castencil.Run(castencil.Base, castencil.Config{N: 48, TileRows: 16, P: 2, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := &gridHasher{}
	for i := 0; i < 2; i++ { // the second call reuses the row buffer
		if got, want := h.sum(res.Grid), castencil.GridSHA256(res.Grid); got != want {
			t.Fatalf("gridHasher = %s, castencil.GridSHA256 = %s", got, want)
		}
	}
}
