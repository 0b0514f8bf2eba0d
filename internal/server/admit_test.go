package server

import (
	"errors"
	"testing"
)

func qj(tenant string, prio Priority) *Job {
	return &Job{Tenant: tenant, prio: prio, done: make(chan struct{})}
}

// drain pops jobs until the admitter empties, returning tenants in order.
func drainOrder(a *admitter) []string {
	var out []string
	for {
		j := a.next()
		if j == nil {
			return out
		}
		out = append(out, j.Tenant)
	}
}

func TestAdmitDRRWeights(t *testing.T) {
	// Weight 3 vs 1, both fully backlogged: each DRR round serves three of
	// "big" then one of "small" — bandwidth in proportion to weight.
	a := newAdmitter(16, map[string]int{"big": 3, "small": 1})
	for i := 0; i < 6; i++ {
		if err := a.enqueue(qj("big", PriorityNormal), false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := a.enqueue(qj("small", PriorityNormal), false); err != nil {
			t.Fatal(err)
		}
	}
	got := drainOrder(a)
	want := []string{"big", "big", "big", "small", "big", "big", "big", "small"}
	if len(got) != len(want) {
		t.Fatalf("drained %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DRR order[%d] = %s, want %s (full order %v)", i, got[i], want[i], got)
		}
	}
}

func TestAdmitDRRFairnessUnderBurst(t *testing.T) {
	// A huge burst from one tenant cannot starve another: within the first
	// few dispatches the competing tenant is served.
	a := newAdmitter(100, nil) // equal weights
	for i := 0; i < 50; i++ {
		if err := a.enqueue(qj("noisy", PriorityHigh), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.enqueue(qj("quiet", PriorityLow), false); err != nil {
		t.Fatal(err)
	}
	// Equal weights -> quantum 1 each: the second dispatch is quiet's,
	// despite noisy's 50-deep high-priority backlog.
	if j := a.next(); j.Tenant != "noisy" {
		t.Fatalf("first dispatch from %q, want noisy", j.Tenant)
	}
	if j := a.next(); j.Tenant != "quiet" {
		t.Fatalf("second dispatch from %q, want quiet (burst starved it)", j.Tenant)
	}
}

func TestAdmitPriorityWithinTenant(t *testing.T) {
	a := newAdmitter(16, nil)
	low := qj("t", PriorityLow)
	norm := qj("t", PriorityNormal)
	high := qj("t", PriorityHigh)
	for _, j := range []*Job{low, norm, high} {
		if err := a.enqueue(j, false); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []*Job{high, norm, low} {
		if got := a.next(); got != want {
			t.Fatalf("dispatch %d: got prio %v, want %v", i, got.prio, want.prio)
		}
	}
}

func TestAdmitBound(t *testing.T) {
	a := newAdmitter(2, nil)
	if err := a.enqueue(qj("t", PriorityNormal), false); err != nil {
		t.Fatal(err)
	}
	if err := a.enqueue(qj("t", PriorityNormal), false); err != nil {
		t.Fatal(err)
	}
	err := a.enqueue(qj("t", PriorityNormal), false)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third enqueue: got %v, want ErrQueueFull", err)
	}
	// The bound is per tenant: another tenant still gets in.
	if err := a.enqueue(qj("other", PriorityNormal), false); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	// force bypasses the bound (waiter promotion path).
	if err := a.enqueue(qj("t", PriorityNormal), true); err != nil {
		t.Fatalf("forced enqueue rejected: %v", err)
	}
	if a.depth() != 4 {
		t.Fatalf("depth = %d, want 4", a.depth())
	}
}

func TestAdmitRemove(t *testing.T) {
	a := newAdmitter(8, nil)
	j1 := qj("t", PriorityNormal)
	j2 := qj("t", PriorityNormal)
	if err := a.enqueue(j1, false); err != nil {
		t.Fatal(err)
	}
	if err := a.enqueue(j2, false); err != nil {
		t.Fatal(err)
	}
	if !a.remove(j1) {
		t.Fatal("remove(j1) = false, want true")
	}
	if a.remove(j1) {
		t.Fatal("second remove(j1) = true, want false")
	}
	if got := a.next(); got != j2 {
		t.Fatal("next() after remove did not yield j2")
	}
	if a.next() != nil {
		t.Fatal("admitter not empty after draining")
	}
	if a.depth() != 0 {
		t.Fatalf("depth = %d, want 0", a.depth())
	}
}

func TestAdmitDrainAll(t *testing.T) {
	a := newAdmitter(8, nil)
	for i := 0; i < 3; i++ {
		if err := a.enqueue(qj("a", PriorityNormal), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.enqueue(qj("b", PriorityHigh), false); err != nil {
		t.Fatal(err)
	}
	drained := a.drainAll()
	if len(drained) != 4 {
		t.Fatalf("drained %d jobs, want 4", len(drained))
	}
	if a.depth() != 0 || a.next() != nil {
		t.Fatal("admitter not empty after drainAll")
	}
}
