package server

import "fmt"

// tenantQ is one tenant's admission state: a bounded queue split by the
// priority classes plus the deficit-round-robin accounting.
type tenantQ struct {
	weight  int
	deficit int
	queues  [numPriorities][]*Job
	count   int
}

func (t *tenantQ) pop() *Job {
	for p := range t.queues {
		if q := t.queues[p]; len(q) > 0 {
			j := q[0]
			copy(q, q[1:])
			t.queues[p] = q[:len(q)-1]
			t.count--
			return j
		}
	}
	return nil
}

// admitter is the weighted fair-share scheduler across tenants: classic
// deficit round robin (Shreedhar & Varghese) with a unit job cost and a
// per-visit quantum equal to the tenant's weight, layered over the
// high/normal/low priority classes *within* each tenant. A tenant with
// weight w drains w jobs per DRR round while every backlogged competitor
// drains in proportion to its own weight — one tenant's burst cannot starve
// another's queue, whatever priorities the burst claims. The deficit is
// reset whenever a tenant's queue empties (no credit hoarding across idle
// periods), which is what bounds DRR's unfairness to one quantum. A daemon
// admits every job under the one tenant "", which reduces the admitter to a
// bounded strict-priority FIFO. All methods require the core mutex.
type admitter struct {
	bound   int            // per-tenant queue capacity
	weights map[string]int // configured weights; absent or non-positive weigh 1
	tenants map[string]*tenantQ
	ring    []*tenantQ // active (backlogged) tenants, DRR visit order
	total   int
}

func newAdmitter(bound int, weights map[string]int) *admitter {
	return &admitter{bound: bound, weights: weights, tenants: make(map[string]*tenantQ)}
}

func (a *admitter) tenant(name string) *tenantQ {
	t, ok := a.tenants[name]
	if !ok {
		weight := a.weights[name]
		if weight <= 0 {
			weight = 1
		}
		t = &tenantQ{weight: weight}
		a.tenants[name] = t
	}
	return t
}

// enqueue admits j into its tenant's queue, activating the tenant in the
// DRR ring if it was idle. A full tenant queue rejects with ErrQueueFull;
// force bypasses the bound (used when promoting a singleflight waiter whose
// admission slot was already granted).
func (a *admitter) enqueue(j *Job, force bool) error {
	t := a.tenant(j.Tenant)
	if !force && t.count >= a.bound {
		return fmt.Errorf("%w (tenant %q, bound %d)", ErrQueueFull, j.Tenant, a.bound)
	}
	if t.count == 0 {
		a.ring = append(a.ring, t)
	}
	t.queues[j.prio] = append(t.queues[j.prio], j)
	t.count++
	a.total++
	return nil
}

// next picks the next job to dispatch: the tenant at the head of the DRR
// ring spends one unit of deficit per job, receiving a fresh quantum (its
// weight) on arriving at the head, and rotates to the tail when the quantum
// is spent. Within the chosen tenant, high beats normal beats low,
// FIFO within a class. Returns nil when nothing is queued.
func (a *admitter) next() *Job {
	for len(a.ring) > 0 {
		t := a.ring[0]
		if t.count == 0 {
			// Emptied behind our back (cancellation): deactivate, no carry.
			t.deficit = 0
			a.ring = a.ring[1:]
			continue
		}
		if t.deficit == 0 {
			t.deficit = t.weight
		}
		j := t.pop()
		t.deficit--
		a.total--
		switch {
		case t.count == 0:
			t.deficit = 0
			a.ring = a.ring[1:]
		case t.deficit == 0:
			a.ring = append(a.ring[1:], t)
		}
		return j
	}
	return nil
}

// remove drops a queued job (cancellation); reports whether it was found.
func (a *admitter) remove(j *Job) bool {
	t, ok := a.tenants[j.Tenant]
	if !ok {
		return false
	}
	q := t.queues[j.prio]
	for i, cand := range q {
		if cand == j {
			t.queues[j.prio] = append(q[:i], q[i+1:]...)
			t.count--
			a.total--
			return true
		}
	}
	return false
}

// drainAll empties every queue (shutdown), returning the drained jobs.
func (a *admitter) drainAll() []*Job {
	var out []*Job
	for _, t := range a.ring {
		for p := range t.queues {
			out = append(out, t.queues[p]...)
			t.queues[p] = nil
		}
		t.count, t.deficit = 0, 0
	}
	a.ring = nil
	a.total = 0
	return out
}

// depth is the total queued jobs across tenants.
func (a *admitter) depth() int { return a.total }
