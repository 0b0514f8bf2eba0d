package server

import (
	"context"
	"encoding/json"
	"fmt"

	castencil "castencil"
)

// RunFollower is the distributed follower loop: on every rank but 0 the
// daemon runs it against the mesh, executing each job spec rank 0
// broadcasts. Rank 0 is already committed to the run when the spec arrives,
// so a broadcast job skips admission and enters the job table directly as
// running; its result carries this rank's counters and no grid. The loop
// returns when ctx is cancelled or the transport closes.
func (m *Manager) RunFollower(ctx context.Context, t *castencil.NetTransport) error {
	if t.Rank() == 0 {
		return fmt.Errorf("server: RunFollower on rank 0 (rank 0 drives broadcasts, it does not follow them)")
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case payload, ok := <-t.Jobs():
			if !ok {
				return nil
			}
			m.runBroadcast(ctx, t, payload)
		}
	}
}

// runBroadcast executes one spec broadcast by rank 0. A spec this rank
// cannot decode or validate is a divergence from rank 0 (which validated
// the identical bytes with the identical parsers before sending); rather
// than leave rank 0 hanging in the run's start barrier, the follower
// enters the epoch and aborts it, so rank 0's job fails with a structured
// error naming this rank.
func (m *Manager) runBroadcast(ctx context.Context, t *castencil.NetTransport, payload []byte) {
	var spec Spec
	var j *Job
	err := json.Unmarshal(payload, &spec)
	if err == nil {
		j, err = NewJob(spec)
	}
	if err != nil {
		t.Begin()
		t.Abort(fmt.Sprintf("rank %d rejected broadcast spec: %v", t.Rank(), err))
		return
	}
	m.setTimeout(j)
	// The run stops when the follower loop does, or when a forced drain
	// cancels every running job.
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	defer context.AfterFunc(m.ctx, stop)()
	m.mu.Lock()
	m.registerLocked(j)
	ctx, _ = m.startLocked(j, ctx) // a fresh job: always starts
	m.mu.Unlock()

	if err = m.plan(j); err != nil {
		// Same divergence reasoning as a build failure: fail the epoch
		// instead of hanging every rank.
		t.Begin()
		t.Abort(fmt.Sprintf("rank %d planner rejected broadcast: %v", t.Rank(), err))
	} else {
		err = m.run(ctx, j, t)
	}
	m.end(j, nil, err)
}
