package runtime

import (
	"sync/atomic"
	"testing"

	"castencil/internal/ptg"
)

// TestDroppedCountsDiscardedTransfers covers the shutdown-drain accounting:
// a run that fails while a cross-node transfer is still pending must report
// the transfer in Result.Dropped instead of silently discarding it.
//
// The construction is deterministic with one worker per node: on node 0 the
// panicking root P is added first, so it is the first task the injection
// queue hands out and fails the run before anything else executes. The
// root R then still runs (queued work keeps draining after failure) and
// readies A onto the worker's deque; A runs and posts its send request
// strictly after shutdown. Whichever way the communication goroutine meets
// that request — draining it unpacked, or packing it and having delivery
// refused after completion (possibly delayed through the interceptor) —
// exactly one transfer is dropped.
func TestDroppedCountsDiscardedTransfers(t *testing.T) {
	b := ptg.NewBuilder(2)
	mustAdd := func(task ptg.Task) {
		t.Helper()
		if _, err := b.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(ptg.Task{ID: tid("P", 0, 0, 0), Node: 0, Run: func(ptg.Env) { panic("boom") }})
	mustAdd(ptg.Task{ID: tid("R", 0, 0, 0), Node: 0, Run: func(ptg.Env) {}})
	a := b.AllocBufSlot(0)
	mustAdd(ptg.Task{ID: tid("A", 0, 0, 0), Node: 0, Run: func(e ptg.Env) { e.PutBufSlot(a, []byte{1}) }})
	mustAdd(ptg.Task{ID: tid("B", 0, 0, 0), Node: 1, Run: func(ptg.Env) {}})
	if err := b.AddDep(tid("A", 0, 0, 0), tid("R", 0, 0, 0), ptg.Dep{}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDep(tid("B", 0, 0, 0), tid("A", 0, 0, 0), ptg.Dep{
		Bytes: 1,
		Pack:  func(e ptg.Env) []byte { return e.TakeBufSlot(a) },
		Unpack: func(e ptg.Env, data []byte) {
			t.Error("payload of the failed run was delivered to its consumer")
		},
	}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	var intercepted atomic.Int64
	res, err := Run(g, Options{Workers: 1, Intercept: func(m Message, deliver func(Message)) {
		// Forward immediately: by construction the run is already complete,
		// so deliver refuses the message and counts it as dropped — the
		// "interceptor finishing after completion" path.
		intercepted.Add(1)
		deliver(m)
	}})
	if err == nil {
		t.Fatal("run with a panicking task reported no error")
	}
	if res == nil {
		t.Fatal("failed run returned no partial result")
	}
	if res.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1 (intercepted=%d, messages=%d)",
			res.Dropped, intercepted.Load(), res.Messages)
	}
	// The transfer is dropped either before packing (drained from the send
	// queue, never counted as a message) or after (packed, counted, then
	// refused delivery); Messages must agree with which happened.
	if res.Messages != int(intercepted.Load()) {
		t.Errorf("Messages = %d but interceptor saw %d", res.Messages, intercepted.Load())
	}
}

// TestSuccessfulRunDropsNothing pins the invariant that completion implies
// every transfer was consumed.
func TestSuccessfulRunDropsNothing(t *testing.T) {
	g := buildChain(t, 12, 3)
	res, err := Run(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Errorf("successful run dropped %d transfers", res.Dropped)
	}
}
