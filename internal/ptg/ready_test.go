package ptg

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestReadyQueueMatchesOracle interleaves random Push and Pop calls on a
// ReadyQueue against a sort-based oracle: the highest priority first, then
// push order. Trials span priority ranges from one value (every push ties)
// to wide ones with negative priorities, and pop-heavy mixes so the queue
// is often drained and popped empty.
func TestReadyQueueMatchesOracle(t *testing.T) {
	type item struct{ task, prio, seq int32 }
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		prios := []int32{1, 2, 3, 16, 1 << 20}[trial%5]
		pushShare := []int{30, 50, 70}[trial%3]
		var q ReadyQueue
		var oracle []item
		for op, seq := 0, int32(0); op < 400; op++ {
			if rng.Intn(100) < pushShare {
				seq++
				it := item{task: rng.Int31n(1000), prio: rng.Int31n(prios) - prios/2, seq: seq}
				q.Push(it.task, it.prio)
				oracle = append(oracle, it)
			} else {
				got, ok := q.Pop()
				if len(oracle) == 0 {
					if ok {
						t.Fatalf("trial %d op %d: Pop on an empty queue returned %d", trial, op, got)
					}
					continue
				}
				slices.SortFunc(oracle, func(a, b item) int {
					return cmp.Or(cmp.Compare(b.prio, a.prio), cmp.Compare(a.seq, b.seq))
				})
				if want := oracle[0]; !ok || got != want.task {
					t.Fatalf("trial %d op %d: Pop = %d, %v; want task %d (prio %d, push %d)", trial, op, got, ok, want.task, want.prio, want.seq)
				}
				oracle = oracle[1:]
			}
			if q.Len() != len(oracle) {
				t.Fatalf("trial %d op %d: Len = %d, want %d", trial, op, q.Len(), len(oracle))
			}
		}
	}
}

// TestReadyQueueAllocFree checks a queue that has reached its peak size
// pushes and pops without allocating.
func TestReadyQueueAllocFree(t *testing.T) {
	var q ReadyQueue
	for i := int32(0); i < 64; i++ {
		q.Push(i, i%5)
	}
	if a := testing.AllocsPerRun(100, func() {
		q.Push(7, 3)
		q.Pop()
	}); a != 0 {
		t.Errorf("steady push+pop allocates %.1f times", a)
	}
}
