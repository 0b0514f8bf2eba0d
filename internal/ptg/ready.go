package ptg

// ReadyQueue is the one ready order of both engines: the highest
// Task.Priority first, ties in the order the tasks were pushed (became
// ready). The real runtime keeps one per node as its injection queue and
// desim one per node for tasks waiting on a core, as PaRSEC orders ready
// tasks by priority. It is a binary heap of values, so a push allocates
// only when the backing array grows; it never shrinks, because a queue
// lives for one run. The zero value is empty and ready to use; it is not
// safe for concurrent use.
type ReadyQueue struct {
	items []readyItem
	seq   int64
}

type readyItem struct {
	task, prio int32
	seq        int64
}

// before reports whether a pops ahead of b.
func (a readyItem) before(b readyItem) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

// Len returns the number of queued tasks.
func (q *ReadyQueue) Len() int { return len(q.items) }

// Push queues task (a graph index) at priority prio.
func (q *ReadyQueue) Push(task, prio int32) {
	q.seq++
	q.items = append(q.items, readyItem{task, prio, q.seq})
	for i := len(q.items) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.items[i].before(q.items[p]) {
			break
		}
		q.items[i], q.items[p] = q.items[p], q.items[i]
		i = p
	}
}

// Pop removes and returns the task that runs next; ok is false when the
// queue is empty.
func (q *ReadyQueue) Pop() (task int32, ok bool) {
	n := len(q.items) - 1
	if n < 0 {
		return 0, false
	}
	task = q.items[0].task
	q.items[0] = q.items[n]
	q.items = q.items[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.items[c+1].before(q.items[c]) {
			c++
		}
		if !q.items[c].before(q.items[i]) {
			break
		}
		q.items[i], q.items[c] = q.items[c], q.items[i]
		i = c
	}
	return task, true
}
