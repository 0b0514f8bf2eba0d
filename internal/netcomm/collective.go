package netcomm

import (
	"sync"

	"castencil/internal/runtime"
)

// collectives is the rendezvous state of the control plane: barrier markers
// and gather records that arrived but have not been consumed yet, keyed by
// (epoch, op, tag, sender). Frames may arrive before the local rank reaches
// the matching collective call (or even before it reaches the epoch — a fast
// peer can enter run N+1's start barrier while we are still in run N's
// epilogue), so deposits for the current or any future epoch are queued;
// only strictly stale epochs are discarded.
type collectives struct {
	mu    sync.Mutex
	cond  *sync.Cond
	items map[colKey][]ctlItem
	// dead poisons a single epoch (a peer's abort, a bad frame): pending and
	// future take calls for that epoch fail with the cause. fatalOnce
	// poisons the whole transport (peer dead, Close).
	dead      map[uint32]error
	fatalOnce error
	cur       uint32
}

type colKey struct {
	epoch uint32
	op    byte
	tag   string
	from  int
}

// anyRank keys a queue that every sender feeds: the records and end markers
// of a gather stream, which rank 0 consumes in arrival order.
const anyRank = -1

// ctlItem is one queued control payload and who sent it with which op.
type ctlItem struct {
	from    int
	op      byte
	payload []byte
}

func newCollectives() *collectives {
	c := &collectives{
		items: make(map[colKey][]ctlItem),
		dead:  make(map[uint32]error),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// deposit queues an arrived control payload under the key (epoch, op, tag,
// key) (reader goroutine side); a stale epoch's payload goes back to the
// arena.
func (c *collectives) deposit(epoch uint32, op byte, tag string, key int, it ctlItem) {
	c.mu.Lock()
	if epoch < c.cur {
		c.mu.Unlock()
		runtime.PutBuf(it.payload)
		return
	}
	k := colKey{epoch: epoch, op: op, tag: tag, from: key}
	c.items[k] = append(c.items[k], it)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// take blocks until the matching payload arrives, the epoch is poisoned, or
// the transport dies.
func (c *collectives) take(epoch uint32, op byte, tag string, from int) (ctlItem, error) {
	k := colKey{epoch: epoch, op: op, tag: tag, from: from}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if err := c.errLocked(epoch); err != nil {
			return ctlItem{}, err
		}
		if q := c.items[k]; len(q) > 0 {
			it := q[0]
			if len(q) == 1 {
				delete(c.items, k)
			} else {
				q[0] = ctlItem{}
				c.items[k] = q[1:]
			}
			return it, nil
		}
		c.cond.Wait()
	}
}

// epochErr reports why epoch can no longer complete, if it cannot.
func (c *collectives) epochErr(epoch uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errLocked(epoch)
}

func (c *collectives) errLocked(epoch uint32) error {
	if c.fatalOnce != nil {
		return c.fatalOnce
	}
	return c.dead[epoch]
}

// abort poisons one epoch (current or future; stale aborts are ignored). A
// future-epoch abort stays queued in dead until that epoch's begin — this is
// how a peer that failed run N+1's start barrier reaches a rank still
// finishing run N without corrupting it.
func (c *collectives) abort(epoch uint32, err error) {
	c.mu.Lock()
	if epoch >= c.cur && c.dead[epoch] == nil {
		c.dead[epoch] = err
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// fatal poisons the transport permanently (peer dead, Close).
func (c *collectives) fatal(err error) {
	c.mu.Lock()
	if c.fatalOnce == nil {
		c.fatalOnce = err
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// fatalErr reports the permanent poison, if any.
func (c *collectives) fatalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fatalOnce
}

// begin advances to a new epoch and prunes everything older.
func (c *collectives) begin(epoch uint32) {
	c.mu.Lock()
	c.cur = epoch
	for k, q := range c.items {
		if k.epoch < epoch {
			for _, it := range q {
				runtime.PutBuf(it.payload)
			}
			delete(c.items, k)
		}
	}
	for e := range c.dead {
		if e < epoch {
			delete(c.dead, e)
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}
