package gateway

import (
	"container/list"

	"castencil/internal/server"
)

// entry is one cached terminal result.
type entry struct {
	fp   string
	res  *server.Result
	size int64
}

// cache is the content-addressed result store: fingerprint -> terminal
// result, bounded by both an entry count and a byte budget (the byte size
// of an entry is its raw grid plus its report's JSON, so the budget tracks
// real memory, not job counts). Eviction is strict LRU — a
// repeated fleet working set stays resident while one-off jobs age out.
// Methods require the gateway mutex.
type cache struct {
	maxEntries int
	maxBytes   int64

	entries map[string]*list.Element
	lru     *list.List // of *entry, most recently used first
	bytes   int64
}

func newCache(maxEntries int, maxBytes int64) *cache {
	return &cache{maxEntries: maxEntries, maxBytes: maxBytes, entries: make(map[string]*list.Element), lru: list.New()}
}

// get returns the cached result for fp, promoting it to MRU.
func (c *cache) get(fp string) (*server.Result, int64, bool) {
	el, ok := c.entries[fp]
	if !ok {
		return nil, 0, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*entry)
	return e.res, e.size, true
}

// put inserts (or refreshes) fp's result and evicts LRU entries until both
// caps hold again, returning how many entries were evicted. A result larger
// than the whole byte budget is not admitted at all (it would evict
// everything and then still not fit); it only drops fp's stale entry.
func (c *cache) put(fp string, res *server.Result, size int64) (evicted int) {
	if el, ok := c.entries[fp]; ok {
		c.drop(el)
		if size > c.maxBytes {
			return 1
		}
	}
	if size > c.maxBytes {
		return 0
	}
	c.entries[fp] = c.lru.PushFront(&entry{fp: fp, res: res, size: size})
	c.bytes += size
	for len(c.entries) > c.maxEntries || c.bytes > c.maxBytes {
		c.drop(c.lru.Back())
		evicted++
	}
	return evicted
}

func (c *cache) len() int    { return len(c.entries) }
func (c *cache) size() int64 { return c.bytes }

func (c *cache) drop(el *list.Element) {
	e := c.lru.Remove(el).(*entry)
	delete(c.entries, e.fp)
	c.bytes -= e.size
}

// flight is one singleflight group: the leader executes, every identical
// concurrent submission rides along and completes with the leader's result.
type flight struct {
	leader  *Job
	waiters []*Job
}
