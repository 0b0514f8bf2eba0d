// Package metrics is a dependency-free instrumentation registry for the
// service layer: counters, gauges and histograms with constant labels,
// exposed in the Prometheus text format (see prometheus.go). It exists so
// the daemon can report live runtime behavior — tasks executed, steals,
// bundles, retransmits, queue depth, job latency percentiles — without
// pulling a client library into a repository that is otherwise
// dependency-free.
//
// All instruments are safe for concurrent use and updates are single
// atomic operations, so they are cheap enough to sit on serving paths.
// Metrics are registered once (GetOrCreate semantics: registering the same
// name+labels twice returns the same instrument) and live for the life of
// the registry.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels are constant key/value pairs attached to an instrument (one time
// series per distinct label set, as in Prometheus).
type Labels map[string]string

// kind is the exposition type of a family.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is a programming error and is
// ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket distribution: observation counts per
// upper-bound bucket plus a running sum, enough to expose Prometheus
// histograms and answer approximate quantile queries locally.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, implicit +Inf last
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search would be overkill: bucket lists are short (tens).
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile returns an approximate q-quantile (0 <= q <= 1) by linear
// interpolation inside the bucket holding the target rank — the same
// estimate Prometheus's histogram_quantile computes server-side. Returns
// NaN with no observations; the highest finite bound when the rank lands
// in the +Inf bucket.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.buckets {
		prev := cum
		cum += h.buckets[i].Load()
		if float64(cum) >= rank {
			if i == len(h.bounds) {
				// +Inf bucket: clamp to the largest finite bound.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			inBucket := float64(cum - prev)
			if inBucket <= 0 {
				return hi
			}
			return lo + (hi-lo)*((rank-float64(prev))/inBucket)
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// DefLatencyBuckets is the default latency histogram layout, in seconds:
// exponential from 1ms to ~67s, fine enough for p50/p99 on both quick sim
// jobs and long real runs.
var DefLatencyBuckets = expBuckets(0.001, 2, 17)

// expBuckets returns n ascending bounds starting at start, each factor
// times the previous.
func expBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric is one registered time series.
type metric struct {
	name   string // family name
	help   string
	kind   kind
	labels string // pre-rendered {k="v",...} or ""
	c      *Counter
	h      *Histogram
	gf     func() int64 // gauge callback
}

// Registry holds registered instruments and renders them (prometheus.go).
type Registry struct {
	mu    sync.Mutex
	by    map[string]*metric // key: name + rendered labels
	order []*metric          // stable exposition order (registration order)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: make(map[string]*metric)}
}

// renderLabels serializes a label set deterministically: {a="x",b="y"}.
func renderLabels(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) lookup(name, help string, k kind, labels Labels) *metric {
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.by[key]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("metrics: %q re-registered as a different kind", key))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: k, labels: renderLabels(labels)}
	r.by[key] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns the counter registered under name+labels, creating it on
// first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	m := r.lookup(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time
// (e.g. live queue depth read from the owning structure).
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() int64) {
	m := r.lookup(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	m.gf = fn
}

// CounterValue reads a registered counter by name+labels without creating
// it: the current count, or ok=false when no such counter exists. It lets
// tests, smoke scripts and benches assert on live service counters (cache
// hits, per-tenant admissions, backend errors) without scraping and parsing
// the text exposition.
func (r *Registry) CounterValue(name string, labels Labels) (int64, bool) {
	key := name + renderLabels(labels)
	r.mu.Lock()
	m, ok := r.by[key]
	r.mu.Unlock()
	if !ok || m.kind != kindCounter || m.c == nil {
		return 0, false
	}
	return m.c.Value(), true
}

// Histogram returns the histogram registered under name+labels, creating it
// with the given bucket bounds on first use (nil bounds = DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	m := r.lookup(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.h == nil {
		if len(bounds) == 0 {
			bounds = DefLatencyBuckets
		}
		b := make([]float64, len(bounds))
		copy(b, bounds)
		sort.Float64s(b)
		m.h = &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
	}
	return m.h
}
