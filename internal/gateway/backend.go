package gateway

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"castencil/internal/metrics"
	"castencil/internal/server"
)

// backend is one stencild the gateway routes onto. The health fields are
// written only by the prober goroutine and read atomically by the routing
// path, so routing never blocks on a probe in flight.
type backend struct {
	addr string // canonical host:port, the metric label and display name
	base string // http://host:port

	healthy  atomic.Bool
	health   atomic.Pointer[server.Health] // last load payload (nil before first parse)
	inflight atomic.Int64                  // gateway jobs currently on this backend
	fails    int                           // consecutive probe failures (prober-only)

	jobs, errs *metrics.Counter // stencilgate_backend_{jobs,errors}_total
}

// pool owns the backend set, the persistent HTTP client every gateway
// request rides (keep-alive connections, the netcomm persistent-lane
// discipline applied to the gateway->backend hop), and one health-probe
// goroutine per backend.
type pool struct {
	backends []*backend
	client   *http.Client
	probe    time.Duration
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// normalizeAddr accepts "host:port" or a full http URL and returns
// (host:port, http://host:port).
func normalizeAddr(a string) (string, string) {
	a = strings.TrimSuffix(a, "/")
	if s, ok := strings.CutPrefix(a, "http://"); ok {
		return s, a
	}
	if s, ok := strings.CutPrefix(a, "https://"); ok {
		return s, a
	}
	return a, "http://" + a
}

func newPool(addrs []string, probe time.Duration) *pool {
	p := &pool{probe: probe, stopCh: make(chan struct{}), client: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     90 * time.Second,
	}}}
	for _, a := range addrs {
		addr, base := normalizeAddr(a)
		b := &backend{addr: addr, base: base}
		// Start optimistic: a backend is routable until a probe says
		// otherwise, so a gateway booted alongside its fleet serves the
		// first request without waiting out a probe round.
		b.healthy.Store(true)
		p.backends = append(p.backends, b)
	}
	return p
}

// start launches the probers.
func (p *pool) start() {
	for _, b := range p.backends {
		p.wg.Add(1)
		go p.prober(b)
	}
}

// stop halts the probers and drops idle connections; safe to call more
// than once (Shutdown is idempotent).
func (p *pool) stop() {
	p.stopOnce.Do(func() { close(p.stopCh) })
	p.wg.Wait()
	p.client.CloseIdleConnections()
}

// prober polls one backend's /healthz: two consecutive failures (connection
// error or non-200) eject it from routing, one success restores it. The
// JSON line of a healthy answer is kept as the load snapshot for
// load-aware routing.
func (p *pool) prober(b *backend) {
	defer p.wg.Done()
	tick := time.NewTicker(p.probe)
	defer tick.Stop()
	p.probeOnce(b)
	for {
		select {
		case <-p.stopCh:
			return
		case <-tick.C:
			p.probeOnce(b)
		}
	}
}

// probeOnce runs one probe. Draining or degraded backends answer 503 with
// a payload: it is kept, but they must not receive new jobs.
func (p *pool) probeOnce(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", b.base+"/healthz", nil)
	var resp *http.Response
	if err == nil {
		resp, err = p.client.Do(req)
	}
	if err == nil {
		if h, parsed := parseHealth(resp.Body); parsed {
			b.health.Store(h)
		}
		resp.Body.Close()
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		if b.fails++; b.fails >= 2 {
			b.healthy.Store(false)
		}
		return
	}
	b.fails = 0
	b.healthy.Store(true)
}

// parseHealth extracts the machine-readable Health object from a healthz
// body: its last line (the endpoint's text lines come first).
func parseHealth(r io.Reader) (*server.Health, bool) {
	body, _ := io.ReadAll(io.LimitReader(r, 64<<10)) // a short read fails the parse below
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var h server.Health
	return &h, json.Unmarshal([]byte(lines[len(lines)-1]), &h) == nil
}

// rendezvousScore is the highest-random-weight hash of (fingerprint,
// backend): each backend scores every key independently, so adding or
// ejecting a backend only remaps the keys that scored highest on it —
// the fleet's working set stays sharded stably through membership churn.
func rendezvousScore(fp, addr string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(fp))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(addr))
	return h.Sum64()
}

// candidates returns the preference-ordered routable backends for a
// fingerprint: healthy backends by descending rendezvous score, with
// backends whose last load snapshot shows a full admission queue demoted
// behind the rest (load-aware: route around a saturated shard before its
// 429 does it the hard way). Unhealthy backends are ejected entirely.
func (p *pool) candidates(fp string) []*backend {
	var open, full []*backend
	for _, b := range p.backends {
		if !b.healthy.Load() {
			continue
		}
		if h := b.health.Load(); h != nil && h.QueueSize > 0 && h.QueueDepth >= h.QueueSize {
			full = append(full, b)
			continue
		}
		open = append(open, b)
	}
	byScore := func(s []*backend) {
		sort.Slice(s, func(i, j int) bool {
			return rendezvousScore(fp, s[i].addr) > rendezvousScore(fp, s[j].addr)
		})
	}
	byScore(open)
	byScore(full)
	return append(open, full...)
}

// pickAt returns the backend for a job's attempt number: attempt 0 is the
// rendezvous owner, each failover walks down the preference order, wrapping
// so a long outage retries the (possibly recovered) owner again.
func (p *pool) pickAt(fp string, attempt int) *backend {
	cands := p.candidates(fp)
	if len(cands) == 0 {
		return nil
	}
	return cands[attempt%len(cands)]
}

// healthyCount reports routable backends (for the gateway's own healthz).
func (p *pool) healthyCount() int {
	n := 0
	for _, b := range p.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}
