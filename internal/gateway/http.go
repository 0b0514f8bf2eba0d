package gateway

import (
	"fmt"
	"net/http"

	"castencil/internal/server"
)

// health is the gateway's own /healthz payload.
type health struct {
	Status          string `json:"status"`
	BackendsHealthy int    `json:"backends_healthy"`
	BackendsTotal   int    `json:"backends_total"`
	QueueDepth      int    `json:"queue_depth"`
	Inflight        int    `json:"inflight"`
	CacheEntries    int    `json:"cache_entries"`
	CacheBytes      int64  `json:"cache_bytes"`
}

// Handler returns the gateway's HTTP API: the job routes a stencild serves
// (server.Routes; the stream serves gateway snapshots, which carry the
// backend's live counters) plus
//
//	GET  /healthz              status word + fleet health JSON
//
// Backpressure composes: a full tenant queue answers 429 + Retry-After at
// the gateway; backend 429/503s feed the failover loop instead of the
// client.
func Handler(g *Gateway) http.Handler {
	mux := server.Routes(g.Core, g.Submit)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		healthy, total := g.pool.healthyCount(), len(g.pool.backends)
		h := health{Status: "ok", BackendsHealthy: healthy, BackendsTotal: total}
		var draining bool
		h.QueueDepth, h.Inflight, draining = g.Load()
		switch {
		case draining:
			h.Status = "draining"
		case healthy == 0:
			h.Status = "degraded"
		}
		g.mu.Lock()
		h.CacheEntries, h.CacheBytes = g.cache.len(), g.cache.size()
		g.mu.Unlock()
		server.WriteHealth(w, h.Status, h, fmt.Sprintf("backends: %d/%d healthy", healthy, total))
	})
	return mux
}
