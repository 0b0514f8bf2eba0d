package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public entry point. Start and End are nanoseconds since the
// recorder was created. Parent is the ID of the enclosing span (0 at the
// top); Op is the solve or job the span belongs to, shared by all its
// spans; Rank tells the two mesh ranks' solve spans apart.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Rank   int    `json:"rank,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so one code path serves traced and untraced clients.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, op, rank int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Op: op, Rank: rank, Start: now})
	return id
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// durations returns the duration in seconds of every span with the name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval covered by its direct children. Overlapping children (the two
// ranks of a mesh solve) are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanFile is the layout of out/<workload>.spans.json.
type spanFile struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Spans    []span        `json:"spans"`
	SelfNS   map[int]int64 `json:"self_ns"`
}

func (r *recorder) write(path, workload string, seed uint64) error {
	r.mu.Lock()
	f := spanFile{Workload: workload, Seed: seed, Spans: r.spans, SelfNS: selfTimes(r.spans)}
	r.mu.Unlock()
	return writeJSON(path, f)
}

// writeJSON writes v indented to path, creating the directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
