// Package trace records per-task execution events (which node and core ran
// which task, when) and renders them as text Gantt charts and occupancy
// statistics — the analog of PaRSEC's profiling system used to produce
// Figure 10 of the paper.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"castencil/internal/ptg"
)

// Event is one executed task, or (Kind ptg.KindComm) one wire message
// handled by a node's communication goroutine.
type Event struct {
	ID         ptg.TaskID
	Kind       ptg.Kind
	Node, Core int32
	Start, End time.Duration
	// Stolen marks a task the executing core took from a sibling
	// worker's deque (work-stealing scheduler only).
	Stolen bool
	// Msgs and Bytes are set on KindComm events only: the member transfers
	// carried (1 for a point-to-point message, the segment count for a
	// coalesced bundle) and the wire bytes handled.
	Msgs  int
	Bytes int
}

// Duration returns the event's execution time.
func (e Event) Duration() time.Duration { return e.End - e.Start }

// Trace is a concurrency-safe event collector.
type Trace struct {
	mu     sync.Mutex
	events []Event
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Record appends an event.
func (t *Trace) Record(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a copy of the recorded events sorted by start time.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Core < out[j].Core
	})
	return out
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Node returns the events of one node, sorted by start time.
func (t *Trace) Node(node int32) []Event {
	all := t.Events()
	out := all[:0:0]
	for _, e := range all {
		if e.Node == node {
			out = append(out, e)
		}
	}
	return out
}

// Makespan returns the latest end time across all events.
func (t *Trace) Makespan() time.Duration {
	var m time.Duration
	t.mu.Lock()
	for _, e := range t.events {
		if e.End > m {
			m = e.End
		}
	}
	t.mu.Unlock()
	return m
}

// Stats summarizes a set of events.
type Stats struct {
	Tasks        int
	Busy         time.Duration // summed task durations
	Span         time.Duration // last end - first start
	Cores        int
	Occupancy    float64 // Busy / (Span * Cores)
	MedianByKind map[string]time.Duration
	CountByKind  map[string]int
}

// Summarize computes occupancy and per-kind medians over events (typically
// one node's). cores is the number of compute cores those events share.
func Summarize(events []Event, cores int) Stats {
	s := Stats{Cores: cores, MedianByKind: map[string]time.Duration{}, CountByKind: map[string]int{}}
	if len(events) == 0 {
		return s
	}
	byKind := map[string][]time.Duration{}
	first, last := events[0].Start, time.Duration(0)
	for _, e := range events {
		s.Tasks++
		s.Busy += e.Duration()
		if e.Start < first {
			first = e.Start
		}
		if e.End > last {
			last = e.End
		}
		k := e.Kind.String()
		byKind[k] = append(byKind[k], e.Duration())
	}
	s.Span = last - first
	if s.Span > 0 && cores > 0 {
		s.Occupancy = float64(s.Busy) / (float64(s.Span) * float64(cores))
	}
	for k, ds := range byKind {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		s.MedianByKind[k] = ds[len(ds)/2]
		s.CountByKind[k] = len(ds)
	}
	return s
}

// CoreStats summarizes one core's share of a node's events: the raw
// material for spotting scheduler imbalance (a starved core shows low
// Util; a core living off its siblings shows high Stolen).
type CoreStats struct {
	Core   int32
	Tasks  int
	Stolen int           // tasks obtained by stealing from a sibling
	Busy   time.Duration // summed task durations on this core
	Util   float64       // Busy / node span
}

// SummarizeCores buckets one node's events per core (0..cores-1) and
// computes each core's busy time and utilization against the node's span
// (first start to last end across all the events given).
func SummarizeCores(events []Event, cores int) []CoreStats {
	out := make([]CoreStats, cores)
	for i := range out {
		out[i].Core = int32(i)
	}
	if len(events) == 0 {
		return out
	}
	first, last := events[0].Start, time.Duration(0)
	for _, e := range events {
		if e.Start < first {
			first = e.Start
		}
		if e.End > last {
			last = e.End
		}
		if int(e.Core) < 0 || int(e.Core) >= cores {
			continue
		}
		c := &out[e.Core]
		c.Tasks++
		c.Busy += e.Duration()
		if e.Stolen {
			c.Stolen++
		}
	}
	if span := last - first; span > 0 {
		for i := range out {
			out[i].Util = float64(out[i].Busy) / float64(span)
		}
	}
	return out
}

// SplitComm partitions events into compute events and communication
// (KindComm) events, preserving order. Compute statistics (Summarize,
// SummarizeCores) should run on the first slice so comm-goroutine activity
// does not pollute task occupancy and per-kind medians.
func SplitComm(events []Event) (compute, comm []Event) {
	for _, e := range events {
		if e.Kind == ptg.KindComm {
			comm = append(comm, e)
		} else {
			compute = append(compute, e)
		}
	}
	return compute, comm
}

// CommStats summarizes the communication-goroutine events of one node: the
// comm-utilization row of a trace.
type CommStats struct {
	Wire      int // wire messages handled (sends + receives)
	Transfers int // member transfers carried (== Wire without coalescing)
	Bytes     int
	Busy      time.Duration // summed handling time on the comm goroutine
}

// SummarizeComm aggregates KindComm events (others are ignored).
func SummarizeComm(events []Event) CommStats {
	var s CommStats
	for _, e := range events {
		if e.Kind != ptg.KindComm {
			continue
		}
		s.Wire++
		s.Transfers += e.Msgs
		s.Bytes += e.Bytes
		s.Busy += e.Duration()
	}
	return s
}

// GanttConfig controls text rendering.
type GanttConfig struct {
	Width int // columns of the time axis (default 100)
	// Glyphs maps task kinds to single-character glyphs; defaults are
	// 'B' for boundary, '.' for interior, 'i' for init.
	Glyphs map[ptg.Kind]byte
}

// Gantt renders one node's events as a text chart: one row per core, one
// glyph per time bucket (idle = space). This is the text analog of the
// paper's Figure 10 trace plots.
func Gantt(events []Event, cores int, cfg GanttConfig) string {
	if cfg.Width <= 0 {
		cfg.Width = 100
	}
	glyphs := cfg.Glyphs
	if glyphs == nil {
		glyphs = map[ptg.Kind]byte{
			ptg.KindBoundary: 'B',
			ptg.KindInterior: '.',
			ptg.KindInit:     'i',
			ptg.KindComm:     'c',
		}
	}
	if len(events) == 0 {
		return "(no events)\n"
	}
	var first, last time.Duration
	first = events[0].Start
	for _, e := range events {
		if e.Start < first {
			first = e.Start
		}
		if e.End > last {
			last = e.End
		}
	}
	span := last - first
	if span <= 0 {
		span = 1
	}
	rows := make([][]byte, cores)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", cfg.Width))
	}
	bucket := func(d time.Duration) int {
		b := int(int64(d-first) * int64(cfg.Width) / int64(span))
		if b < 0 {
			b = 0
		}
		if b >= cfg.Width {
			b = cfg.Width - 1
		}
		return b
	}
	for _, e := range events {
		if int(e.Core) < 0 || int(e.Core) >= cores {
			continue
		}
		g, ok := glyphs[e.Kind]
		if !ok {
			g = '?'
		}
		for b := bucket(e.Start); b <= bucket(e.End); b++ {
			rows[e.Core][b] = g
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "time: 0 .. %v  (one column = %v)\n", span, span/time.Duration(cfg.Width))
	for i, r := range rows {
		fmt.Fprintf(&sb, "core %2d |%s|\n", i, r)
	}
	return sb.String()
}

// timeDuration converts nanoseconds to a time.Duration (helper for csv.go).
func timeDuration(ns int64) time.Duration { return time.Duration(ns) }
