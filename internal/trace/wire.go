package trace

import (
	"sort"
	"strings"
	"time"
)

// Wire events are the TCP transport's contribution to a distributed run's
// trace: the netcomm layer records one KindComm event per frame it puts on
// or takes off a socket, with ID.Class "wire:send" or "wire:recv", Node set
// to the rank (not a virtual node), I the local rank, J the peer rank, and
// Msgs/Bytes the frame accounting. Because rank numbers alias low virtual
// node IDs, wire events must be split out of a trace before per-node
// statistics run — otherwise a rank's socket activity pollutes the
// same-numbered node's comm-goroutine row.

// IsWire reports whether e is a transport wire event.
func IsWire(e Event) bool { return strings.HasPrefix(e.ID.Class, "wire:") }

// SplitWire separates transport wire events from everything else,
// preserving order.
func SplitWire(events []Event) (rest, wire []Event) {
	for _, e := range events {
		if IsWire(e) {
			wire = append(wire, e)
		} else {
			rest = append(rest, e)
		}
	}
	return rest, wire
}

// WireStats is one rank's wire-utilization row: how much of the run the
// rank's sockets were actively moving frames.
type WireStats struct {
	Rank  int32
	Sends int // frames written (wire:send)
	Recvs int // frames read (wire:recv)
	Bytes int
	// Busy is the union of the rank's wire-activity windows: overlapping
	// transfers on different lanes count once (MergeSpans).
	Busy time.Duration
	// Util is Busy over the caller's span (0 when no span was given).
	Util float64
}

// SummarizeWire aggregates wire events into per-rank utilization rows,
// sorted by rank. span is Util's denominator — pass the run's makespan, or
// <= 0 to leave Util zero.
func SummarizeWire(wire []Event, span time.Duration) []WireStats {
	byRank := map[int32]*WireStats{}
	spans := map[int32][]Span{}
	for _, e := range wire {
		if !IsWire(e) {
			continue
		}
		s := byRank[e.Node]
		if s == nil {
			s = &WireStats{Rank: e.Node}
			byRank[e.Node] = s
		}
		if e.ID.Class == "wire:recv" {
			s.Recvs++
		} else {
			s.Sends++
		}
		s.Bytes += e.Bytes
		spans[e.Node] = append(spans[e.Node], Span{Start: int64(e.Start), End: int64(e.End)})
	}
	out := make([]WireStats, 0, len(byRank))
	for rank, s := range byRank {
		s.Busy = time.Duration(SpanTotal(MergeSpans(spans[rank])))
		if span > 0 {
			s.Util = float64(s.Busy) / float64(span)
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// Span is a half-open time interval in nanoseconds (relative to a run's
// origin).
type Span struct{ Start, End int64 }

// MergeSpans sorts spans and coalesces overlapping/adjacent ones into a
// disjoint union, in place.
func MergeSpans(sp []Span) []Span {
	if len(sp) < 2 {
		return sp
	}
	sort.Slice(sp, func(i, j int) bool { return sp[i].Start < sp[j].Start })
	out := sp[:1]
	for _, v := range sp[1:] {
		last := &out[len(out)-1]
		if v.Start <= last.End {
			if v.End > last.End {
				last.End = v.End
			}
			continue
		}
		out = append(out, v)
	}
	return out
}

// SpanTotal sums the lengths of a disjoint span list.
func SpanTotal(sp []Span) int64 {
	var t int64
	for _, v := range sp {
		t += v.End - v.Start
	}
	return t
}
