package trace

import (
	"testing"
	"time"

	"castencil/internal/ptg"
)

func wireEvent(class string, rank int32, start, end time.Duration, bytes int) Event {
	return Event{
		ID:   ptg.TaskID{Class: class, I: int(rank)},
		Kind: ptg.KindComm, Node: rank,
		Start: start, End: end, Msgs: 1, Bytes: bytes,
	}
}

func TestSplitWire(t *testing.T) {
	events := []Event{
		{ID: ptg.TaskID{Class: "pt"}, Kind: ptg.KindInterior, Node: 0, Start: 0, End: 10},
		wireEvent("wire:send", 0, 5, 15, 100),
		{ID: ptg.TaskID{Class: "halo"}, Kind: ptg.KindComm, Node: 1, Start: 0, End: 4},
		wireEvent("wire:recv", 1, 20, 30, 50),
	}
	rest, wire := SplitWire(events)
	if len(rest) != 2 || len(wire) != 2 {
		t.Fatalf("split: %d rest, %d wire (want 2, 2)", len(rest), len(wire))
	}
	// Ordinary comm-goroutine events must stay in rest: only the transport's
	// wire: classes move, whatever their Kind.
	if rest[1].ID.Class != "halo" {
		t.Errorf("comm-goroutine event landed in the wrong half: %+v", rest[1])
	}
	for _, e := range wire {
		if !IsWire(e) {
			t.Errorf("non-wire event in wire half: %+v", e)
		}
	}
}

func TestSummarizeWire(t *testing.T) {
	// Rank 0: two overlapping windows [0,10) and [5,20) union to 20, plus a
	// disjoint [30,40) — busy 30 of a 100 span. Rank 1: one recv.
	wire := []Event{
		wireEvent("wire:send", 0, 0, 10*time.Nanosecond, 100),
		wireEvent("wire:send", 0, 5*time.Nanosecond, 20*time.Nanosecond, 200),
		wireEvent("wire:recv", 0, 30*time.Nanosecond, 40*time.Nanosecond, 300),
		wireEvent("wire:recv", 1, 0, 50*time.Nanosecond, 400),
	}
	stats := SummarizeWire(wire, 100*time.Nanosecond)
	if len(stats) != 2 {
		t.Fatalf("got %d ranks, want 2", len(stats))
	}
	r0 := stats[0]
	if r0.Rank != 0 || r0.Sends != 2 || r0.Recvs != 1 || r0.Bytes != 600 {
		t.Errorf("rank 0 counts: %+v", r0)
	}
	if r0.Busy != 30*time.Nanosecond {
		t.Errorf("rank 0 busy %v, want 30ns (overlapping windows must merge)", r0.Busy)
	}
	if r0.Util != 0.3 {
		t.Errorf("rank 0 util %v, want 0.3", r0.Util)
	}
	r1 := stats[1]
	if r1.Rank != 1 || r1.Sends != 0 || r1.Recvs != 1 || r1.Busy != 50*time.Nanosecond {
		t.Errorf("rank 1: %+v", r1)
	}
	if got := SummarizeWire(wire, 0); got[0].Util != 0 {
		t.Errorf("util without a span must stay 0, got %v", got[0].Util)
	}
}

func TestMergeSpans(t *testing.T) {
	got := MergeSpans([]Span{{5, 9}, {0, 3}, {2, 4}, {9, 12}, {20, 21}})
	want := []Span{{0, 4}, {5, 12}, {20, 21}}
	if len(got) != len(want) {
		t.Fatalf("merged to %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged to %v, want %v", got, want)
		}
	}
	if total := SpanTotal(got); total != 12 {
		t.Errorf("SpanTotal = %d, want 12", total)
	}
}
