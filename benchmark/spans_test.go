package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "solve", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "build", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "exec", Start: 20, End: 50},    // overlaps build: counted once
		{ID: 4, Parent: 1, Name: "gather", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "task", Start: 25, End: 35},
		{ID: 6, Parent: 0, Name: "solve", Start: 200, End: 260}, // no children
	}
	want := map[int]int64{
		1: 100 - (40 + 10), // children cover [10,50) and [90,100)
		2: 20,
		3: 30 - 10,
		4: 30,
		5: 10,
		6: 60,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder // an untraced run records nothing and must not panic
	off.end(off.begin("solve", 0, 1, 0))

	rec := newRecorder()
	top := rec.begin("solve", 0, 7, 1)
	kid := rec.begin("core.BuildGraph", top, 7, 1)
	rec.end(kid)
	rec.end(top)
	if len(rec.spans) != 2 || rec.spans[1].Parent != top || rec.spans[1].Op != 7 || rec.spans[0].Rank != 1 {
		t.Fatalf("unexpected spans: %+v", rec.spans)
	}
	if s := rec.spans[0]; s.End < rec.spans[1].End || s.Start > rec.spans[1].Start {
		t.Errorf("parent %+v does not enclose child %+v", s, rec.spans[1])
	}
	if got := rec.durations("solve"); len(got) != 1 {
		t.Errorf("durations(solve) = %v, want one entry", got)
	}
}
