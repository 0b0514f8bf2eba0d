package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"castencil/internal/ptg"
)

func TestCSVRoundTrip(t *testing.T) {
	tr := New()
	tr.Record(ev(0, 1, ptg.KindBoundary, 3, 9))
	tr.Record(ev(2, 0, ptg.KindInterior, 0, 4))
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tr.Events(), got.Events()
	if len(a) != len(b) {
		t.Fatalf("len %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("event %d: %+v != %+v", i, a[i], b[i])
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Error("wrong header must fail")
	}
	bad := strings.Join(csvHeader, ",") + "\nst,x,0,0,1,0,0,0,1,0,0,0\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("non-numeric field must fail")
	}
}

func TestMaxCore(t *testing.T) {
	tr := New()
	tr.Record(ev(0, 3, ptg.KindInterior, 0, 1))
	tr.Record(ev(2, 1, ptg.KindInterior, 0, 1))
	cores, nodes := tr.MaxCore()
	if cores != 4 {
		t.Errorf("cores = %d, want 4", cores)
	}
	if len(nodes) != 2 {
		t.Errorf("nodes = %v", nodes)
	}
}

func TestWriteChrome(t *testing.T) {
	tr := New()
	tr.Record(ev(0, 1, ptg.KindBoundary, 3, 9))
	tr.Record(ev(1, 0, ptg.KindInterior, 0, 4))
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	first := events[0] // sorted by start: the interior one
	if first["cat"] != "interior" || first["ph"] != "X" {
		t.Errorf("first event = %v", first)
	}
	if first["dur"].(float64) != 4000 { // 4ms in us
		t.Errorf("dur = %v", first["dur"])
	}
	if first["pid"].(float64) != 1 {
		t.Errorf("pid = %v", first["pid"])
	}
}

// TestReadCSVBackCompat pins the on-disk format: the twelve-column fixture
// loads, and a file in the retired nine-column layout is refused by header
// rather than half-read.
func TestReadCSVBackCompat(t *testing.T) {
	v12, err := os.ReadFile("testdata/trace_v12.csv")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, data string
		events     int
		comm       int    // KindComm events expected
		wantErr    string // substring of the expected error, "" for success
	}{
		{"v12", string(v12), 5, 2, ""},
		{"v9", "class,i,j,k,kind,node,core,start_ns,end_ns\ninit,0,0,0,0,0,0,0,1000000\n", 0, 0, "unrecognized header"},
	}
	for _, c := range cases {
		tr, err := ReadCSV(strings.NewReader(c.data))
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if tr.Len() != c.events {
			t.Errorf("%s: %d events, want %d", c.name, tr.Len(), c.events)
		}
		_, comm := SplitComm(tr.Events())
		if len(comm) != c.comm {
			t.Errorf("%s: %d comm events, want %d", c.name, len(comm), c.comm)
		}
		for _, e := range tr.Events() {
			if e.Kind != ptg.KindComm && (e.Msgs != 0 || e.Bytes != 0) {
				t.Errorf("%s: compute event %v carries comm counters", c.name, e.ID)
			}
		}
	}
}

// FuzzReadCSV drives the trace reader (traceview's input) on arbitrary
// bytes: ReadCSV never panics, and any input it accepts is a fixed point —
// writing the loaded trace and reading it back yields the same events.
func FuzzReadCSV(f *testing.F) {
	v12, err := os.ReadFile("testdata/trace_v12.csv")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v12)
	f.Add([]byte("class,i,j,k,kind,node,core,start_ns,end_ns\ninit,0,0,0,0,0,0,0,1000000\n"))
	f.Add([]byte(strings.Join(csvHeader, ",") + "\n\"a,\"\"b\",1,-2,3,300,5000000000,7,+8,9,2,0,-1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted trace does not write: %v", err)
		}
		again, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("written trace does not read back: %v\n%s", err, buf.Bytes())
		}
		if a, b := tr.Events(), again.Events(); !slices.Equal(a, b) {
			t.Errorf("events changed across a write/read cycle:\n%+v\n%+v", a, b)
		}
	})
}

// TestReadCSVCommCounters checks the comm columns survive a fixture load and
// feed SummarizeComm.
func TestReadCSVCommCounters(t *testing.T) {
	f, err := os.Open("testdata/trace_v12.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	_, comm := SplitComm(tr.Events())
	s := SummarizeComm(comm)
	if s.Wire != 2 || s.Transfers != 6 || s.Bytes != 3120 {
		t.Errorf("comm stats = %+v, want Wire 2, Transfers 6, Bytes 3120", s)
	}
	if s.Busy != 400*time.Microsecond {
		t.Errorf("comm busy = %v, want 400µs", s.Busy)
	}
}

// TestCSVRoundTripCommEvent checks the twelve-column writer preserves the
// comm counters through a write/read cycle.
func TestCSVRoundTripCommEvent(t *testing.T) {
	tr := New()
	e := ev(0, 2, ptg.KindComm, 1, 2)
	e.Msgs, e.Bytes = 4, 2048
	tr.Record(e)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.Events()[0]; g.Msgs != 4 || g.Bytes != 2048 {
		t.Errorf("round-tripped comm event = %+v", g)
	}
}

// TestCSVRoundTripSplitKinds checks the split transform's task kinds —
// KindInner (5) and KindBorder (6), appended after KindFault so older
// numeric kind values keep their meaning — survive a write/read cycle and
// render with their own Gantt glyphs.
func TestCSVRoundTripSplitKinds(t *testing.T) {
	tr := New()
	tr.Record(ev(0, 0, ptg.KindInner, 0, 8))
	tr.Record(ev(0, 1, ptg.KindBorder, 2, 4))
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events := got.Events()
	if len(events) != 2 || events[0].Kind != ptg.KindInner || events[1].Kind != ptg.KindBorder {
		t.Fatalf("split kinds lost in round trip: %+v", events)
	}
	if int(ptg.KindInner) != 5 || int(ptg.KindBorder) != 6 {
		t.Fatalf("split kind codes moved: inner=%d border=%d (CSV back-compat requires 5, 6)",
			int(ptg.KindInner), int(ptg.KindBorder))
	}
	chart := Gantt(events, 2, GanttConfig{Width: 20})
	if !strings.Contains(chart, ",") || !strings.Contains(chart, "b") {
		t.Errorf("Gantt chart missing split glyphs:\n%s", chart)
	}
}
