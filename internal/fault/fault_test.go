package fault

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

// Decisions must be pure functions of (seed, identity, attempt): repeated
// queries agree, different seeds/attempts decorrelate, and the empirical
// rate tracks the configured probability.
func TestDecisionsDeterministic(t *testing.T) {
	p := &Plan{Seed: 7, Drop: 0.3, Dup: 0.2, Delay: 0.1}
	for i := 0; i < 1000; i++ {
		id := MsgID{Src: int32(i % 5), Dst: int32(i % 7), Task: int32(i), Dep: int32(i % 3)}
		for a := int32(0); a < 3; a++ {
			if p.ShouldDrop(id, a) != p.ShouldDrop(id, a) {
				t.Fatal("ShouldDrop not deterministic")
			}
			if p.ShouldDup(id, a) != p.ShouldDup(id, a) {
				t.Fatal("ShouldDup not deterministic")
			}
			if p.DelayOf(id, a) != p.DelayOf(id, a) {
				t.Fatal("DelayOf not deterministic")
			}
		}
	}
}

func TestDecisionRatesTrackProbabilities(t *testing.T) {
	p := &Plan{Seed: 42, Drop: 0.25, Dup: 0.1, Delay: 0.4}
	const n = 20000
	drops, dups, delays := 0, 0, 0
	for i := 0; i < n; i++ {
		id := MsgID{Src: int32(i % 16), Dst: int32((i + 1) % 16), Task: int32(i), Dep: int32(i % 4)}
		if p.ShouldDrop(id, 0) {
			drops++
		}
		if p.ShouldDup(id, 0) {
			dups++
		}
		if p.DelayOf(id, 0) > 0 {
			delays++
		}
	}
	check := func(name string, got int, want float64) {
		rate := float64(got) / n
		if math.Abs(rate-want) > 0.02 {
			t.Errorf("%s rate %.3f, want ~%.3f", name, rate, want)
		}
	}
	check("drop", drops, 0.25)
	check("dup", dups, 0.1)
	check("delay", delays, 0.4)
}

func TestSeedAndAttemptDecorrelate(t *testing.T) {
	a := &Plan{Seed: 1, Drop: 0.5}
	b := &Plan{Seed: 2, Drop: 0.5}
	diffSeed, diffAttempt := 0, 0
	const n = 4000
	for i := 0; i < n; i++ {
		id := MsgID{Task: int32(i)}
		if a.ShouldDrop(id, 0) != b.ShouldDrop(id, 0) {
			diffSeed++
		}
		if a.ShouldDrop(id, 0) != a.ShouldDrop(id, 1) {
			diffAttempt++
		}
	}
	// Independent fair coins disagree ~half the time.
	if diffSeed < n/3 || diffAttempt < n/3 {
		t.Errorf("decisions too correlated: seed %d/%d, attempt %d/%d", diffSeed, n, diffAttempt, n)
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "drop=0.01,dup=0.02,delay=0.05,delayby=200µs,seed=7,pause=2:10:50ms,pause=1:5:2ms"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop != 0.01 || p.Dup != 0.02 || p.Delay != 0.05 || p.Seed != 7 {
		t.Fatalf("parsed %+v", p)
	}
	if p.DelayBy != 200*time.Microsecond {
		t.Fatalf("DelayBy = %v", p.DelayBy)
	}
	if len(p.Pauses) != 2 || p.Pauses[0] != (NodePause{Node: 2, AfterTasks: 10, Pause: 50 * time.Millisecond}) ||
		p.Pauses[1] != (NodePause{Node: 1, AfterTasks: 5, Pause: 2 * time.Millisecond}) {
		t.Fatalf("Pauses = %+v", p.Pauses)
	}
	// String() renders a spec ParsePlan accepts back to an equal plan.
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if p2.Drop != p.Drop || p2.Seed != p.Seed || len(p2.Pauses) != 2 {
		t.Fatalf("round trip lost fields: %q -> %+v", p.String(), p2)
	}
}

// badSpecs are fault specs ParsePlan must reject.
var badSpecs = []string{
	"drop=1.5", "drop=x", "nope=1", "drop", "delayby=zz",
	"pause=1:2", "pause=1:2:3:4", "drop=1",
	// NaN compares false against both bounds of [0,1].
	"drop=NaN", "dup=nan", "delay=NaN,delayby=1ms",
	// Keys of the timing-only injections, which the plan no longer has.
	"slow=0:0:1ms:1", "stall=0:1:1ms", "reorder=0.1", "reorderby=1ms",
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range badSpecs {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted", spec)
		}
	}
	for _, spec := range []string{"", "off", "none"} {
		p, err := ParsePlan(spec)
		if err != nil || p != nil {
			t.Errorf("ParsePlan(%q) = %v, %v; want nil, nil", spec, p, err)
		}
	}
}

// FuzzParsePlan: ParsePlan never panics; an accepted plan has every
// probability in [0,1] and renders through String() to a spec that parses
// back to the same rendering.
func FuzzParsePlan(f *testing.F) {
	f.Add("drop=0.01,dup=0.02,delay=0.05,delayby=200µs,seed=7,pause=2:10:50ms,pause=1:5:2ms")
	f.Add("delay=0.5,delayby=1ms,seed=0x10")
	for _, s := range append(badSpecs, "", "off", "none") {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil || p == nil {
			return
		}
		for _, v := range []float64{p.Drop, p.Dup, p.Delay} {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("ParsePlan(%q) accepted probability %v", spec, v)
			}
		}
		s := p.String()
		p2, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("ParsePlan(%q).String() = %q does not re-parse: %v", spec, s, err)
		}
		if s2 := p2.String(); s2 != s {
			t.Fatalf("round trip of %q: %q -> %q", spec, s, s2)
		}
	})
}

func TestRecoveryBackoff(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		timeout time.Duration
		want    []time.Duration
	}{
		// The timeout doubles per retransmit, capped at 250ms.
		{40 * ms, []time.Duration{40 * ms, 80 * ms, 160 * ms, 250 * ms, 250 * ms}},
		// A timeout above the cap is never lowered to it.
		{400 * ms, []time.Duration{400 * ms, 400 * ms}},
	} {
		r := Recovery{Timeout: c.timeout}.WithDefaults()
		for a, w := range c.want {
			if got := r.TimeoutAt(int32(a)); got != w {
				t.Errorf("Timeout %v: TimeoutAt(%d) = %v, want %v", c.timeout, a, got, w)
			}
		}
	}
	if got := (Recovery{Timeout: 10 * ms}).TimeoutAt(1 << 30); got != 250*ms {
		t.Errorf("TimeoutAt(2^30) = %v, want the 250ms cap", got)
	}
	d := Recovery{}.WithDefaults()
	if d.Timeout != DefaultTimeout || d.Deadline != DefaultDeadline {
		t.Errorf("defaults not filled: %+v", d)
	}
}

func TestReportIsError(t *testing.T) {
	var err error = &Report{
		ID: MsgID{Src: 0, Dst: 3, Bundle: 2}, Seq: 17, Attempts: 4,
		Waited: 120 * time.Millisecond, Deadline: 100 * time.Millisecond,
		Stats: Stats{Dropped: 3, Retransmits: 3, Timeouts: 4},
	}
	wrapped := fmt.Errorf("run failed: %w", err)
	var rep *Report
	if !errors.As(wrapped, &rep) {
		t.Fatal("errors.As failed to unwrap Report")
	}
	if rep.ID.Dst != 3 || rep.Seq != 17 {
		t.Fatalf("report fields lost: %+v", rep)
	}
	if rep.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestTimeDomainFaults(t *testing.T) {
	p := &Plan{Pauses: []NodePause{{Node: 2, AfterTasks: 4, Pause: 7 * time.Millisecond}}}
	if p.PauseAt(2, 4) != 7*time.Millisecond || p.PauseAt(2, 5) != 0 {
		t.Error("pause misapplied")
	}
	if !p.Active() || p.NeedsRecovery() == false {
		// pause needs the deadline machinery
		t.Error("Active/NeedsRecovery wrong")
	}
	if (&Plan{Delay: 0.1}).NeedsRecovery() {
		t.Error("pure delay should not require recovery")
	}
	var nilPlan *Plan
	if nilPlan.Active() || nilPlan.ShouldDrop(MsgID{}, 0) || nilPlan.DelayOf(MsgID{}, 0) != 0 {
		t.Error("nil plan should be inert")
	}
}
