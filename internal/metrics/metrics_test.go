package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs", Labels{"state": "done"})
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	// Same name+labels returns the same instrument.
	if r.Counter("jobs_total", "jobs", Labels{"state": "done"}) != c {
		t.Error("re-registration returned a different counter")
	}
	// Same family, different labels: a distinct series.
	c2 := r.Counter("jobs_total", "jobs", Labels{"state": "failed"})
	if c2 == c {
		t.Error("distinct label sets shared an instrument")
	}

	// A gauge is read from its callback at every scrape.
	depth := int64(7)
	r.GaugeFunc("queue_depth", "depth", nil, func() int64 { return depth })
	depth -= 3
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\nqueue_depth 4\n") {
		t.Errorf("gauge exposition lacks the live value 4:\n%s", b.String())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2, 4, 8}, nil)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Errorf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 119.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// Rank 4 of 8 falls in the (2,4] bucket (3 observations there, cum 3..6).
	if q := h.Quantile(0.5); q < 2 || q > 4 {
		t.Errorf("p50 = %v, want within (2,4]", q)
	}
	// The +Inf bucket clamps to the largest finite bound.
	if q := h.Quantile(0.999); q != 8 {
		t.Errorf("p99.9 = %v, want clamp to 8", q)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops", "", nil)
	h := r.Histogram("lat", "", []float64{1, 10}, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Errorf("lost updates: counter %d, histogram %d", c.Value(), h.Count())
	}
	if got := h.Sum(); math.Abs(got-4000) > 1e-6 {
		t.Errorf("histogram sum = %v, want 4000", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("stencild_jobs_total", "jobs by terminal state", Labels{"state": "done"}).Add(3)
	r.Counter("stencild_jobs_total", "jobs by terminal state", Labels{"state": "cancelled"}).Add(1)
	r.GaugeFunc("stencild_queue_depth", "queued jobs", nil, func() int64 { return 2 })
	r.GaugeFunc("stencild_running", "running jobs", nil, func() int64 { return 5 })
	h := r.Histogram("stencild_job_duration_seconds", "job wall time", []float64{0.1, 1}, nil)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE stencild_jobs_total counter",
		`stencild_jobs_total{state="cancelled"} 1`,
		`stencild_jobs_total{state="done"} 3`,
		"# TYPE stencild_queue_depth gauge",
		"stencild_queue_depth 2",
		"stencild_running 5",
		"# TYPE stencild_job_duration_seconds histogram",
		`stencild_job_duration_seconds_bucket{le="0.1"} 1`,
		`stencild_job_duration_seconds_bucket{le="1"} 2`,
		`stencild_job_duration_seconds_bucket{le="+Inf"} 3`,
		"stencild_job_duration_seconds_sum 30.55",
		"stencild_job_duration_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// One HELP/TYPE header per family even with several series.
	if n := strings.Count(out, "# TYPE stencild_jobs_total"); n != 1 {
		t.Errorf("family header emitted %d times", n)
	}
	// Labeled histogram series merge le with the series labels.
	r2 := NewRegistry()
	r2.Histogram("lat", "", []float64{1}, Labels{"engine": "real"}).Observe(0.5)
	b.Reset()
	if err := r2.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `lat_bucket{engine="real",le="1"} 1`) {
		t.Errorf("merged labels wrong:\n%s", b.String())
	}
}
