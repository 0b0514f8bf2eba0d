package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root is what the driver reads; spec.go
// is what the program measures. They must name the same things.
func TestBenchmarkJSONMirrorsSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(raw))
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", file.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: malformed unit %q", n, u)
		}
	}

	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %+v in spec.go", i, file.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, over 200", w.Name, len(w.Why))
		}
		check(w.Name, "")
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(file.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range endToEnd {
		f := file.EndToEnd[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better || f.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in spec.go", i, f, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
		check(d.Name, d.Unit)
	}
	if !setup {
		t.Error("end_to_end must include setup_s in s, lower is better")
	}
	if len(file.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go (at most 128)", len(file.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		f := file.PerLayer[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in spec.go", i, f, d)
		}
		check(d.Name, d.Unit)
	}
	// 4 + 22 runs per workload, each a window plus set-up and checking,
	// must fit the driver's 3420 s with room for two builds.
	if runs := 4 + 22*len(workloads); float64(runs)*(float64(file.RunSeconds)+8) > 3420-120 {
		t.Errorf("run_seconds = %d leaves no room: %d runs", file.RunSeconds, runs)
	}
}
