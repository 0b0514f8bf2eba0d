package main

import (
	"reflect"
	"testing"
)

func TestGenJobsIsAPureFunctionOfSeed(t *testing.T) {
	a, b := genJobs(7, 0, 2000), genJobs(7, 0, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and client gave two different streams")
	}
	if reflect.DeepEqual(a, genJobs(8, 0, 2000)) {
		t.Error("another seed gave the same stream")
	}
	if reflect.DeepEqual(a, genJobs(7, 1, 2000)) {
		t.Error("the two clients of one seed share a stream")
	}
}

func TestGenJobsShape(t *testing.T) {
	jobs := genJobs(3, 1, 4000)
	if !jobs[0].Fresh {
		t.Fatal("a stream must open with a fresh spec: there is nothing to repeat yet")
	}
	var fresh []uint64
	seen := map[uint64]bool{}
	variants := map[string]int{}
	for i, j := range jobs {
		s := j.Spec
		if s.N != fleetN || s.Tile != fleetTile || s.Steps != fleetSteps || s.Workers != 1 || s.Seed == 0 {
			t.Fatalf("job %d: unexpected shape %+v", i, s)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("job %d: the daemon would reject it: %v", i, err)
		}
		if j.Fresh {
			if seen[s.Seed] {
				t.Fatalf("job %d: fresh spec reuses seed %d", i, s.Seed)
			}
			seen[s.Seed] = true
			fresh = append(fresh, s.Seed)
			variants[s.Variant]++
			continue
		}
		recent := fresh[max(0, len(fresh)-fleetRecent):]
		found := false
		for _, seed := range recent {
			found = found || seed == s.Seed
		}
		if !found {
			t.Fatalf("job %d: repeat of seed %d, which is not among the last %d fresh specs", i, s.Seed, fleetRecent)
		}
	}
	if n := len(fresh); n < 1800 || n > 2200 {
		t.Errorf("%d of 4000 jobs are fresh, want about half", n)
	}
	for _, v := range []string{"base", "ca", "wf"} {
		if d := variants[v] - len(fresh)/3; d < -1 || d > 1 {
			t.Errorf("variant %s: %d of %d fresh specs, want a third", v, variants[v], len(fresh))
		}
	}
}
