package server

import (
	"encoding/hex"
	"encoding/json"
	"testing"
)

// baseSpec is a fully-spelled reference job for the fingerprint contract.
func fpBaseSpec() Spec {
	return Spec{
		Engine: "real", Variant: "ca",
		N: 256, Tile: 32, Nodes: 4, Steps: 40, StepSize: 4, Seed: 7,
	}
}

// The fingerprint must be a pure function of the result-affecting subset:
// perturbing any execution-only or policy-only field leaves it unchanged.
func TestFingerprintIgnoresNonResultFields(t *testing.T) {
	base := fpBaseSpec().Fingerprint()
	perturbed := map[string]Spec{}
	add := func(name string, mod func(*Spec)) {
		s := fpBaseSpec()
		mod(&s)
		perturbed[name] = s
	}
	add("workers", func(s *Spec) { s.Workers = 7 })
	add("coalesce", func(s *Spec) { s.Coalesce = "step" })
	add("ranks", func(s *Spec) { s.Ranks = 4 })
	add("priority", func(s *Spec) { s.Priority = "high" })
	add("timeout", func(s *Spec) { s.TimeoutMS = 5000 })
	add("tenant", func(s *Spec) { s.Tenant = "acme" })
	add("cache", func(s *Spec) { s.Cache = "bypass" })
	add("fault", func(s *Spec) { s.Fault = "drop=0.01,seed=3" })
	add("machine", func(s *Spec) { s.Machine = "Stampede2" })
	add("ratio", func(s *Spec) { s.Ratio = 0.4 })
	for name, s := range perturbed {
		if got := s.Fingerprint(); got != base {
			t.Errorf("perturbing non-result field %q changed the fingerprint: %s != %s", name, got, base)
		}
	}
}

// Every result-affecting field must perturb the hash.
func TestFingerprintCoversResultFields(t *testing.T) {
	base := fpBaseSpec().Fingerprint()
	perturbed := map[string]Spec{}
	add := func(name string, mod func(*Spec)) {
		s := fpBaseSpec()
		mod(&s)
		perturbed[name] = s
	}
	add("engine", func(s *Spec) { s.Engine = "sim" })
	add("variant", func(s *Spec) { s.Variant = "base" })
	add("plan", func(s *Spec) { s.Plan = "auto" })
	add("n", func(s *Spec) { s.N = 512 })
	add("tile", func(s *Spec) { s.Tile = 64 })
	add("nodes", func(s *Spec) { s.Nodes = 16 })
	add("steps", func(s *Spec) { s.Steps = 80 })
	add("step_size", func(s *Spec) { s.StepSize = 8 })
	add("wavefront", func(s *Spec) { s.Wavefront = 4; s.Variant = "wf"; s.StepSize = 0 })
	add("seed", func(s *Spec) { s.Seed = 8 })
	seen := map[string]string{"base": base}
	for name, s := range perturbed {
		got := s.Fingerprint()
		if got == base {
			t.Errorf("perturbing result-affecting field %q did not change the fingerprint", name)
		}
		for prev, h := range seen {
			if h == got {
				t.Errorf("fields %q and %q collide: %s", name, prev, got)
			}
		}
		seen[name] = got
	}
}

// Default normalization: the empty spellings hash like their canonical
// forms, so a cache hit does not depend on how the client spelled defaults.
func TestFingerprintNormalizesDefaults(t *testing.T) {
	full := fpBaseSpec()
	full.Seed = 1
	short := Spec{N: 256, Tile: 32, Nodes: 4, Steps: 40, StepSize: 4}
	if f, s := full.Fingerprint(), short.Fingerprint(); f != s {
		t.Fatalf("defaults not normalized: explicit %s != elided %s", f, s)
	}
	one := Spec{N: 256, Tile: 32, Steps: 40}
	oneExplicit := Spec{Engine: "run", Variant: "CA", N: 256, Tile: 32, Nodes: 1, Steps: 40, Seed: 1}
	if a, b := one.Fingerprint(), oneExplicit.Fingerprint(); a != b {
		t.Fatalf("nodes/seed/engine-case normalization broken: %s != %s", a, b)
	}
	// Shape sanity: hex sha256.
	if fp := one.Fingerprint(); len(fp) != 64 {
		t.Fatalf("fingerprint length %d, want 64 hex chars", len(fp))
	} else if _, err := hex.DecodeString(fp); err != nil {
		t.Fatalf("fingerprint is not hex: %v", err)
	}
}

// The fingerprint is the fleet cache key: these hex values are pinned so a
// refactor of how it is derived cannot move a stored key.
func TestFingerprintGolden(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{N: 256, Tile: 32, Nodes: 4, Steps: 40, StepSize: 4}, "45bf7e1f49ffacec61b26559374295e7ae9582af96df3fbc1d2ea858f9cfd2eb"},
		{Spec{Variant: "wf", N: 256, Tile: 32, Nodes: 4, Steps: 40, Wavefront: 4, Seed: 7}, "7aec028fe71f08033cb80185b21384ae0ffeb4ed042df1320145dc9179f5f0c1"},
		{Spec{Engine: "sim", Plan: "auto", N: 256, Tile: 32, Steps: 40}, "f03ddc2d8e85d1b2adabbd02e562fe158912e726b9638006189fd5095c827fa3"},
		{Spec{Engine: "real", Variant: "base", N: 128, Tile: 32, Steps: 20, Seed: 42}, "979ed26a1a2fbec14c15379c783371a103c3abde2455fcd19a75f888bf8c0986"},
	} {
		if got := c.spec.Fingerprint(); got != c.want {
			t.Errorf("%+v: fingerprint %s, want %s", c.spec, got, c.want)
		}
	}
}

func TestCacheSafe(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Spec)
		want bool
	}{
		{"default real job", func(s *Spec) {}, true},
		{"explicit real", func(s *Spec) { s.Engine = "real" }, true},
		{"plan auto default machine", func(s *Spec) { s.Plan = "auto"; s.Variant = "" }, true},
		{"sim", func(s *Spec) { s.Engine = "sim" }, false},
		{"bypass", func(s *Spec) { s.Cache = "bypass" }, false},
		{"bypass case", func(s *Spec) { s.Cache = "Bypass" }, false},
		{"distributed", func(s *Spec) { s.Ranks = 2 }, false},
		{"fault", func(s *Spec) { s.Fault = "drop=0.01,seed=3" }, false},
		{"fault off", func(s *Spec) { s.Fault = "off" }, true},
		{"auto with machine", func(s *Spec) { s.Plan = "auto"; s.Machine = "Stampede2" }, false},
		{"auto with ratio", func(s *Spec) { s.Plan = "auto"; s.Ratio = 0.4 }, false},
	}
	for _, c := range cases {
		s := fpBaseSpec()
		c.mod(&s)
		if got := s.CacheSafe(); got != c.want {
			t.Errorf("%s: CacheSafe = %v, want %v", c.name, got, c.want)
		}
	}
}

// Validate mirrors admission exactly — including the new tenant and cache
// fields — so the gateway can 400 locally.
func TestSpecValidate(t *testing.T) {
	ok := fpBaseSpec()
	ok.Tenant, ok.Cache = "acme", "bypass"
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := fpBaseSpec()
	bad.Cache = "maybe"
	if err := bad.Validate(); err == nil {
		t.Fatal("bad cache mode accepted")
	}
	neg := fpBaseSpec()
	neg.N = 0
	if err := neg.Validate(); err == nil {
		t.Fatal("n=0 accepted")
	}
}

// FuzzSpecFingerprint drives the gateway's front-door path on arbitrary
// client bytes: JSON -> Spec -> Validate -> Fingerprint never panics, and the
// fingerprint survives re-encoding the decoded spec (the gateway forwards the
// re-encoded spec to a backend, which must address the same cache entry).
func FuzzSpecFingerprint(f *testing.F) {
	wf := fpBaseSpec()
	wf.Variant, wf.Wavefront, wf.StepSize = "wf", 4, 0
	for _, s := range []Spec{
		fpBaseSpec(),
		wf,
		{N: 256, Tile: 32, Nodes: 4, Steps: 40, StepSize: 4},
		{Engine: "run", Variant: "CA", N: 256, Tile: 32, Nodes: 1, Steps: 40, Seed: 1},
		{Engine: "sim", Plan: "auto", N: 256, Tile: 32, Steps: 40, Machine: "Stampede2", Ratio: 0.4},
	} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"n":-1,"tile":0,"nodes":3,"fault":"drop=2","cache":"maybe"}`))
	f.Add([]byte(`{"n":"256"}`))
	f.Add([]byte(`{"n":1,"tile":1,"steps":1,"nodes":9223372036854775807}`))
	f.Add([]byte(`{"n":1,"tile":1,"steps":1,"nodes":4611686018427387904}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		_ = s.Validate() // any verdict is fine; it must not panic
		again, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("decoded spec does not re-encode: %v", err)
		}
		var s2 Spec
		if err := json.Unmarshal(again, &s2); err != nil {
			t.Fatalf("re-encoded spec does not decode: %v", err)
		}
		if a, b := s.Fingerprint(), s2.Fingerprint(); a != b {
			t.Errorf("fingerprint changed across re-encoding: %s != %s (%s)", a, b, again)
		}
	})
}
