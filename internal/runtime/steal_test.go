package runtime

import "testing"

// FuzzParseSteal checks the steal-mode parser never panics and that every
// accepted spelling's canonical String re-parses to the same mode.
func FuzzParseSteal(f *testing.F) {
	for _, s := range []string{"", "off", "greedy", "gated", "Greedy", "gated "} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		m, err := ParseSteal(name)
		if err != nil {
			return
		}
		if back, err := ParseSteal(m.String()); err != nil || back != m {
			t.Fatalf("ParseSteal(%q) = %v, but its String %q re-parses to %v, %v", name, m, m.String(), back, err)
		}
	})
}
