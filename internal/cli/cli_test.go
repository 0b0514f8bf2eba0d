package cli

import (
	"flag"
	"testing"

	castencil "castencil"
)

func newSet(t *testing.T) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	return fs
}

// The run flags (-coalesce, -machine, -fault) bind string fields of
// castencil.Spec, as stencilrun declares them, and a spelling is checked when
// the spec resolves. runFlag binds one such flag on a small spec that
// resolves on the real engine.
func runFlag(t *testing.T, name, def string, field func(*castencil.Spec) *string) (*flag.FlagSet, *castencil.Spec) {
	t.Helper()
	fs := newSet(t)
	s := &castencil.Spec{Variant: "base", N: 16, Tile: 8, Steps: 1}
	fs.StringVar(field(s), name, def, "")
	return fs, s
}

// resolve parses args and resolves the spec, folding its run options.
func resolve(t *testing.T, fs *flag.FlagSet, s *castencil.Spec, args ...string) (castencil.RunOptions, *castencil.Resolved, error) {
	t.Helper()
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var o castencil.RunOptions
	r, err := s.Options()
	if err != nil {
		return o, nil, err
	}
	for _, opt := range r.Options {
		opt(&o)
	}
	return o, r, nil
}

func TestCoalesceFlag(t *testing.T) {
	fs, s := runFlag(t, "coalesce", "", func(s *castencil.Spec) *string { return &s.Coalesce })
	if o, _, err := resolve(t, fs, s); err != nil || o.Coalesce != castencil.CoalesceOff {
		t.Fatalf("unset default: got (%v, %v), want off", o.Coalesce, err)
	}
	if o, _, err := resolve(t, fs, s, "-coalesce", "step"); err != nil || o.Coalesce != castencil.CoalesceStep {
		t.Fatalf("got (%v, %v), want step", o.Coalesce, err)
	}
	if _, _, err := resolve(t, fs, s, "-coalesce", "sideways"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestMachineFlag(t *testing.T) {
	fs, s := runFlag(t, "machine", "NaCL", func(s *castencil.Spec) *string { return &s.Machine })
	if _, r, err := resolve(t, fs, s); err != nil || r.Machine.Name != "NaCL" {
		t.Fatalf("default model: %v", err)
	}
	if o, r, err := resolve(t, fs, s, "-machine", "Stampede2"); err != nil || r.Machine.Name != "Stampede2" || o.Machine != r.Machine {
		t.Fatalf("Stampede2 not resolved: %v", err)
	}
	if _, _, err := resolve(t, fs, s, "-machine", "Frontier"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestFaultFlag(t *testing.T) {
	fs, s := runFlag(t, "fault", "", func(s *castencil.Spec) *string { return &s.Fault })
	if o, _, err := resolve(t, fs, s); err != nil || o.Fault != nil {
		t.Fatalf("default plan should be nil: (%+v, %v)", o.Fault, err)
	}
	o, _, err := resolve(t, fs, s, "-fault", "drop=0.01,seed=7")
	if err != nil || o.Fault == nil || o.Fault.Drop != 0.01 || o.Fault.Seed != 7 {
		t.Fatalf("plan = (%+v, %v)", o.Fault, err)
	}
	if _, _, err := resolve(t, fs, s, "-fault", "drop=2"); err == nil {
		t.Fatal("out-of-range probability accepted")
	}
	if o, _, err := resolve(t, fs, s, "-fault", "off"); err != nil {
		t.Fatal(err)
	} else if o.Fault != nil {
		t.Fatal("\"off\" should clear the plan")
	}
}

func TestListenFlag(t *testing.T) {
	fs := newSet(t)
	f := ListenVar(fs, ":8080")
	if f.Addr != ":8080" {
		t.Fatalf("default = %q", f.Addr)
	}
	if err := fs.Parse([]string{"-listen", "127.0.0.1:9000"}); err != nil {
		t.Fatal(err)
	}
	if f.Addr != "127.0.0.1:9000" {
		t.Fatalf("got %q", f.Addr)
	}
	for _, bad := range []string{"no-port", "127.0.0.1", ":notaport", ""} {
		if err := fs.Parse([]string{"-listen", bad}); err == nil {
			t.Errorf("bad address %q accepted", bad)
		}
	}
}

func TestPosIntFlags(t *testing.T) {
	fs := newSet(t)
	mj := MaxJobsVar(fs, 2)
	q := QueueVar(fs, 64)
	if mj.N != 2 || q.N != 64 {
		t.Fatalf("defaults = %d, %d", mj.N, q.N)
	}
	if err := fs.Parse([]string{"-maxjobs", "4", "-queue", "128"}); err != nil {
		t.Fatal(err)
	}
	if mj.N != 4 || q.N != 128 {
		t.Fatalf("got %d, %d", mj.N, q.N)
	}
	for _, bad := range []string{"0", "-1", "two"} {
		if err := fs.Parse([]string{"-maxjobs", bad}); err == nil {
			t.Errorf("bad -maxjobs %q accepted", bad)
		}
	}
}

func TestRanksFlags(t *testing.T) {
	fs := newSet(t)
	rank := RankVar(fs)
	ranks := RanksVar(fs)
	if err := fs.Parse([]string{"-rank", "1", "-ranks", "127.0.0.1:9000,127.0.0.1:9001"}); err != nil {
		t.Fatal(err)
	}
	r, addrs, ok, err := ResolveRanks(rank, ranks)
	if err != nil || !ok {
		t.Fatalf("ResolveRanks: %v ok=%v", err, ok)
	}
	if r != 1 || len(addrs) != 2 || addrs[0] != "127.0.0.1:9000" || addrs[1] != "127.0.0.1:9001" {
		t.Fatalf("resolved rank %d addrs %v", r, addrs)
	}
	for _, bad := range []string{
		"127.0.0.1:9000",                // one rank is not distributed
		"127.0.0.1:9000,no-port",        // member without a port
		"127.0.0.1:9000,,127.0.0.1:901", // empty member
		"",                              // -ranks= explicit empty stays unset, but rank 1 then errors in resolve
	} {
		fs2 := newSet(t)
		ranks2 := RanksVar(fs2)
		if err := fs2.Parse([]string{"-ranks", bad}); bad != "" && err == nil {
			t.Errorf("bad -ranks %q accepted", bad)
		}
		_ = ranks2
	}
	// -rank without -ranks is an error at resolve time.
	fs3 := newSet(t)
	rank3 := RankVar(fs3)
	ranks3 := RanksVar(fs3)
	if err := fs3.Parse([]string{"-rank", "1"}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ResolveRanks(rank3, ranks3); err == nil {
		t.Error("-rank without -ranks accepted")
	}
	// Out-of-range rank.
	fs4 := newSet(t)
	rank4 := RankVar(fs4)
	ranks4 := RanksVar(fs4)
	if err := fs4.Parse([]string{"-rank", "2", "-ranks", "127.0.0.1:9000,127.0.0.1:9001"}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ResolveRanks(rank4, ranks4); err == nil {
		t.Error("out-of-range -rank accepted")
	}
	// Negative rank fails at parse time.
	fs5 := newSet(t)
	RankVar(fs5)
	if err := fs5.Parse([]string{"-rank", "-1"}); err == nil {
		t.Error("negative -rank accepted")
	}
}

func TestBackendsFlag(t *testing.T) {
	fs := newSet(t)
	backends := BackendsVar(fs)
	if err := fs.Parse([]string{"-backends", "127.0.0.1:8421,http://127.0.0.1:8422,https://box:8423/"}); err != nil {
		t.Fatal(err)
	}
	want := []string{"127.0.0.1:8421", "http://127.0.0.1:8422", "https://box:8423/"}
	if len(backends.Addrs) != len(want) {
		t.Fatalf("parsed %d backends, want %d", len(backends.Addrs), len(want))
	}
	for i := range want {
		if backends.Addrs[i] != want[i] {
			t.Errorf("backend[%d] = %q, want %q", i, backends.Addrs[i], want[i])
		}
	}
	for _, bad := range []string{"no-port", "127.0.0.1:8421,,127.0.0.1:8422", "http://nohost"} {
		fs2 := newSet(t)
		BackendsVar(fs2)
		if err := fs2.Parse([]string{"-backends", bad}); err == nil {
			t.Errorf("bad -backends %q accepted", bad)
		}
	}
}

func TestTenantsFlag(t *testing.T) {
	fs := newSet(t)
	tenants := TenantsVar(fs)
	if err := fs.Parse([]string{"-tenants", "prod=4,batch=1"}); err != nil {
		t.Fatal(err)
	}
	if tenants.Weights["prod"] != 4 || tenants.Weights["batch"] != 1 {
		t.Fatalf("weights = %v, want prod=4 batch=1", tenants.Weights)
	}
	for _, bad := range []string{"prod", "prod=", "=4", "prod=0", "prod=-1", "prod=x", "prod=1,prod=2"} {
		fs2 := newSet(t)
		TenantsVar(fs2)
		if err := fs2.Parse([]string{"-tenants", bad}); err == nil {
			t.Errorf("bad -tenants %q accepted", bad)
		}
	}
}

func TestSizeFlag(t *testing.T) {
	cases := map[string]int64{
		"100": 100, "4k": 4 << 10, "64M": 64 << 20, "2g": 2 << 30,
	}
	for in, want := range cases {
		fs := newSet(t)
		size := SizeVar(fs, "cache-bytes", 1, "test")
		if err := fs.Parse([]string{"-cache-bytes", in}); err != nil {
			t.Fatalf("-cache-bytes %q: %v", in, err)
		}
		if size.Bytes != want {
			t.Errorf("-cache-bytes %q = %d, want %d", in, size.Bytes, want)
		}
	}
	for _, bad := range []string{"", "0", "-5", "x", "4t"} {
		fs := newSet(t)
		SizeVar(fs, "cache-bytes", 1, "test")
		if err := fs.Parse([]string{"-cache-bytes", bad}); err == nil {
			t.Errorf("bad -cache-bytes %q accepted", bad)
		}
	}
}
