// Package cli is the shared flag registry for the stencil command-line
// binaries. Each engine-facing flag is defined exactly once here as a
// flag.Value wrapping the canonical parser (runtime.ParsePolicy,
// ptg.ParseCoalesce, machine.ByName, fault.ParsePlan), so every binary
// accepts identical spellings with identical help text, typos fail at
// flag-parse time instead of deep inside a run, and adding a spelling in
// one parser updates every command at once.
package cli

import (
	"flag"
	"fmt"
	"net"
	"strconv"

	"castencil/internal/core"
	"castencil/internal/fault"
	"castencil/internal/machine"
	"castencil/internal/ptg"
	"castencil/internal/runtime"
)

// SchedFlag is the -sched flag: the real engine's injection-queue policy
// resolved through runtime.ParsePolicy. The zero value means "not set",
// which runs FIFO.
type SchedFlag struct {
	// Name is the raw spelling as passed ("" when unset).
	Name string
	// Policy is the resolved policy (FIFO when Name is empty).
	Policy runtime.Policy
}

func (f *SchedFlag) String() string { return f.Name }

// Set parses and validates a policy spelling; "" resets to unset.
func (f *SchedFlag) Set(s string) error {
	if s == "" {
		*f = SchedFlag{}
		return nil
	}
	pol, err := runtime.ParsePolicy(s)
	if err != nil {
		return err
	}
	f.Name, f.Policy = s, pol
	return nil
}

// SchedVar registers -sched on fs with the given default spelling (""
// leaves it unset). A bad default is a programmer error and panics.
func SchedVar(fs *flag.FlagSet, def string) *SchedFlag {
	f := &SchedFlag{}
	if err := f.Set(def); err != nil {
		panic(fmt.Sprintf("cli: bad default -sched %q: %v", def, err))
	}
	fs.Var(f, "sched", "real-engine scheduler policy: "+runtime.PolicyNames)
	return f
}

// ParseSteal is the canonical parser for inter-node work-stealing modes:
// "off" (or ""), "greedy", "gated". Every surface that accepts a steal
// spelling — the -steal flag here, the job-spec "steal" field in
// internal/server, the facade's cluster options — resolves through it, so
// the accepted vocabulary is defined exactly once.
func ParseSteal(s string) (runtime.StealMode, error) {
	switch s {
	case "", "off":
		return runtime.StealOff, nil
	case "greedy":
		return runtime.StealGreedy, nil
	case "gated":
		return runtime.StealGated, nil
	}
	return runtime.StealOff, fmt.Errorf("unknown steal mode %q (want %s)", s, runtime.StealNames)
}

// StealFlag is the -steal flag: an inter-node work-stealing mode resolved
// through ParseSteal. Name keeps the raw spelling ("" when unset) for
// messages.
type StealFlag struct {
	Name string
	Mode runtime.StealMode
}

func (f *StealFlag) String() string { return f.Name }

// Set parses and validates a steal mode; "" resets to unset.
func (f *StealFlag) Set(s string) error {
	if s == "" {
		*f = StealFlag{}
		return nil
	}
	m, err := ParseSteal(s)
	if err != nil {
		return err
	}
	f.Name, f.Mode = s, m
	return nil
}

// StealVar registers -steal on fs with the given default spelling (""
// leaves it unset). A bad default panics.
func StealVar(fs *flag.FlagSet, def string) *StealFlag {
	f := &StealFlag{}
	if err := f.Set(def); err != nil {
		panic(fmt.Sprintf("cli: bad default -steal %q: %v", def, err))
	}
	fs.Var(f, "steal", "inter-node work stealing (distributed runs): "+runtime.StealNames)
	return f
}

// CoalesceFlag is the -coalesce flag: a halo-bundle coalescing mode
// resolved through ptg.ParseCoalesce. Name keeps the raw spelling (""
// when unset).
type CoalesceFlag struct {
	Name string
	Mode ptg.CoalesceMode
}

func (f *CoalesceFlag) String() string { return f.Name }

// Set parses and validates a coalescing mode; "" resets to unset.
func (f *CoalesceFlag) Set(s string) error {
	if s == "" {
		*f = CoalesceFlag{}
		return nil
	}
	m, err := ptg.ParseCoalesce(s)
	if err != nil {
		return err
	}
	f.Name, f.Mode = s, m
	return nil
}

// CoalesceVar registers -coalesce on fs with the given default spelling
// ("" leaves it unset). A bad default panics.
func CoalesceVar(fs *flag.FlagSet, def string) *CoalesceFlag {
	f := &CoalesceFlag{}
	if err := f.Set(def); err != nil {
		panic(fmt.Sprintf("cli: bad default -coalesce %q: %v", def, err))
	}
	fs.Var(f, "coalesce", "halo-bundle coalescing: "+ptg.CoalesceNames)
	return f
}

// TransformFlag is the -transform flag: a graph-transformation mode
// resolved through core.ParseTransform. Name keeps the raw spelling (""
// when unset).
type TransformFlag struct {
	Name string
	Mode core.TransformMode
}

func (f *TransformFlag) String() string { return f.Name }

// Set parses and validates a transform mode; "" resets to unset.
func (f *TransformFlag) Set(s string) error {
	if s == "" {
		*f = TransformFlag{}
		return nil
	}
	m, err := core.ParseTransform(s)
	if err != nil {
		return err
	}
	f.Name, f.Mode = s, m
	return nil
}

// TransformVar registers -transform on fs with the given default spelling
// ("" leaves it unset). A bad default panics.
func TransformVar(fs *flag.FlagSet, def string) *TransformFlag {
	f := &TransformFlag{}
	if err := f.Set(def); err != nil {
		panic(fmt.Sprintf("cli: bad default -transform %q: %v", def, err))
	}
	fs.Var(f, "transform", "graph transformation: "+core.TransformNames+" (split = inner/border overlap)")
	return f
}

// MachineFlag is the -machine flag: a built-in cluster model resolved
// through machine.ByName.
type MachineFlag struct {
	Name  string
	Model *machine.Model
}

func (f *MachineFlag) String() string { return f.Name }

func (f *MachineFlag) Set(s string) error {
	m, err := machine.ByName(s)
	if err != nil {
		return err
	}
	f.Name, f.Model = s, m
	return nil
}

// MachineVar registers -machine on fs with the given default model name.
// A bad default panics.
func MachineVar(fs *flag.FlagSet, def string) *MachineFlag {
	f := &MachineFlag{}
	if err := f.Set(def); err != nil {
		panic(fmt.Sprintf("cli: bad default -machine %q: %v", def, err))
	}
	fs.Var(f, "machine", "machine model: NaCL or Stampede2")
	return f
}

// FaultFlag is the -fault flag: a deterministic fault-injection spec
// parsed through fault.ParsePlan. Plan is nil when unset (or when the
// spec is "off"/"none").
type FaultFlag struct {
	Spec string
	Plan *fault.Plan
}

func (f *FaultFlag) String() string { return f.Spec }

func (f *FaultFlag) Set(s string) error {
	p, err := fault.ParsePlan(s)
	if err != nil {
		return err
	}
	f.Spec, f.Plan = s, p
	return nil
}

// FaultVar registers -fault on fs (default: no fault injection).
func FaultVar(fs *flag.FlagSet) *FaultFlag {
	f := &FaultFlag{}
	fs.Var(f, "fault", "fault-injection spec, e.g. \"drop=0.01,seed=7\"; grammar: "+fault.SpecSyntax)
	return f
}

// ListenFlag is the -listen flag: a TCP listen address validated at
// flag-parse time (net.SplitHostPort rules, port required), so a daemon
// fails before binding rather than at first request.
type ListenFlag struct {
	Addr string
}

func (f *ListenFlag) String() string { return f.Addr }

func (f *ListenFlag) Set(s string) error {
	host, port, err := net.SplitHostPort(s)
	if err != nil {
		return fmt.Errorf("listen address %q: %v", s, err)
	}
	if port == "" {
		return fmt.Errorf("listen address %q has no port", s)
	}
	if _, err := net.LookupPort("tcp", port); err != nil {
		return fmt.Errorf("listen address %q: bad port: %v", s, err)
	}
	_ = host // empty host = all interfaces, valid
	f.Addr = s
	return nil
}

// ListenVar registers -listen on fs with the given default address. A bad
// default panics.
func ListenVar(fs *flag.FlagSet, def string) *ListenFlag {
	f := &ListenFlag{}
	if err := f.Set(def); err != nil {
		panic(fmt.Sprintf("cli: bad default -listen %q: %v", def, err))
	}
	fs.Var(f, "listen", "TCP listen address (host:port; empty host = all interfaces)")
	return f
}

// RanksFlag is the -ranks flag: the static member list of a multi-process
// distributed run — comma-separated host:port addresses, one per rank, the
// identical list passed to every process. Each address is validated with
// the -listen rules at parse time. Empty (the default) means no
// distribution.
type RanksFlag struct {
	Addrs []string
	raw   string
}

func (f *RanksFlag) String() string { return f.raw }

func (f *RanksFlag) Set(s string) error {
	if s == "" {
		*f = RanksFlag{}
		return nil
	}
	var addrs []string
	for start := 0; start <= len(s); {
		end := start
		for end < len(s) && s[end] != ',' {
			end++
		}
		addr := s[start:end]
		var probe ListenFlag
		if err := probe.Set(addr); err != nil {
			return fmt.Errorf("rank %d: %v", len(addrs), err)
		}
		addrs = append(addrs, addr)
		start = end + 1
	}
	if len(addrs) < 2 {
		return fmt.Errorf("-ranks needs at least 2 addresses, got %d", len(addrs))
	}
	f.Addrs, f.raw = addrs, s
	return nil
}

// RanksVar registers -ranks on fs (default: unset, single-process).
func RanksVar(fs *flag.FlagSet) *RanksFlag {
	f := &RanksFlag{}
	fs.Var(f, "ranks", "distributed member list: comma-separated host:port, one per rank (empty = single process)")
	return f
}

// RankFlag is the -rank flag: this process's index into the -ranks list.
// Bounds against the list length are checked by the caller once both flags
// are parsed; here only non-negativity is enforced.
type RankFlag struct {
	N int
}

func (f *RankFlag) String() string { return strconv.Itoa(f.N) }

func (f *RankFlag) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("-rank %q: %v", s, err)
	}
	if n < 0 {
		return fmt.Errorf("-rank must be >= 0, got %d", n)
	}
	f.N = n
	return nil
}

// RankVar registers -rank on fs (default 0).
func RankVar(fs *flag.FlagSet) *RankFlag {
	f := &RankFlag{}
	fs.Var(f, "rank", "this process's rank in the -ranks list")
	return f
}

// ResolveRanks cross-validates the -rank/-ranks pair after parsing: with
// -ranks set it returns (rank, addrs, true) and errors on an out-of-range
// rank; unset returns ok=false (single-process).
func ResolveRanks(rank *RankFlag, ranks *RanksFlag) (int, []string, bool, error) {
	if len(ranks.Addrs) == 0 {
		if rank.N != 0 {
			return 0, nil, false, fmt.Errorf("-rank %d without -ranks", rank.N)
		}
		return 0, nil, false, nil
	}
	if rank.N >= len(ranks.Addrs) {
		return 0, nil, false, fmt.Errorf("-rank %d out of range for %d ranks", rank.N, len(ranks.Addrs))
	}
	return rank.N, ranks.Addrs, true, nil
}

// PosIntFlag is a strictly positive integer flag (daemon sizing knobs:
// -maxjobs, -queue). Zero or negative values fail at parse time.
type PosIntFlag struct {
	name string
	N    int
}

func (f *PosIntFlag) String() string { return strconv.Itoa(f.N) }

func (f *PosIntFlag) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("-%s %q: %v", f.name, s, err)
	}
	if n < 1 {
		return fmt.Errorf("-%s must be >= 1, got %d", f.name, n)
	}
	f.N = n
	return nil
}

// WavefrontVar registers -wavefront: the WF variant's block width (time
// steps per fused wavefront task, ghost depth, exchange period). The
// registry reuses the positive-integer validation of the sizing knobs, so a
// zero or negative width fails at parse time in every binary identically.
func WavefrontVar(fs *flag.FlagSet, def int) *PosIntFlag {
	f := &PosIntFlag{name: "wavefront", N: def}
	fs.Var(f, "wavefront", "WF block width w (steps per fused wavefront task)")
	return f
}

// MaxJobsVar registers -maxjobs: the daemon's executor pool size (jobs
// running concurrently).
func MaxJobsVar(fs *flag.FlagSet, def int) *PosIntFlag {
	f := &PosIntFlag{name: "maxjobs", N: def}
	fs.Var(f, "maxjobs", "jobs executing concurrently (executor pool size)")
	return f
}

// QueueVar registers -queue: the daemon's admission queue bound, past
// which submissions are rejected with backpressure.
func QueueVar(fs *flag.FlagSet, def int) *PosIntFlag {
	f := &PosIntFlag{name: "queue", N: def}
	fs.Var(f, "queue", "admission queue bound (submissions past it get 429)")
	return f
}

// BackendsFlag is the -backends flag of the fleet gateway: the
// comma-separated stencild addresses the gateway shards across. Each entry
// is host:port or a full http(s) URL; bare addresses are validated with
// the -listen rules at parse time. At least one backend is required.
type BackendsFlag struct {
	Addrs []string
	raw   string
}

func (f *BackendsFlag) String() string { return f.raw }

func (f *BackendsFlag) Set(s string) error {
	if s == "" {
		*f = BackendsFlag{}
		return nil
	}
	var addrs []string
	for start := 0; start <= len(s); {
		end := start
		for end < len(s) && s[end] != ',' {
			end++
		}
		addr := s[start:end]
		bare := addr
		if after, ok := cutPrefix(bare, "http://"); ok {
			bare = after
		} else if after, ok := cutPrefix(bare, "https://"); ok {
			bare = after
		}
		for len(bare) > 0 && bare[len(bare)-1] == '/' {
			bare = bare[:len(bare)-1]
		}
		var probe ListenFlag
		if err := probe.Set(bare); err != nil {
			return fmt.Errorf("backend %d: %v", len(addrs), err)
		}
		addrs = append(addrs, addr)
		start = end + 1
	}
	f.Addrs, f.raw = addrs, s
	return nil
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return s, false
}

// BackendsVar registers -backends on fs (no default; the gateway refuses
// to start without at least one).
func BackendsVar(fs *flag.FlagSet) *BackendsFlag {
	f := &BackendsFlag{}
	fs.Var(f, "backends", "stencild backends: comma-separated host:port (or http URLs) the gateway shards across")
	return f
}

// TenantsFlag is the -tenants flag of the fleet gateway: the fair-share
// weight table, "name=weight" pairs comma-separated (e.g.
// "prod=4,batch=1"). Weights are strictly positive integers; tenants not
// listed weigh 1.
type TenantsFlag struct {
	Weights map[string]int
	raw     string
}

func (f *TenantsFlag) String() string { return f.raw }

func (f *TenantsFlag) Set(s string) error {
	if s == "" {
		*f = TenantsFlag{}
		return nil
	}
	w := make(map[string]int)
	for start := 0; start <= len(s); {
		end := start
		for end < len(s) && s[end] != ',' {
			end++
		}
		pair := s[start:end]
		eq := -1
		for i := 0; i < len(pair); i++ {
			if pair[i] == '=' {
				eq = i
				break
			}
		}
		if eq <= 0 || eq == len(pair)-1 {
			return fmt.Errorf("-tenants entry %q: want name=weight", pair)
		}
		name := pair[:eq]
		n, err := strconv.Atoi(pair[eq+1:])
		if err != nil {
			return fmt.Errorf("-tenants entry %q: bad weight: %v", pair, err)
		}
		if n < 1 {
			return fmt.Errorf("-tenants entry %q: weight must be >= 1", pair)
		}
		if _, dup := w[name]; dup {
			return fmt.Errorf("-tenants entry %q: duplicate tenant", pair)
		}
		w[name] = n
		start = end + 1
	}
	f.Weights, f.raw = w, s
	return nil
}

// TenantsVar registers -tenants on fs (default: every tenant weighs 1).
func TenantsVar(fs *flag.FlagSet) *TenantsFlag {
	f := &TenantsFlag{}
	fs.Var(f, "tenants", "fair-share weights: comma-separated name=weight (unlisted tenants weigh 1)")
	return f
}

// SizeFlag is a byte-size flag (-cache-bytes): a positive integer with an
// optional k/m/g suffix (binary units), e.g. "64m". Zero disables the
// bounded resource it sizes only where the command says so; here the
// parser just requires >= 1 byte.
type SizeFlag struct {
	name  string
	Bytes int64
}

func (f *SizeFlag) String() string { return strconv.FormatInt(f.Bytes, 10) }

func (f *SizeFlag) Set(s string) error {
	if s == "" {
		return fmt.Errorf("-%s: empty size", f.name)
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return fmt.Errorf("-%s %q: %v", f.name, s, err)
	}
	if n < 1 {
		return fmt.Errorf("-%s must be >= 1 byte, got %d", f.name, n)
	}
	f.Bytes = n * mult
	return nil
}

// SizeVar registers a byte-size flag with a binary-suffix grammar.
func SizeVar(fs *flag.FlagSet, name string, def int64, usage string) *SizeFlag {
	f := &SizeFlag{name: name, Bytes: def}
	fs.Var(f, name, usage)
	return f
}
