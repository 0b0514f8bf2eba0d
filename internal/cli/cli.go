// Package cli is the shared registry of deployment flags for the stencil
// command-line binaries: listen addresses, the rank mesh, daemon sizing,
// gateway backends, tenants and byte sizes. Each flag validates at parse
// time, so a bad deployment fails before it binds or connects. Run knobs
// are not here: they are castencil.Spec fields, each resolved by its one
// canonical parser.
package cli

import (
	"flag"
	"fmt"
	"net"
	"strconv"
)

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
