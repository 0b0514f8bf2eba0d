// Command benchmark is the repository's one fixed benchmark: five
// workloads, the end-to-end metrics a user of the system would see, and a
// traced mode that attributes time to each layer from outside. See
// README.md for the glossary and how to run it.
//
//	go run -C benchmark . -workload jacobi-large            one workload, end to end
//	go run -C benchmark . -workload fleet-mix -trace 1      its traced run and probes
//	go run -C benchmark . -all                              every workload, both modes
//	go run -C benchmark . -aa                               two end-to-end sets, compared
//	go run -C benchmark . -compare base.json cand.json      two result sets, compared
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// setupRuns is how many processes measure a cold start in one run;
// setup_s is their median.
const setupRuns = 5

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: jacobi-large, ca-small-tiles, mesh-base-p2p, sim-paper or fleet-mix")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs: HashInit seeds and the fleet job stream")
		seconds  = flag.Int("seconds", 16, "length of the timed window; a traced run measures for half of it, then probes")
		trace    = flag.Int("trace", 0, "1 = traced run: spans around each layer call, counters and probes")
		all      = flag.Bool("all", false, "run every workload end to end and traced, write a result set to -o")
		aa       = flag.Bool("aa", false, "run two end-to-end sets of every workload, compare them, write results/aa.json")
		compare  = flag.Bool("compare", false, "compare two result-set files given as arguments: base, then candidate")
		out      = flag.String("o", "out/results.json", "where -all writes its result set")
		child    = flag.Bool("child", false, "internal: be the measuring process")
		coldOnly = flag.Bool("coldonly", false, "internal: stop after the cold solve")
	)
	flag.Parse()
	var err error
	switch {
	case *child:
		err = runChild(*workload, *seed, float64(*seconds), *trace == 1, *coldOnly)
	case *compare:
		err = compareFiles(flag.Args())
	case *aa:
		err = runAA(*seed, *seconds)
	case *all:
		err = runAll(*seed, *seconds, *out)
	default:
		err = runOne(*workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func spansPath(workload string) string { return filepath.Join("out", workload+".spans.json") }

// runChild measures one workload in this process and prints a childResult.
func runChild(workload string, seed uint64, seconds float64, trace, coldOnly bool) error {
	var res *childResult
	var err error
	if workload == "fleet-mix" {
		res, err = runFleet(seed, seconds, trace, coldOnly)
	} else {
		res, err = runSolver(workload, seed, seconds, trace, coldOnly)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the last line of a run's stdout: exactly the keys the
// benchmark driver reads.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runResult is one run of one workload: the driver's keys and what the
// result files add.
type runResult struct {
	driverResult
	Workload string         `json:"workload,omitempty"`
	Seed     uint64         `json:"seed,omitempty"`
	Trace    bool           `json:"trace,omitempty"`
	Errors   []string       `json:"errors,omitempty"`
	Info     map[string]any `json:"info,omitempty"`
}

// spawn starts one measuring process and returns its result and the time
// from its start to the end of its cold solve.
func spawn(workload string, seed uint64, seconds int, trace, coldOnly bool) (*childResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-child", "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
	if trace {
		args = append(args, "-trace", "1")
	}
	if coldOnly {
		args = append(args, "-coldonly")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	started := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s: measuring process: %w", workload, err)
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, 0, fmt.Errorf("%s: measuring process output: %w", workload, err)
	}
	return &res, float64(res.ColdEndUnixNano-started.UnixNano()) / 1e9, nil
}

// measure runs one workload once. Each measuring process is its own, so
// peak_rss_mb is the workload's alone and every set-up is a cold one:
// setupRuns-1 processes stop after their cold solve, the last goes on to
// measure, and setup_s is the median over all of them.
func measure(workload string, seed uint64, seconds int, trace bool) (*runResult, error) {
	if !knownWorkload(workload) {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	var setups []float64
	for i := 1; i < setupRuns && !trace; i++ {
		_, setup, err := spawn(workload, seed, seconds, false, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
	}
	res, setup, err := spawn(workload, seed, seconds, trace, false)
	if err != nil {
		return nil, err
	}
	setups = append(setups, setup)

	defs := endToEnd
	if trace {
		defs = perLayer
	} else {
		res.Metrics["setup_s"] = median(setups)
		res.Info["setup_s_samples"] = setups
		res.Info["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	}
	out := &runResult{
		driverResult: driverResult{
			Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
			Metrics: make(map[string]metricValue, len(defs)),
		},
		Workload: workload, Seed: seed, Trace: trace, Errors: res.Errors, Info: res.Info,
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{res.Metrics[d.Name], d.Unit}
	}
	return out, nil
}

// runOne is the driver's entry: one workload, one mode. The last line of
// stdout is the result with exactly the four driver-facing keys; the full
// result goes to out/<workload>.<mode>.json and, readable, to stderr.
func runOne(workload string, seed uint64, seconds int, trace bool) error {
	res, err := measure(workload, seed, seconds, trace)
	if err != nil {
		return err
	}
	mode := "e2e"
	if trace {
		mode = "trace"
	}
	set := resultSet{Host: hostFingerprint(), Seconds: seconds, Runs: []runResult{*res}}
	if err := writeJSON(filepath.Join("out", workload+"."+mode+".json"), set); err != nil {
		return err
	}
	printRun(os.Stderr, res)
	line, err := json.Marshal(res.driverResult)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return res.err()
}

// err is the run's failure, if any operation failed: what makes the
// command exit non-zero.
func (r runResult) err() error {
	if r.Correct {
		return nil
	}
	return fmt.Errorf("%s: %d of %d operations failed: %v", r.Workload, r.Failed, r.Attempted, r.Errors)
}

func printRun(w *os.File, r *runResult) {
	fmt.Fprintf(w, "%s seed=%d trace=%v: attempted=%d failed=%d\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	info, _ := json.Marshal(r.Info) // plain maps of numbers and strings
	fmt.Fprintf(w, "  info: %s\n", info)
}

// resultSet is a file of runs with the host they were measured on.
type resultSet struct {
	Host    fingerprint `json:"host"`
	Seconds int         `json:"seconds"`
	Runs    []runResult `json:"runs"`
}

func (s *resultSet) add(seed uint64, seconds int, trace bool) error {
	for _, w := range workloads {
		res, err := measure(w.Name, seed, seconds, trace)
		if err != nil {
			return err
		}
		printRun(os.Stderr, res)
		s.Runs = append(s.Runs, *res)
	}
	return nil
}

func (s *resultSet) correct() error {
	for _, r := range s.Runs {
		if err := r.err(); err != nil {
			return err
		}
	}
	return nil
}

// runAll measures every workload end to end and traced and writes the set.
func runAll(seed uint64, seconds int, path string) error {
	set := resultSet{Host: hostFingerprint(), Seconds: seconds}
	for _, trace := range []bool{false, true} {
		if err := set.add(seed, seconds, trace); err != nil {
			return err
		}
	}
	if err := writeJSON(path, set); err != nil {
		return err
	}
	return set.correct()
}

// runAA measures two end-to-end sets of the same code and holds them to
// the benchmark's own bounds: a benchmark that cannot tell a commit from
// itself cannot judge a change.
func runAA(seed uint64, seconds int) error {
	sets := [2]resultSet{}
	for i := range sets {
		sets[i] = resultSet{Host: hostFingerprint(), Seconds: seconds}
		if err := sets[i].add(seed, seconds, false); err != nil {
			return err
		}
	}
	rows, bad := compareSets(sets[0], sets[1], true)
	printRows(os.Stdout, rows)
	err := writeJSON(filepath.Join("results", "aa.json"), struct {
		A, B resultSet
		Rows []compareRow
	}{sets[0], sets[1], rows})
	if err != nil {
		return err
	}
	for _, s := range sets {
		if err := s.correct(); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d of %d (workload, metric) pairs differ by more than their bound", bad, len(rows))
	}
	return nil
}

// compareRow is one (workload, end-to-end metric) pair of two result sets.
type compareRow struct {
	Workload  string  `json:"workload"`
	Metric    string  `json:"metric"`
	Unit      string  `json:"unit"`
	Base      float64 `json:"base"`
	Cand      float64 `json:"cand"`
	Worsening float64 `json:"worsening"` // share of base, positive = cand is worse
	Bound     float64 `json:"bound"`
	Regressed bool    `json:"regressed"`
}

// compareSets pairs the end-to-end runs of two sets by workload. With
// symmetric set, a gap in either direction beyond the bound counts (A/A);
// otherwise only a worsening does.
func compareSets(base, cand resultSet, symmetric bool) (rows []compareRow, bad int) {
	byName := map[string]runResult{}
	for _, r := range cand.Runs {
		if !r.Trace {
			byName[r.Workload] = r
		}
	}
	frac := func(r runResult) float64 { return float64(r.Failed) / float64(r.Attempted) }
	for _, b := range base.Runs {
		c, ok := byName[b.Workload]
		if b.Trace || !ok {
			continue
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), failedFrac) {
			bv, cv := b.Metrics[d.Name].Value, c.Metrics[d.Name].Value
			if d.Name == failedFrac.Name {
				bv, cv = frac(b), frac(c)
			}
			row := compareRow{Workload: b.Workload, Metric: d.Name, Unit: d.Unit, Base: bv, Cand: cv,
				Worsening: worsening(d, bv, cv), Bound: d.Bound}
			row.Regressed = regressed(d, bv, cv) || symmetric && regressed(d, cv, bv)
			if row.Regressed {
				bad++
			}
			rows = append(rows, row)
		}
	}
	return rows, bad
}

func printRows(w *os.File, rows []compareRow) {
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %6s\n", "workload", "metric", "base", "cand", "worse by", "bound")
	for _, r := range rows {
		flag := ""
		if r.Regressed {
			flag = "  BEYOND BOUND"
		}
		fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %+8.1f%% %5.0f%%%s\n",
			r.Workload, r.Metric, r.Base, r.Cand, 100*r.Worsening, 100*r.Bound, flag)
	}
}

// compareFiles compares two result-set files, warning when their hosts
// differ, and fails when the candidate is worse than the base by more than
// a bound.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare needs two result-set files: base, then candidate")
	}
	var sets [2]resultSet
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	for _, d := range sets[0].Host.diff(sets[1].Host) {
		fmt.Fprintln(os.Stderr, "warning: the two results were not measured alike:", d)
	}
	rows, bad := compareSets(sets[0], sets[1], false)
	printRows(os.Stdout, rows)
	if bad > 0 {
		return fmt.Errorf("%d of %d (workload, metric) pairs regressed beyond their bound", bad, len(rows))
	}
	return nil
}
