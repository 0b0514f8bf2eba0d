package bench

import (
	"fmt"
	"io"
)

// ExpOpts carries per-invocation presentation knobs that are not part of
// Params: they change what an experiment prints, not what it measures.
type ExpOpts struct {
	// Host asks table1 to run a real STREAM benchmark on this host and
	// print it alongside the calibrated models.
	Host bool
	// GanttWidth, when positive, makes fig10 print text Gantt charts of
	// that width after its table.
	GanttWidth int
}

// Experiment is one registered stencilbench experiment. The registry is the
// single source of truth for the -exp flag: help text, validation, and the
// "all" execution order all derive from it.
type Experiment struct {
	ID    string
	Title string
	Run   func(p Params, o ExpOpts, w io.Writer) error
}

// writeReport writes a (report, error) pair, the shape most runners return.
func writeReport(r *Report, err error, w io.Writer) error {
	if err != nil {
		return err
	}
	r.WriteText(w)
	return nil
}

var experiments = []Experiment{
	{"table1", "machine models vs STREAM/NIC measurements (Table I)",
		func(p Params, o ExpOpts, w io.Writer) error { TableI(p, o.Host).WriteText(w); return nil }},
	{"fig5", "single-node kernel performance (Fig. 5)",
		func(p Params, o ExpOpts, w io.Writer) error { Fig5(p).WriteText(w); return nil }},
	{"roofline", "roofline positioning of the stencil kernel",
		func(p Params, o ExpOpts, w io.Writer) error { Roofline(p).WriteText(w); return nil }},
	{"fig6", "single-node tile-size sweep (Fig. 6)",
		func(p Params, o ExpOpts, w io.Writer) error { r, err := Fig6(p); return writeReport(r, err, w) }},
	{"fig7", "strong scaling, base vs CA (Fig. 7)",
		func(p Params, o ExpOpts, w io.Writer) error { r, err := Fig7(p); return writeReport(r, err, w) }},
	{"fig8", "kernel-ratio sweep (Fig. 8)",
		func(p Params, o ExpOpts, w io.Writer) error { r, err := Fig8(p); return writeReport(r, err, w) }},
	{"fig9", "CA step-size sweep (Fig. 9)",
		func(p Params, o ExpOpts, w io.Writer) error { r, err := Fig9(p); return writeReport(r, err, w) }},
	{"fig10", "execution traces and idle-time accounting (Fig. 10)",
		func(p Params, o ExpOpts, w io.Writer) error {
			width := o.GanttWidth
			if width <= 0 {
				width = 100
			}
			r, results, err := Fig10(p, width)
			if err != nil {
				return err
			}
			r.WriteText(w)
			if o.GanttWidth > 0 {
				for _, res := range results {
					fmt.Fprintf(w, "-- %s trace, node %d --\n%s\n", res.Variant, res.TraceNode, res.Gantt)
				}
			}
			return nil
		}},
	{"headline", "headline comparison across machines",
		func(p Params, o ExpOpts, w io.Writer) error { r, err := Headline(p); return writeReport(r, err, w) }},
	{"future", "exascale projection: faster memory, same network (§VII)",
		func(p Params, o ExpOpts, w io.Writer) error { r, err := Future(p); return writeReport(r, err, w) }},
	{"ninepoint", "5-point vs 9-point arithmetic-intensity ablation (§VII)",
		func(p Params, o ExpOpts, w io.Writer) error { r, err := NinePoint(p); return writeReport(r, err, w) }},
	{"autoplan", "automatic kernel-family planning (§VII future work)",
		func(p Params, o ExpOpts, w io.Writer) error {
			r, err := AutoPlanReport(p)
			return writeReport(r, err, w)
		}},
	{"weak", "weak scaling with constant per-node work",
		func(p Params, o ExpOpts, w io.Writer) error { r, err := WeakScaling(p); return writeReport(r, err, w) }},
}

// Experiments returns the registered experiments in "-exp all" execution
// order.
func Experiments() []Experiment { return experiments }

// ExperimentIDs returns "all" followed by every registered experiment ID,
// in order — the valid values of the -exp flag.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(experiments)+1)
	ids = append(ids, "all")
	for _, e := range experiments {
		ids = append(ids, e.ID)
	}
	return ids
}
