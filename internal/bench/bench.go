// Package bench regenerates the paper: one runner per table and figure of
// its evaluation (section VI) plus the section-VII studies (future,
// ninepoint, autoplan, weak), each returning a structured Report that prints
// as aligned text. cmd/stencilbench drives it; bench_test.go at the
// repository root wraps each runner in a testing.B benchmark. Measuring this
// implementation itself is not done here: that is benchmark/ (BENCHMARK.json).
package bench

import (
	"fmt"
	"io"
	"strings"

	"castencil/internal/machine"
)

// Report is the regenerated form of one paper table/figure.
type Report struct {
	ID    string // "table1", "fig5", ...
	Title string
	// Paper summarizes what the original shows, for side-by-side reading.
	Paper  string
	Tables []Table
	Notes  []string
}

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteText renders the report with aligned columns.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(w, "paper: %s\n", r.Paper)
	}
	for i := range r.Tables {
		t := &r.Tables[i]
		fmt.Fprintln(w)
		if t.Title != "" {
			fmt.Fprintf(w, "-- %s --\n", t.Title)
		}
		widths := make([]int, len(t.Columns))
		for i, c := range t.Columns {
			widths[i] = len(c)
		}
		for _, row := range t.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		line := func(cells []string) {
			parts := make([]string, len(cells))
			for i, c := range cells {
				if i < len(widths) {
					parts[i] = fmt.Sprintf("%-*s", widths[i], c)
				} else {
					parts[i] = c
				}
			}
			fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		}
		line(t.Columns)
		for _, row := range t.Rows {
			line(row)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Workload is one machine's problem geometry, following the paper's setup
// (section VI): NaCL runs 23040 (tiles of 288), Stampede2 runs 55296 (tiles
// of 864); the single-node tile-size sweeps use 20000 and 27000.
type Workload struct {
	Machine *machine.Model
	N       int // strong-scaling problem size
	Tile    int
	SweepN  int // single-node tile-sweep problem size (Fig. 6)
}

// Params configures all experiment runners.
type Params struct {
	Workloads []Workload
	Steps     int   // iteration count (paper: 100)
	StepSize  int   // CA step size (paper: 15)
	Nodes     []int // strong-scaling node counts (paper: 4, 16, 64; square grids)
	Ratios    []float64
	StepSizes []int // Fig. 9 sweep (paper: 5, 15, 25, 40)
	TileSweep []int // Fig. 6 tile sizes (0 = per-machine defaults)
}

// PaperParams returns the paper's exact experimental configuration.
func PaperParams() Params {
	return Params{
		Workloads: []Workload{
			{Machine: machine.NaCL(), N: 23040, Tile: 288, SweepN: 20000},
			{Machine: machine.Stampede2(), N: 55296, Tile: 864, SweepN: 27000},
		},
		Steps:     100,
		StepSize:  15,
		Nodes:     []int{4, 16, 64},
		Ratios:    []float64{0.2, 0.4, 0.6, 0.8},
		StepSizes: []int{5, 15, 25, 40},
	}
}

// QuickParams returns a proportionally shrunk configuration (same tile
// sizes, quarter-scale grids, 10 iterations, up to 16 nodes) for tests and
// CI-speed benchmark runs. The qualitative shapes survive the shrink.
func QuickParams() Params {
	return Params{
		Workloads: []Workload{
			{Machine: machine.NaCL(), N: 23040 / 4, Tile: 288, SweepN: 5000},
			{Machine: machine.Stampede2(), N: 55296 / 4, Tile: 864, SweepN: 6912},
		},
		Steps:     10,
		StepSize:  5,
		Nodes:     []int{4, 16},
		Ratios:    []float64{0.2, 0.4, 0.6, 0.8},
		StepSizes: []int{2, 5, 8},
	}
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func itoa(v int) string    { return fmt.Sprintf("%d", v) }
func pct(v float64) string { return fmt.Sprintf("%+.0f%%", 100*(v-1)) }
