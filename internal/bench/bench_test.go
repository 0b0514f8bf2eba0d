package bench

import (
	"strconv"
	"strings"
	"testing"
)

// quick returns a very small parameter set for unit tests.
func quick() Params {
	p := QuickParams()
	p.Steps = 6
	p.StepSize = 3
	p.Nodes = []int{4}
	p.Ratios = []float64{0.2, 0.8}
	p.StepSizes = []int{2, 3}
	p.Workloads = p.Workloads[:1]
	p.Workloads[0].N = 2880 // 10x10 tiles of 288
	p.Workloads[0].SweepN = 2000
	p.TileSweep = []int{200, 288, 500}
	return p
}

func render(t *testing.T, r *Report) string {
	t.Helper()
	var sb strings.Builder
	r.WriteText(&sb)
	return sb.String()
}

func TestTableI(t *testing.T) {
	r := TableI(quick(), false)
	out := render(t, r)
	if !strings.Contains(out, "40091.3") {
		t.Errorf("Table I must carry the paper's NaCL node COPY:\n%s", out)
	}
	if len(r.Tables[0].Rows) != 2 {
		t.Errorf("one machine -> 2 rows, got %d", len(r.Tables[0].Rows))
	}
}

func TestTableIWithHost(t *testing.T) {
	if testing.Short() {
		t.Skip("host STREAM is slow")
	}
	r := TableI(quick(), true)
	if len(r.Tables[0].Rows) != 4 {
		t.Errorf("host rows missing: %d", len(r.Tables[0].Rows))
	}
}

func TestFig5(t *testing.T) {
	r := Fig5(quick())
	tab := r.Tables[0]
	if len(tab.Rows) < 10 {
		t.Fatalf("sweep too short: %d rows", len(tab.Rows))
	}
	first, _ := strconv.ParseFloat(tab.Rows[0][1], 64)
	last, _ := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][1], 64)
	if first >= last || last < 60 {
		t.Errorf("efficiency must ramp up to >60%%: %v -> %v", first, last)
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	gf := func(i int) float64 {
		v, _ := strconv.ParseFloat(rows[i][1], 64)
		return v
	}
	// Sweet spot at 288 must beat the out-of-cache 500 tile.
	if gf(1) <= gf(2) {
		t.Errorf("tile 288 (%v GF) must beat tile 500 (%v GF)", gf(1), gf(2))
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Tables[0].Rows
	if len(rows) != 2 { // nodes 1 and 4
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(i, j int) float64 {
		v, _ := strconv.ParseFloat(rows[i][j], 64)
		return v
	}
	// Single-node: PaRSEC ~2x PETSc.
	if ratio := get(0, 2) / get(0, 1); ratio < 1.6 || ratio > 2.6 {
		t.Errorf("PaRSEC/PETSc single node = %.2f, want ~2", ratio)
	}
	// Strong scaling: base speedup at 4 nodes in (2.5, 4.2].
	if sp := get(1, 5); sp < 2.5 || sp > 4.3 {
		t.Errorf("4-node base speedup = %.2f", sp)
	}
	// Base and CA nearly indistinguishable with the original kernel.
	if rel := get(1, 3) / get(1, 2); rel < 0.93 || rel > 1.07 {
		t.Errorf("base vs CA with original kernel differ: %.2f", rel)
	}
}

func TestFig8RunsAndHasReferenceRow(t *testing.T) {
	r, err := Fig8(quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Tables[0].Rows
	if len(rows) != 3 { // 2 ratios + reference
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[2][1] != "1.0(orig)" {
		t.Errorf("missing original-kernel reference row: %v", rows[2])
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Fig9(quick())
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	if len(tab.Columns) != 2+2 { // ratio, base, 2 step sizes
		t.Fatalf("columns = %v", tab.Columns)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig10TraceAnalysis(t *testing.T) {
	p := quick()
	p.Nodes = []int{4}
	r, results, err := Fig10(p, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, res := range results {
		if res.Stats.Tasks == 0 {
			t.Errorf("%v: empty trace", res.Variant)
		}
		if res.Stats.Occupancy <= 0 || res.Stats.Occupancy > 1.01 {
			t.Errorf("%v: occupancy %v", res.Variant, res.Stats.Occupancy)
		}
		if !strings.Contains(res.Gantt, "core") {
			t.Errorf("%v: gantt missing", res.Variant)
		}
	}
	// CA phase-start boundary kernels carry the deep halo copies (the
	// paper's 153ms-vs-136ms observation): the heaviest CA boundary task
	// must exceed the heaviest base boundary task.
	maxBoundary := func(r Fig10Result) (m int64) {
		for _, e := range r.Trace.Node(r.TraceNode) {
			if e.Kind.String() == "boundary" && int64(e.Duration()) > m {
				m = int64(e.Duration())
			}
		}
		return m
	}
	if caMax, baseMax := maxBoundary(results[1]), maxBoundary(results[0]); caMax <= baseMax {
		t.Errorf("heaviest CA boundary task (%d) should exceed base (%d)", caMax, baseMax)
	}
	if len(r.Tables[0].Rows) != 2 {
		t.Errorf("report rows = %d", len(r.Tables[0].Rows))
	}
}

func TestRoofline(t *testing.T) {
	r := Roofline(PaperParams())
	out := render(t, r)
	if !strings.Contains(out, "NaCL") || !strings.Contains(out, "Stampede2") {
		t.Error("roofline must cover both machines")
	}
}

func TestHeadline(t *testing.T) {
	p := quick()
	r, err := Headline(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables[0].Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Tables[0].Rows))
	}
	out := render(t, r)
	if !strings.Contains(out, "NaCL") {
		t.Errorf("headline output:\n%s", out)
	}
}

func TestSquareGrid(t *testing.T) {
	if _, err := squareGrid(5); err == nil {
		t.Error("5 nodes must fail")
	}
	if pg, err := squareGrid(64); err != nil || pg != 8 {
		t.Errorf("squareGrid(64) = %d, %v", pg, err)
	}
}

func TestWriteTextAlignment(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Tables: []Table{{
		Columns: []string{"A", "LongColumn"},
		Rows:    [][]string{{"aaaa", "b"}},
	}}}
	out := render(t, r)
	lines := strings.Split(out, "\n")
	var hdr, row string
	for i, l := range lines {
		if strings.HasPrefix(l, "A") {
			hdr, row = l, lines[i+1]
		}
	}
	if strings.Index(hdr, "LongColumn") != strings.Index(row, "b") {
		t.Errorf("columns misaligned:\n%q\n%q", hdr, row)
	}
}

func TestPaperParamsComplete(t *testing.T) {
	p := PaperParams()
	if len(p.Workloads) != 2 || p.Steps != 100 || p.StepSize != 15 {
		t.Errorf("paper params wrong: %+v", p)
	}
	if p.Workloads[0].N != 23040 || p.Workloads[1].N != 55296 {
		t.Errorf("paper problem sizes wrong")
	}
	for _, n := range p.Nodes {
		if _, err := squareGrid(n); err != nil {
			t.Errorf("node count %d not square", n)
		}
	}
}

// TestRegistryIsPaperReproductions pins the -exp list to the paper's own
// tables, figures and section-VII studies, so a later cleanup cannot
// silently drop one (and nothing per-PR creeps back in).
func TestRegistryIsPaperReproductions(t *testing.T) {
	want := "all table1 fig5 roofline fig6 fig7 fig8 fig9 fig10 headline future ninepoint autoplan weak"
	if got := strings.Join(ExperimentIDs(), " "); got != want {
		t.Errorf("experiment ids:\n got %s\nwant %s", got, want)
	}
}
