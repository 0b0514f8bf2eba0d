package bench

import (
	"strconv"
	"strings"
	"testing"

	"castencil/internal/machine"
)

func TestScaleBandwidth(t *testing.T) {
	m := machine.NaCL()
	s := ScaleBandwidth(m, 2)
	if s.StreamNode.Copy != 2*m.StreamNode.Copy {
		t.Error("node bandwidth not scaled")
	}
	if s.Net != m.Net {
		t.Error("network must stay fixed")
	}
	if !strings.Contains(s.Name, "x2.0") {
		t.Errorf("name = %q", s.Name)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFutureShowsCAAdvantage(t *testing.T) {
	p := quick()
	p.Nodes = []int{16}
	p.Steps = 10
	p.StepSize = 5
	p.Workloads[0].N = 5760 // 20x20 tiles: keep some interior slack per node
	r, err := Future(p)
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Tables[0].Rows
	if len(rows) != 4 { // 4 bandwidth factors x 1 node count
		t.Fatalf("rows = %d", len(rows))
	}
	gain := func(i int) float64 {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(rows[i][4], "+"), "%"), 64)
		return v
	}
	// The CA advantage must grow monotonically with the memory-bandwidth
	// factor and be a clear win once memory is 6x faster (the section VII
	// forecast).
	if gain(3) <= gain(0) {
		t.Errorf("gain must grow with bandwidth: x1 %v%% vs x6 %v%%", gain(0), gain(3))
	}
	if g := gain(3); g < 15 {
		t.Errorf("x6 gain = %v%%, want a clear CA win", g)
	}
}

func TestNinePointReport(t *testing.T) {
	p := quick()
	p.Nodes = []int{16}
	p.Steps = 10
	p.StepSize = 5
	p.Workloads[0].N = 5760
	r, err := NinePoint(p)
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Tables[0].Rows
	if len(rows) != 2 { // 1 node count x {5pt, 9pt}
		t.Fatalf("rows = %d", len(rows))
	}
	gf := func(i, j int) float64 {
		v, _ := strconv.ParseFloat(rows[i][j], 64)
		return v
	}
	// The 9-point CA run must exceed the 5-point CA run (17 flops per
	// update over the same memory traffic), and the CA advantage must be
	// at least as large for 9-point: base pays per-step corner messages
	// that CA's phase bundling amortizes.
	if gf(1, 3) <= gf(0, 3) {
		t.Errorf("9-point CA %v GF should exceed 5-point CA %v GF", gf(1, 3), gf(0, 3))
	}
	if gf(1, 3)/gf(1, 2) < gf(0, 3)/gf(0, 2) {
		t.Errorf("9-point CA gain should be >= 5-point gain")
	}
}

func TestAutoPlanReport(t *testing.T) {
	p := quick()
	r, err := AutoPlanReport(p)
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Tables[0].Rows
	if len(rows) != 3 { // ratios {1} + quick's two
		t.Fatalf("rows = %d", len(rows))
	}
	// At ratio 1 the plan must not report a large gain over base.
	if !strings.HasPrefix(rows[0][5], "+0") && !strings.HasPrefix(rows[0][5], "-") && !strings.HasPrefix(rows[0][5], "+1%") && !strings.HasPrefix(rows[0][5], "+2%") {
		t.Errorf("ratio-1 plan gain = %s, want ~0", rows[0][5])
	}
}

func TestWeakScaling(t *testing.T) {
	p := quick()
	p.Nodes = []int{4}
	r, err := WeakScaling(p)
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Efficiency column must be 1.00 at one node and stay positive and
	// bounded at 4 nodes.
	if rows[0][4] != "1.00" {
		t.Errorf("1-node base efficiency = %s", rows[0][4])
	}
	eff, _ := strconv.ParseFloat(rows[1][4], 64)
	if eff <= 0.3 || eff > 1.2 {
		t.Errorf("4-node base efficiency = %v", eff)
	}
}
