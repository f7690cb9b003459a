package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/matmul"
)

func TestModelValidationErrorsSmall(t *testing.T) {
	res, err := ModelValidation(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		limit := 0.02
		if strings.Contains(row.Name, "gain") {
			limit = 0.15 // a small difference of large numbers
		}
		if math.IsNaN(row.RelErr) || row.RelErr > limit {
			t.Errorf("%s: rel. error %.3f exceeds %.2f (sim %.2f, model %.2f)",
				row.Name, row.RelErr, limit, row.Simulated, row.Predicted)
		}
	}
	if !strings.Contains(res.Render(), "cycles/multiply") {
		t.Error("render missing rows")
	}
}

func TestFaultToleranceScenarios(t *testing.T) {
	res, err := FaultTolerance(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.OK {
			t.Errorf("scenario %q failed: %s", row.Scenario, row.Detail)
		}
	}
	// Partition isolation: fault outside the partition leaves the run
	// cycle-identical.
	if res.Rows[0].Cycles != res.Rows[1].Cycles {
		t.Errorf("out-of-partition fault changed timing: %d vs %d",
			res.Rows[0].Cycles, res.Rows[1].Cycles)
	}
	out := res.Render()
	if !strings.Contains(out, "256/256") {
		t.Errorf("connection survey missing:\n%s", out)
	}
}

// TestCrossoverVsPShape is the slowest extension (n=64 sweeps across
// three partition sizes); it validates the headline shape only.
func TestCrossoverVsPShape(t *testing.T) {
	if testing.Short() {
		t.Skip("n=64 sweep; run without -short")
	}
	res, err := CrossoverVsP(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	byP := map[int]CrossoverVsPRow{}
	for _, row := range res.Rows {
		byP[row.P] = row
	}
	// p=4: both near 13-14.
	if r := byP[4]; math.Abs(r.Measured-r.Predicted) > 3 || r.Measured < 10 || r.Measured > 17 {
		t.Errorf("p=4: measured %.1f, model %.1f", r.Measured, r.Predicted)
	}
	// p=8: later than p=4, model within a few multiplies.
	if r := byP[8]; !(r.Measured > byP[4].Measured) || math.Abs(r.Measured-r.Predicted) > 5 {
		t.Errorf("p=8: measured %.1f, model %.1f", r.Measured, r.Predicted)
	}
	// p=16: later still, or no crossover at all up to the generator's
	// limit; the model puts it past that limit.
	if r := byP[16]; r.MaxMuls != matmul.MaxMuls ||
		!(r.Measured > byP[8].Measured || r.SIMDAhead) {
		t.Errorf("p=16: measured %.1f, swept to %d, SIMD ahead throughout: %v", r.Measured, r.MaxMuls, r.SIMDAhead)
	}
	if out := res.Render(); !strings.Contains(out, "crossover vs PE count") {
		t.Errorf("render missing title:\n%s", out)
	}
}

func TestWorkloadsComparison(t *testing.T) {
	res, err := Workloads(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(res.Rows))
	}
	byKey := map[string]WorkloadRow{}
	for _, row := range res.Rows {
		byKey[row.Workload+"/"+row.Mode] = row
	}
	for _, wl := range []string{"smoothing 32x32", "reduce n=4096"} {
		sisd := byKey[wl+"/SISD"]
		simd := byKey[wl+"/SIMD"]
		mimd := byKey[wl+"/MIMD"]
		if simd.Cycles >= sisd.Cycles || mimd.Cycles >= sisd.Cycles {
			t.Errorf("%s: parallel not faster than serial", wl)
		}
		if simd.Cycles >= mimd.Cycles {
			t.Errorf("%s: SIMD (%d) not faster than MIMD (%d)", wl, simd.Cycles, mimd.Cycles)
		}
	}
	if !strings.Contains(res.Render(), "workload") {
		t.Error("render missing header")
	}
}

func TestMixedModeExperiment(t *testing.T) {
	res, err := MixedMode(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	prevRatio := 10.0
	for _, row := range res.Rows {
		if row.Mixed <= row.SIMD {
			t.Errorf("muls=%d: Mixed (%d) beat SIMD (%d): correlated bursts should not pay",
				row.Muls, row.Mixed, row.SIMD)
		}
		ratio := float64(row.Mixed) / float64(row.SIMD)
		if ratio >= prevRatio {
			t.Errorf("muls=%d: Mixed/SIMD ratio %.4f did not shrink (overhead should amortize)", row.Muls, ratio)
		}
		prevRatio = ratio
	}
	// S/MIMD crosses SIMD by 30 multiplies; Mixed does not.
	last := res.Rows[len(res.Rows)-1]
	if last.SMIMD >= last.SIMD {
		t.Errorf("S/MIMD (%d) should beat SIMD (%d) at %d multiplies", last.SMIMD, last.SIMD, last.Muls)
	}
	if !strings.Contains(res.Render(), "granularity") {
		t.Error("render missing commentary")
	}
}
