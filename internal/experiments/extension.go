package experiments

import (
	"fmt"
	"math"

	"repro/internal/matmul"
	"repro/internal/model"
	"repro/internal/pasm"
	"repro/internal/stats"
)

// machineModel builds the analytic model from a machine configuration.
func machineModel(cfg pasm.Config) model.Machine {
	return model.Machine{
		DRAMWaitStates: float64(cfg.DRAMWaitStates),
		RefreshPeriod:  float64(cfg.RefreshPeriod),
		RefreshStall:   float64(cfg.RefreshStall),
		BarrierExtra:   float64(cfg.BarrierExtra),
		PEsPerMC:       cfg.PEsPerMC,
	}
}

// CrossoverVsPRow is one PE count of the extension experiment.
type CrossoverVsPRow struct {
	P         int
	Measured  float64 // simulator crossover (multiplies per inner loop); NaN if none was swept
	Predicted float64 // analytic model crossover
	MaxMuls   int     // the largest multiplies count swept
	SIMDAhead bool    // SIMD beat S/MIMD at every swept count
}

// CrossoverVsPResult extends Figure 7 beyond the paper: the SIMD vs
// S/MIMD crossover as a function of PE count at n=64. The analytic
// model (internal/model) predicts a non-obvious shape: SIMD lockstep
// release is per MC *group* of 4 PEs, so its per-multiply worst case
// does not grow past p=4, while the S/MIMD barriers span the whole
// partition and cols = n/p shrinks — so the residual worst-case
// charging S/MIMD pays at barrier granularity grows with p and the
// crossover moves *later*: at p=16 and n=64 the model puts it past the
// generator's limit of matmul.MaxMuls multiplies, so p=16 sweeps on to
// that limit.
type CrossoverVsPResult struct {
	N    int
	Rows []CrossoverVsPRow
	// Obs is the aggregated observability metrics (Options.Observe).
	Obs ObsMetrics
}

// CrossoverVsP runs the sweep and the model side by side; the whole
// (p, muls, mode) grid fans out across the host workers.
func CrossoverVsP(opts Options) (*CrossoverVsPResult, error) {
	const n = 64
	r := newRunner(opts)
	m := machineModel(opts.Config)
	out := &CrossoverVsPResult{N: n}
	muls := []int{1, 4, 8, 12, 16, 20, 26, 32}
	sweeps := []struct {
		p    int
		muls []int
	}{
		{4, muls}, {8, muls},
		{16, append(muls[:len(muls):len(muls)], 48, matmul.MaxMuls)},
	}
	var specs []matmul.Spec
	for _, sw := range sweeps {
		for _, mm := range sw.muls {
			specs = append(specs,
				matmul.Spec{N: n, P: sw.p, Muls: mm, Mode: matmul.SIMD},
				matmul.Spec{N: n, P: sw.p, Muls: mm, Mode: matmul.SMIMD})
		}
	}
	results, err := r.execAll(specs)
	if err != nil {
		return nil, err
	}
	for _, sw := range sweeps {
		var ys, yh []int64
		ahead := true
		for range sw.muls {
			ys = append(ys, results[0].Cycles)
			yh = append(yh, results[1].Cycles)
			ahead = ahead && results[0].Cycles < results[1].Cycles
			results = results[2:]
		}
		out.Rows = append(out.Rows, CrossoverVsPRow{
			P:         sw.p,
			Measured:  stats.Crossover(sw.muls, ys, yh),
			Predicted: m.PredictCrossover(n, sw.p),
			MaxMuls:   sw.muls[len(sw.muls)-1],
			SIMDAhead: ahead,
		})
	}
	out.Obs = r.obs.metrics()
	return out, nil
}

// Render prints measured vs predicted.
func (r *CrossoverVsPResult) Render() string {
	var t table
	t.title(fmt.Sprintf("Extension: SIMD/S-MIMD crossover vs PE count (n=%d)", r.N))
	t.row(fmt.Sprintf("%5s", "p"), fmt.Sprintf("%10s", "measured"), fmt.Sprintf("%10s", "model"))
	for _, row := range r.Rows {
		t.row(fmt.Sprintf("%5d", row.P),
			fmt.Sprintf("%10.1f", row.Measured),
			fmt.Sprintf("%10.1f", row.Predicted))
	}
	t.row("(multiplies per inner loop at which S/MIMD overtakes SIMD; NaN = no")
	t.row(" crossover in the sweep: 1..32, and at p=16 on to 64, the generator's")
	t.row(" limit. Group-local lockstep vs partition-wide barriers pushes the")
	t.row(" crossover later as p grows.)")
	return t.String()
}

// ModelRow is one comparison of the model-validation experiment.
type ModelRow struct {
	Name      string
	Simulated float64
	Predicted float64
	RelErr    float64
}

// ModelResult cross-validates the analytic model of internal/model
// against the simulator: per-multiply costs in each mode and the
// component the paper's equations describe.
type ModelResult struct {
	Rows []ModelRow
	// Obs is the aggregated observability metrics (Options.Observe).
	Obs ObsMetrics
}

// ModelValidation measures per-multiply marginal costs by differencing
// two multiply counts, and compares them with the closed forms.
func ModelValidation(opts Options) (*ModelResult, error) {
	const n, p, m1, m2 = 64, 4, 8, 24
	r := newRunner(opts)
	m := machineModel(opts.Config)
	cols := n / p
	elems := float64(model.Multiplies(n, p)) // inner-loop iterations

	results, err := r.execAll([]matmul.Spec{
		{N: n, P: p, Muls: m1, Mode: matmul.SIMD},
		{N: n, P: p, Muls: m2, Mode: matmul.SIMD},
		{N: n, P: p, Muls: m1, Mode: matmul.SMIMD},
		{N: n, P: p, Muls: m2, Mode: matmul.SMIMD},
	})
	if err != nil {
		return nil, err
	}
	perMul := func(a, b pasm.RunResult) float64 {
		return float64(b.Cycles-a.Cycles) / float64(m2-m1) / elems
	}
	simdMul := perMul(results[0], results[1])
	smimdMul := perMul(results[2], results[3])

	predSIMD := m.SIMDPerMul(p, cols)
	predSMIMD := m.SMIMDPerMul(p, cols)

	out := &ModelResult{}
	add := func(name string, sim, pred float64) {
		out.Rows = append(out.Rows, ModelRow{
			Name: name, Simulated: sim, Predicted: pred,
			RelErr: math.Abs(sim-pred) / sim,
		})
	}
	add("SIMD cycles/multiply", simdMul, predSIMD)
	add("S/MIMD cycles/multiply", smimdMul, predSMIMD)
	add("net decoupling gain/multiply", simdMul-smimdMul, m.NetGainPerMul(p, cols))
	out.Obs = r.obs.metrics()
	return out, nil
}

// Render prints the comparison.
func (r *ModelResult) Render() string {
	var t table
	t.title("Extension: analytic model vs simulator (n=64, p=4)")
	t.row(fmt.Sprintf("%-30s", "quantity"), fmt.Sprintf("%10s", "simulated"),
		fmt.Sprintf("%10s", "model"), fmt.Sprintf("%8s", "rel.err"))
	for _, row := range r.Rows {
		t.row(fmt.Sprintf("%-30s", row.Name),
			fmt.Sprintf("%10.2f", row.Simulated),
			fmt.Sprintf("%10.2f", row.Predicted),
			fmt.Sprintf("%7.1f%%", 100*row.RelErr))
	}
	return t.String()
}

// FaultRow is one fault scenario.
type FaultRow struct {
	Scenario string
	Detail   string
	Cycles   int64 // 0 when the scenario is connection-level only
	OK       bool
}

// FaultResult probes the Extra-Stage Cube's fault tolerance end to
// end, at the fidelity the hardware actually provides:
//
//   - a fault outside the partition's traffic leaves the matrix
//     multiplication bit- and cycle-identical (partition isolation);
//   - with a fault anywhere, every single source/destination
//     connection remains routable (the ESC one-fault guarantee), which
//     is checked exhaustively;
//   - the full shift *permutation* of an active partition saturates
//     its sub-network, so a fault on a used box forces the ESC's
//     two-pass permutation mode — reported honestly rather than
//     simulated, since the static-circuit matmul programs assume
//     single-pass circuits.
type FaultResult struct {
	N, P int
	Rows []FaultRow
	// Obs is the aggregated observability metrics (Options.Observe).
	Obs ObsMetrics
}

// FaultTolerance runs the scenario matrix. The scenarios build on one
// another narratively (baseline, then faults), so this experiment
// intentionally stays serial regardless of Options.Parallelism.
func FaultTolerance(opts Options) (*FaultResult, error) {
	const n, p = 16, 8
	out := &FaultResult{N: n, P: p}
	a := matmul.Identity(n)
	b := matmul.Random(n, opts.Seed)
	prog, l, err := matmul.Build(matmul.Spec{N: n, P: p, Muls: 1, Mode: matmul.MIMD})
	if err != nil {
		return nil, err
	}
	cfg := opts.Config
	if need := l.MemBytes(); cfg.PEMemBytes < need {
		cfg.PEMemBytes = need
	}

	o := newObserver(opts)
	runMatmul := func(name, detail string, stage, box int) error {
		ccfg, rec := o.cell(cfg)
		vm, err := pasm.NewVM(ccfg, p)
		if err != nil {
			return err
		}
		if stage >= 0 {
			if err := vm.FailNetworkBox(stage, box); err != nil {
				return err
			}
		}
		if err := vm.EstablishShift(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := matmul.Load(vm, l, a, b); err != nil {
			return err
		}
		res, err := vm.RunMIMD(prog)
		if err != nil {
			return err
		}
		c, err := matmul.ReadC(vm, l)
		if err != nil {
			return err
		}
		o.done(rec)
		out.Rows = append(out.Rows, FaultRow{
			Scenario: name, Detail: detail, Cycles: res.Cycles, OK: matmul.Equal(c, b),
		})
		return nil
	}

	if err := runMatmul("matmul, fault-free", "baseline", -1, 0); err != nil {
		return nil, err
	}
	// Box (1,7) serves lines 14/15, outside the p=8 partition.
	if err := runMatmul("matmul, fault outside partition", "box (stage 1, box 7) failed", 1, 7); err != nil {
		return nil, err
	}

	// Connection-level guarantee: with a fault on a *used* interior
	// box, every single (src, dst) pair must still route.
	routable, total, err := connectionSurvey(cfg, 2, 0)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, FaultRow{
		Scenario: "every single connection, used box (2,0) failed",
		Detail:   fmt.Sprintf("%d/%d src-dst pairs routable", routable, total),
		OK:       routable == total,
	})

	// Permutation-level: the saturating shift is NOT one-pass routable
	// with that fault; the hardware would fall back to two passes.
	vm, err := pasm.NewVM(cfg, p)
	if err != nil {
		return nil, err
	}
	if err := vm.FailNetworkBox(2, 0); err != nil {
		return nil, err
	}
	shiftErr := vm.EstablishShift()
	out.Rows = append(out.Rows, FaultRow{
		Scenario: "full shift permutation, used box (2,0) failed",
		Detail:   "one-pass unroutable as expected; ESC completes such permutations in two passes",
		OK:       shiftErr != nil,
	})
	out.Obs = o.metrics()
	return out, nil
}

// connectionSurvey counts routable single connections under a fault.
func connectionSurvey(cfg pasm.Config, stage, box int) (routable, total int, err error) {
	vm, err := pasm.NewVM(cfg, cfg.NumPEs)
	if err != nil {
		return 0, 0, err
	}
	if err := vm.FailNetworkBox(stage, box); err != nil {
		return 0, 0, err
	}
	n := cfg.NumPEs
	perm := make([]int, n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			for i := range perm {
				perm[i] = -1
			}
			perm[src] = dst
			total++
			if vm.EstablishPermutation(perm) == nil {
				routable++
			}
		}
	}
	return routable, total, nil
}

// Render prints the scenarios.
func (r *FaultResult) Render() string {
	var t table
	t.title(fmt.Sprintf("Extension: Extra-Stage Cube fault tolerance (matmul MIMD, n=%d, p=%d)", r.N, r.P))
	t.row(fmt.Sprintf("%-48s", "scenario"), fmt.Sprintf("%12s", "cycles"), fmt.Sprintf("%-8s", "result"), "detail")
	for _, row := range r.Rows {
		status := "ok"
		if !row.OK {
			status = "FAILED"
		}
		cycles := "-"
		if row.Cycles > 0 {
			cycles = fmt.Sprintf("%d", row.Cycles)
		}
		t.row(fmt.Sprintf("%-48s", row.Scenario), fmt.Sprintf("%12s", cycles),
			fmt.Sprintf("%-8s", status), row.Detail)
	}
	return t.String()
}

// MixedRow is one multiply count of the mixed-mode experiment.
type MixedRow struct {
	Muls  int
	SIMD  int64
	Mixed int64
	SMIMD int64
}

// MixedResult quantifies the architecture feature the paper proposes
// but does not implement: decoupling ONLY the variable-time multiply
// grain out of the SIMD stream (a broadcast jump into an asynchronous
// burst, rejoining through the SIMD space). The measured outcome is a
// sharp negative that refines the paper's granularity question: the
// burst reuses one multiplier, so its execution-time variation is
// perfectly correlated across the burst — the rejoin pays exactly the
// per-instruction lockstep maximum, and the two mode switches are pure
// overhead. Fine-grained decoupling only pays when the decoupled
// section aggregates many INDEPENDENT variable-time draws, which is
// what S/MIMD's per-rotation granularity (n/p independent multipliers)
// provides.
type MixedResult struct {
	N, P int
	Rows []MixedRow
	// Obs is the aggregated observability metrics (Options.Observe).
	Obs ObsMetrics
}

// MixedMode runs the comparison across the host workers.
func MixedMode(opts Options) (*MixedResult, error) {
	r := newRunner(opts)
	out := &MixedResult{N: 64, P: 4}
	muls := []int{1, 5, 14, 30}
	var specs []matmul.Spec
	for _, m := range muls {
		specs = append(specs,
			matmul.Spec{N: out.N, P: out.P, Muls: m, Mode: matmul.SIMD},
			matmul.Spec{N: out.N, P: out.P, Muls: m, Mode: matmul.Mixed},
			matmul.Spec{N: out.N, P: out.P, Muls: m, Mode: matmul.SMIMD})
	}
	results, err := r.execAll(specs)
	if err != nil {
		return nil, err
	}
	for i, m := range muls {
		out.Rows = append(out.Rows, MixedRow{Muls: m,
			SIMD: results[3*i].Cycles, Mixed: results[3*i+1].Cycles, SMIMD: results[3*i+2].Cycles})
	}
	out.Obs = r.obs.metrics()
	return out, nil
}

// Render prints the comparison.
func (r *MixedResult) Render() string {
	var t table
	t.title(fmt.Sprintf("Extension: fine-grained mixed-mode decoupling (n=%d, p=%d)", r.N, r.P))
	t.row(fmt.Sprintf("%5s", "muls"), fmt.Sprintf("%12s", "SIMD"),
		fmt.Sprintf("%12s", "Mixed"), fmt.Sprintf("%12s", "S/MIMD"),
		fmt.Sprintf("%10s", "Mixed/SIMD"))
	for _, row := range r.Rows {
		t.row(fmt.Sprintf("%5d", row.Muls), cyc(row.SIMD), cyc(row.Mixed), cyc(row.SMIMD),
			fmt.Sprintf("%10.4f", float64(row.Mixed)/float64(row.SIMD)))
	}
	t.row("(Mixed = per-element asynchronous multiply bursts inside the SIMD program.")
	t.row(" It never overtakes SIMD here: one multiplier is reused through the burst,")
	t.row(" so the rejoin pays the full lockstep maximum and the switches are overhead.")
	t.row(" Decoupling pays only when a section aggregates independent variable-time")
	t.row(" draws - the sharpened form of the paper's granularity question.)")
	return t.String()
}
