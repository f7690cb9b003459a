package experiments

import (
	"fmt"

	"repro/internal/reduce"
	"repro/internal/smoothing"
	"repro/internal/stats"
)

// WorkloadRow is one (workload, mode) measurement.
type WorkloadRow struct {
	Workload string
	Mode     string
	P        int
	Cycles   int64
	Speedup  float64 // vs the workload's serial run
	NetBytes int64
	Reconfig int64
	Barriers int
}

// WorkloadsResult compares all four program variants on the two
// additional workload domains (image smoothing and recursive-doubling
// all-reduce), verifying every output against the host references.
// The paper's ordering — SIMD fastest at fine-grained variable-time
// work, the decoupled variants close behind, everything superlinear-
// capable — holds in both domains.
type WorkloadsResult struct {
	Rows []WorkloadRow
	// Obs is the aggregated observability metrics (Options.Observe).
	Obs ObsMetrics
}

// Workloads runs the comparison. Every (workload, mode) cell simulates
// an independent machine, so all eight fan out across the host
// workers; speedups against each workload's serial run are computed
// after the join.
func Workloads(opts Options) (*WorkloadsResult, error) {
	cfg := opts.Config
	o := newObserver(opts)

	// Inputs and host references are computed up front and only read by
	// the cells.
	img := smoothing.RandomImage(32, 32, opts.Seed)
	wantImg := smoothing.Reference(img)
	vec := reduce.RandomVector(4096, opts.Seed+1)
	wantSum := reduce.Reference(vec)

	type cell func() (WorkloadRow, error)
	var cells []cell
	for _, mode := range []smoothing.Mode{smoothing.Serial, smoothing.SIMD, smoothing.MIMD, smoothing.SMIMD} {
		mode := mode
		p := 4
		if mode == smoothing.Serial {
			p = 1
		}
		cells = append(cells, func() (WorkloadRow, error) {
			ccfg, rec := o.cell(cfg)
			res, got, err := smoothing.Execute(ccfg, smoothing.Spec{H: 32, W: 32, P: p, Mode: mode}, img)
			if err != nil {
				return WorkloadRow{}, fmt.Errorf("experiments: smoothing %s: %w", mode, err)
			}
			if !smoothing.Equal(got, wantImg) {
				return WorkloadRow{}, fmt.Errorf("experiments: smoothing %s produced a wrong image", mode)
			}
			o.done(rec)
			return WorkloadRow{
				Workload: "smoothing 32x32", Mode: mode.String(), P: p,
				Cycles:   res.Cycles,
				NetBytes: res.NetTransfers, Reconfig: res.NetReconfigs,
				Barriers: res.BarrierRounds,
			}, nil
		})
	}
	for _, mode := range []reduce.Mode{reduce.Serial, reduce.SIMD, reduce.MIMD, reduce.SMIMD} {
		mode := mode
		p := 8
		if mode == reduce.Serial {
			p = 1
		}
		cells = append(cells, func() (WorkloadRow, error) {
			ccfg, rec := o.cell(cfg)
			res, sums, err := reduce.Execute(ccfg, reduce.Spec{N: 4096, P: p, Mode: mode}, vec)
			if err != nil {
				return WorkloadRow{}, fmt.Errorf("experiments: reduce %s: %w", mode, err)
			}
			for i, s := range sums {
				if s != wantSum {
					return WorkloadRow{}, fmt.Errorf("experiments: reduce %s: PE %d sum %d != %d", mode, i, s, wantSum)
				}
			}
			o.done(rec)
			return WorkloadRow{
				Workload: "reduce n=4096", Mode: mode.String(), P: p,
				Cycles:   res.Cycles,
				NetBytes: res.NetTransfers, Reconfig: res.NetReconfigs,
				Barriers: res.BarrierRounds,
			}, nil
		})
	}

	rows := make([]WorkloadRow, len(cells))
	err := forEachCell(opts.workers(), len(cells), func(i int) error {
		row, err := cells[i]()
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Post-pass: speedups vs each workload's own serial run (the first
	// row of each group of four).
	serial := map[string]int64{}
	for _, row := range rows {
		if _, ok := serial[row.Workload]; !ok {
			serial[row.Workload] = row.Cycles // serial is listed first
		}
	}
	for i := range rows {
		rows[i].Speedup = stats.Speedup(serial[rows[i].Workload], rows[i].Cycles)
	}
	return &WorkloadsResult{Rows: rows, Obs: o.metrics()}, nil
}

// Render prints the comparison.
func (r *WorkloadsResult) Render() string {
	var t table
	t.title("Extension: additional workload domains (all outputs host-verified)")
	t.row(fmt.Sprintf("%-16s", "workload"), fmt.Sprintf("%-8s", "mode"),
		fmt.Sprintf("%3s", "p"), fmt.Sprintf("%10s", "cycles"),
		fmt.Sprintf("%8s", "speedup"), fmt.Sprintf("%9s", "netbytes"),
		fmt.Sprintf("%9s", "reconfigs"), fmt.Sprintf("%8s", "barriers"))
	for _, row := range r.Rows {
		t.row(fmt.Sprintf("%-16s", row.Workload), fmt.Sprintf("%-8s", row.Mode),
			fmt.Sprintf("%3d", row.P), fmt.Sprintf("%10d", row.Cycles),
			fmt.Sprintf("%8.2f", row.Speedup), fmt.Sprintf("%9d", row.NetBytes),
			fmt.Sprintf("%9d", row.Reconfig), fmt.Sprintf("%8d", row.Barriers))
	}
	return t.String()
}
