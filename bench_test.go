// Benchmarks regenerating the paper's tables and figures, one
// testing.B benchmark per table/figure, plus ablation benchmarks for
// the design choices DESIGN.md calls out. All heavy work is simulated
// machine time; the wall-clock numbers measure the simulator, and the
// custom metrics (reported via b.ReportMetric) carry the reproduced
// result:
//
//	simMcycles    simulated execution time, millions of 8 MHz cycles
//	mips          simulated raw instruction rate (Table 1)
//	efficiency    T_SISD / (p * T_parallel)   (Figures 11/12)
//	crossmuls     SIMD vs S/MIMD crossover multiply count (Figure 7)
//
// Run: go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/m68k"
	"repro/internal/matmul"
	"repro/internal/pasm"
	"repro/internal/reduce"
	"repro/internal/smoothing"
	"repro/internal/stats"
)

// benchExec runs one spec and reports its simulated cycles.
func benchExec(b *testing.B, cfg pasm.Config, spec matmul.Spec) pasm.RunResult {
	b.Helper()
	a := matmul.Identity(spec.N)
	bm := matmul.Random(spec.N, uint32(spec.N)+77)
	var last pasm.RunResult
	for i := 0; i < b.N; i++ {
		res, c, err := matmul.Execute(cfg, spec, a, bm)
		if err != nil {
			b.Fatal(err)
		}
		if !matmul.Equal(c, bm) {
			b.Fatalf("%s: wrong product", spec.Mode)
		}
		last = res
	}
	b.ReportMetric(float64(last.Cycles)/1e6, "simMcycles")
	return last
}

// BenchmarkTable1RawMIPS regenerates Table 1: raw MIPS in SIMD vs MIMD
// mode for register add and move instructions.
func BenchmarkTable1RawMIPS(b *testing.B) {
	opts := experiments.DefaultOptions()
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(opts)
		if err != nil {
			b.Fatal(err)
		}
		rows = res.Rows
	}
	for _, row := range rows {
		b.Run(row.Instruction+"/"+row.Mode, func(sb *testing.B) {
			for i := 0; i < sb.N; i++ {
				_ = row
			}
			sb.ReportMetric(row.MIPS, "mips")
		})
	}
}

// BenchmarkFig6 regenerates Figure 6's series (execution time vs
// problem size at p=8, one multiply per inner loop) at a bench-sized
// problem; run cmd/pasmbench -exp fig6 -full for the paper's sizes.
func BenchmarkFig6(b *testing.B) {
	cfg := pasm.DefaultConfig()
	const n, p = 32, 8
	for _, mode := range []matmul.Mode{matmul.Serial, matmul.SIMD, matmul.MIMD, matmul.SMIMD} {
		b.Run(mode.String(), func(sb *testing.B) {
			benchExec(sb, cfg, matmul.Spec{N: n, P: p, Muls: 1, Mode: mode})
		})
	}
}

// BenchmarkFig7 regenerates Figure 7: the SIMD vs S/MIMD execution
// times as inner-loop multiplies grow, and the crossover location.
// At the bench size n=32 the crossover sits near 24 multiplies rather
// than the paper's 14 at n=64 — cols = n/p halves, which raises the
// barrier-granularity residual 4*E[maxNormal(p)]/sqrt(cols) exactly as
// internal/model predicts; run `pasmbench -exp fig7` for the paper's
// configuration.
func BenchmarkFig7(b *testing.B) {
	cfg := pasm.DefaultConfig()
	const n, p = 32, 4
	a := matmul.Identity(n)
	bm := matmul.Random(n, 7)
	muls := []int{1, 10, 14, 20, 30}
	var xs []int
	var ys, yh []int64
	for i := 0; i < b.N; i++ {
		xs, ys, yh = xs[:0], ys[:0], yh[:0]
		for _, m := range muls {
			rs, _, err := matmul.Execute(cfg, matmul.Spec{N: n, P: p, Muls: m, Mode: matmul.SIMD}, a, bm)
			if err != nil {
				b.Fatal(err)
			}
			rh, _, err := matmul.Execute(cfg, matmul.Spec{N: n, P: p, Muls: m, Mode: matmul.SMIMD}, a, bm)
			if err != nil {
				b.Fatal(err)
			}
			xs = append(xs, m)
			ys = append(ys, rs.Cycles)
			yh = append(yh, rh.Cycles)
		}
	}
	b.ReportMetric(stats.Crossover(xs, ys, yh), "crossmuls")
}

// benchBreakdown regenerates one of Figures 8-10: the execution-time
// component split at the given inner-loop multiply count.
func benchBreakdown(b *testing.B, muls int) {
	cfg := pasm.DefaultConfig()
	for _, mode := range []matmul.Mode{matmul.SIMD, matmul.SMIMD} {
		b.Run(mode.String(), func(sb *testing.B) {
			res := benchExec(sb, cfg, matmul.Spec{N: 32, P: 4, Muls: muls, Mode: mode})
			total := float64(res.Cycles)
			sb.ReportMetric(100*float64(res.Regions[1])/total, "mult%") // RegionMult
			sb.ReportMetric(100*float64(res.Regions[2])/total, "comm%") // RegionComm
		})
	}
}

// BenchmarkFig8 is the 1-multiply breakdown (Figure 8).
func BenchmarkFig8(b *testing.B) { benchBreakdown(b, 1) }

// BenchmarkFig9 is the 14-multiply breakdown (Figure 9, the crossover
// point).
func BenchmarkFig9(b *testing.B) { benchBreakdown(b, 14) }

// BenchmarkFig10 is the 30-multiply breakdown (Figure 10, where
// S/MIMD wins).
func BenchmarkFig10(b *testing.B) { benchBreakdown(b, 30) }

// BenchmarkFig11 regenerates Figure 11: efficiency vs problem size at
// p=4 (SIMD exceeding 1 is the paper's superlinear speed-up).
func BenchmarkFig11(b *testing.B) {
	cfg := pasm.DefaultConfig()
	const n, p = 32, 4
	a := matmul.Identity(n)
	bm := matmul.Random(n, 11)
	serial, _, err := matmul.Execute(cfg, matmul.Spec{N: n, Muls: 1, Mode: matmul.Serial}, a, bm)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []matmul.Mode{matmul.SIMD, matmul.MIMD, matmul.SMIMD} {
		b.Run(mode.String(), func(sb *testing.B) {
			var eff float64
			for i := 0; i < sb.N; i++ {
				res, _, err := matmul.Execute(cfg, matmul.Spec{N: n, P: p, Muls: 1, Mode: mode}, a, bm)
				if err != nil {
					sb.Fatal(err)
				}
				eff = stats.Efficiency(serial.Cycles, res.Cycles, p)
			}
			sb.ReportMetric(eff, "efficiency")
		})
	}
}

// BenchmarkFig12 regenerates Figure 12: efficiency vs PE count at
// n=64.
func BenchmarkFig12(b *testing.B) {
	cfg := pasm.DefaultConfig()
	const n = 64
	a := matmul.Identity(n)
	bm := matmul.Random(n, 12)
	serial, _, err := matmul.Execute(cfg, matmul.Spec{N: n, Muls: 1, Mode: matmul.Serial}, a, bm)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{4, 8, 16} {
		b.Run(map[int]string{4: "p4", 8: "p8", 16: "p16"}[p], func(sb *testing.B) {
			var eff float64
			for i := 0; i < sb.N; i++ {
				res, _, err := matmul.Execute(cfg, matmul.Spec{N: n, P: p, Muls: 1, Mode: matmul.SIMD}, a, bm)
				if err != nil {
					sb.Fatal(err)
				}
				eff = stats.Efficiency(serial.Cycles, res.Cycles, p)
			}
			sb.ReportMetric(eff, "efficiency")
		})
	}
}

// --- Ablations (DESIGN.md Section 6) ---------------------------------

// BenchmarkAblationQueueDepth varies the Fetch Unit queue capacity.
// The measured (and architecturally correct) result is that depth
// beyond a couple of instructions is immaterial: the PEs are the
// bottleneck, so one entry of buffering already hides all control
// flow; depth only bounds how far the MC runs ahead.
func BenchmarkAblationQueueDepth(b *testing.B) {
	for _, depth := range []int{8, 32, 128, 1024} {
		b.Run(map[int]string{8: "d8", 32: "d32", 128: "d128", 1024: "d1024"}[depth], func(sb *testing.B) {
			cfg := pasm.DefaultConfig()
			cfg.QueueDepthWords = depth
			res := benchExec(sb, cfg, matmul.Spec{N: 32, P: 4, Muls: 1, Mode: matmul.SIMD})
			sb.ReportMetric(float64(res.PEStarveCycles), "starvecycles")
		})
	}
}

// BenchmarkAblationQueueRate slows the Fetch Unit controller. This is
// the knob superlinearity actually depends on: once the controller
// delivers instruction words slower than the PEs execute them, the
// PEs starve, control flow stops being hidden, and the SIMD advantage
// collapses.
func BenchmarkAblationQueueRate(b *testing.B) {
	for _, wc := range []int64{2, 16, 48} {
		b.Run(map[int64]string{2: "wc2", 16: "wc16", 48: "wc48"}[wc], func(sb *testing.B) {
			cfg := pasm.DefaultConfig()
			cfg.QueueWordCycles = wc
			res := benchExec(sb, cfg, matmul.Spec{N: 32, P: 4, Muls: 1, Mode: matmul.SIMD})
			sb.ReportMetric(float64(res.PEStarveCycles), "starvecycles")
		})
	}
}

// BenchmarkAblationWaitStates removes the DRAM wait-state and refresh
// penalties: the Table 1 SIMD/MIMD gap and part of the SIMD advantage
// disappear.
func BenchmarkAblationWaitStates(b *testing.B) {
	for _, ws := range []int64{0, 1, 2} {
		b.Run(map[int64]string{0: "ws0", 1: "ws1", 2: "ws2"}[ws], func(sb *testing.B) {
			cfg := pasm.DefaultConfig()
			cfg.DRAMWaitStates = ws
			if ws == 0 {
				cfg.RefreshPeriod = 0
			}
			benchExec(sb, cfg, matmul.Spec{N: 32, P: 4, Muls: 1, Mode: matmul.MIMD})
		})
	}
}

// BenchmarkAblationDeterministicMul replaces the data-dependent MULU
// time with its 54-cycle mean: the decoupling benefit — and with it
// the Figure 7 crossover — disappears, confirming the paper's causal
// story.
func BenchmarkAblationDeterministicMul(b *testing.B) {
	const n, p = 32, 4
	a := matmul.Identity(n)
	bm := matmul.Random(n, 13)
	for _, fixed := range []int64{0, 54} {
		name := "data-dependent"
		if fixed > 0 {
			name = "fixed54"
		}
		b.Run(name, func(sb *testing.B) {
			cfg := pasm.DefaultConfig()
			cfg.FixedMulCycles = fixed
			var gain float64
			for i := 0; i < sb.N; i++ {
				rs, _, err := matmul.Execute(cfg, matmul.Spec{N: n, P: p, Muls: 30, Mode: matmul.SIMD}, a, bm)
				if err != nil {
					sb.Fatal(err)
				}
				rh, _, err := matmul.Execute(cfg, matmul.Spec{N: n, P: p, Muls: 30, Mode: matmul.SMIMD}, a, bm)
				if err != nil {
					sb.Fatal(err)
				}
				gain = float64(rs.Cycles-rh.Cycles) / float64(rs.Cycles)
			}
			// Positive: S/MIMD wins at 30 multiplies. With fixed MULU
			// times it goes negative (SIMD always wins).
			sb.ReportMetric(100*gain, "decouplegain%")
		})
	}
}

// BenchmarkSmoothing runs the second workload domain (image
// processing, PASM's design target): a 3x3 mean filter with run-time
// circuit reconfiguration for the halo exchange and quotient-dependent
// DIVU timing in the kernel.
func BenchmarkSmoothing(b *testing.B) {
	cfg := pasm.DefaultConfig()
	const h, w, p = 32, 32, 4
	img := smoothing.RandomImage(h, w, 7)
	want := smoothing.Reference(img)
	for _, mode := range []smoothing.Mode{smoothing.Serial, smoothing.SIMD, smoothing.MIMD, smoothing.SMIMD} {
		b.Run(mode.String(), func(sb *testing.B) {
			var last pasm.RunResult
			for i := 0; i < sb.N; i++ {
				res, out, err := smoothing.Execute(cfg, smoothing.Spec{H: h, W: w, P: p, Mode: mode}, img)
				if err != nil {
					sb.Fatal(err)
				}
				if !smoothing.Equal(out, want) {
					sb.Fatal("wrong image")
				}
				last = res
			}
			sb.ReportMetric(float64(last.Cycles)/1e6, "simMcycles")
		})
	}
}

// BenchmarkAblationComm isolates the communication-protocol choice:
// polling (MIMD) vs Fetch-Unit barriers (S/MIMD) vs implicit lockstep
// (SIMD), at a communication-heavy small n.
func BenchmarkAblationComm(b *testing.B) {
	cfg := pasm.DefaultConfig()
	for _, mode := range []matmul.Mode{matmul.SIMD, matmul.SMIMD, matmul.MIMD} {
		b.Run(mode.String(), func(sb *testing.B) {
			res := benchExec(sb, cfg, matmul.Spec{N: 16, P: 4, Muls: 1, Mode: mode})
			sb.ReportMetric(float64(res.Regions[2]), "commcycles") // RegionComm
		})
	}
}

// BenchmarkReduce runs the recursive-doubling all-reduce (third
// workload): log2(p) cube-permutation reconfigurations plus a
// data-dependent local squaring phase.
func BenchmarkReduce(b *testing.B) {
	cfg := pasm.DefaultConfig()
	const n, p = 1024, 8
	v := reduce.RandomVector(n, 9)
	want := reduce.Reference(v)
	for _, mode := range []reduce.Mode{reduce.Serial, reduce.SIMD, reduce.MIMD, reduce.SMIMD} {
		b.Run(mode.String(), func(sb *testing.B) {
			var last pasm.RunResult
			for i := 0; i < sb.N; i++ {
				res, sums, err := reduce.Execute(cfg, reduce.Spec{N: n, P: p, Mode: mode}, v)
				if err != nil {
					sb.Fatal(err)
				}
				for _, s := range sums {
					if s != want {
						sb.Fatal("wrong sum")
					}
				}
				last = res
			}
			sb.ReportMetric(float64(last.Cycles)/1e6, "simMcycles")
		})
	}
}

// BenchmarkMixedMode measures the true fine-grained mixed-mode
// execution (per-element asynchronous multiply bursts inside the SIMD
// program) against pure SIMD: the mixed/SIMD cycle ratio stays above 1
// at every burst size because the burst's timing variation is
// perfectly correlated (one reused multiplier).
func BenchmarkMixedMode(b *testing.B) {
	cfg := pasm.DefaultConfig()
	for _, mode := range []matmul.Mode{matmul.SIMD, matmul.Mixed} {
		b.Run(mode.String(), func(sb *testing.B) {
			benchExec(sb, cfg, matmul.Spec{N: 32, P: 4, Muls: 14, Mode: mode})
		})
	}
}

// BenchmarkInterpreterSteadyState measures the bare interpreter inner
// loop — execution-table dispatch on an infinite data-processing loop,
// DRAM fetch timing enabled. The steady state must not allocate: the
// per-program execution table is built once on the first step and the
// hot path is an index, a function call, and a cycle add.
func BenchmarkInterpreterSteadyState(b *testing.B) {
	prog := m68k.MustAssemble(`
l:	mulu.w  d1, d0
	add.w   d2, d0
	bra     l
	`)
	c := m68k.NewCPU(prog, m68k.NewMemory(1<<16))
	c.FetchFromMem = true
	c.Mem.WaitStates = 1
	c.Mem.RefreshPeriod = 256
	c.Mem.RefreshStall = 2
	c.D[1] = 0xA5A5
	c.D[2] = 3
	if st := c.Run(16); st != m68k.StatusOK { // warm up: builds the table
		b.Fatalf("warmup status %v", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if st := c.Run(int64(b.N)); st != m68k.StatusOK {
		b.Fatalf("status %v (err=%v)", st, c.Err)
	}
}

// BenchmarkInterpreterDynamicPath is the same loop through the dynamic
// reference path (per-step handler resolution and cycle recomputation),
// quantifying what the execution table saves.
func BenchmarkInterpreterDynamicPath(b *testing.B) {
	prog := m68k.MustAssemble(`
l:	mulu.w  d1, d0
	add.w   d2, d0
	bra     l
	`)
	c := m68k.NewCPU(prog, m68k.NewMemory(1<<16))
	c.FetchFromMem = true
	c.Mem.WaitStates = 1
	c.Mem.RefreshPeriod = 256
	c.Mem.RefreshStall = 2
	c.DisableExecTable = true
	c.D[1] = 0xA5A5
	c.D[2] = 3
	b.ReportAllocs()
	b.ResetTimer()
	if st := c.Run(int64(b.N)); st != m68k.StatusOK {
		b.Fatalf("status %v (err=%v)", st, c.Err)
	}
}

// BenchmarkExperimentParallelism runs the Figure 7 sweep with the cell
// fan-out at one worker and at one worker per CPU; on a multi-core
// host the parallel variant's wall clock drops near-linearly while the
// rendered table stays byte-identical.
func BenchmarkExperimentParallelism(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(sb *testing.B) {
			opts := experiments.DefaultOptions()
			opts.Parallelism = workers
			for i := 0; i < sb.N; i++ {
				if _, err := experiments.Fig7(opts); err != nil {
					sb.Fatal(err)
				}
			}
		})
	}
}
