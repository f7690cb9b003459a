// Command pasmrun executes one matrix-multiplication configuration on
// the simulated PASM prototype and reports its timing in detail:
// cycles, seconds at 8 MHz, the execution-time component breakdown,
// instruction counts, network traffic, barrier rounds, and Fetch Unit
// queue occupancy. The observability flags expose the run's event
// stream: -trace prints an interleaved per-unit listing, -trace-out
// writes Chrome trace-event JSON for Perfetto, and -metrics prints the
// per-unit utilization table (to stderr, keeping stdout identical).
//
// Usage:
//
//	pasmrun [-n 64] [-p 4] [-muls 1] [-mode simd|mimd|smimd|mixed|sisd]
//	        [-seed N] [-verify] [-asm] [-trace N] [-trace-out FILE]
//	        [-metrics]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/m68k"
	"repro/internal/matmul"
	"repro/internal/obs"
	"repro/internal/pasm"
	"repro/internal/stats"
)

func main() {
	n := flag.Int("n", 64, "matrix dimension (power of two)")
	p := flag.Int("p", 4, "number of PEs (power of two)")
	muls := flag.Int("muls", 1, "multiplies per inner loop (1 = plain algorithm)")
	mode := flag.String("mode", "simd", "execution mode: sisd, simd, mimd, smimd, mixed")
	seed := flag.Uint("seed", 1988, "seed for the random B matrix")
	verify := flag.Bool("verify", true, "check the product against the host reference")
	asm := flag.Bool("asm", false, "print the generated assembly and exit")
	traceN := flag.Int("trace", 0, "print the last N events of every unit as one interleaved listing")
	traceOut := flag.String("trace-out", "", "write the full event stream as Chrome trace-event JSON to `file` (load in ui.perfetto.dev)")
	metrics := flag.Bool("metrics", false, "print the per-unit utilization/wait table to stderr")
	flag.Parse()

	// The shared spec type (internal/experiments) owns mode parsing and
	// validation — the same construction pasmbench, pasmd, and the
	// service client use.
	cell := experiments.CellSpec{N: *n, P: *p, Muls: *muls, Mode: *mode}
	spec, err := cell.MatmulSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pasmrun:", err)
		os.Exit(2)
	}
	m := spec.Mode

	if *asm {
		src, err := matmul.Generate(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pasmrun:", err)
			os.Exit(1)
		}
		fmt.Print(src)
		return
	}

	cfg := pasm.DefaultConfig()
	var rec *obs.Recorder
	if *traceN > 0 || *traceOut != "" || *metrics {
		ocfg := obs.Config{Metrics: true}
		if *traceN > 0 || *traceOut != "" {
			ocfg.Events = obs.AllKinds
		}
		if *traceN > 0 && *traceOut == "" {
			// Listing only: a ring of the last N events per unit is
			// enough. A Chrome trace needs the whole stream.
			ocfg.Limit = *traceN
		}
		rec = obs.New(ocfg)
		cfg.Obs = rec
	}
	a := matmul.Identity(*n)
	b := matmul.Random(*n, uint32(*seed))

	prog, l, err := matmul.Build(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pasmrun:", err)
		os.Exit(1)
	}
	if need := l.MemBytes(); cfg.PEMemBytes < need {
		cfg.PEMemBytes = need
	}
	vm, err := pasm.NewVM(cfg, l.P)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pasmrun:", err)
		os.Exit(1)
	}
	if err := vm.EstablishShift(); err != nil {
		fmt.Fprintln(os.Stderr, "pasmrun:", err)
		os.Exit(1)
	}
	if err := matmul.Load(vm, l, a, b); err != nil {
		fmt.Fprintln(os.Stderr, "pasmrun:", err)
		os.Exit(1)
	}
	var res pasm.RunResult
	if spec.Mode == matmul.SIMD || spec.Mode == matmul.Mixed {
		res, err = vm.RunSIMD(prog)
	} else {
		res, err = vm.RunMIMD(prog)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pasmrun:", err)
		os.Exit(1)
	}
	c, err := matmul.ReadC(vm, l)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pasmrun:", err)
		os.Exit(1)
	}
	if *verify {
		if !matmul.Equal(c, b) { // identity A: C must equal B
			fmt.Fprintln(os.Stderr, "pasmrun: WRONG PRODUCT")
			os.Exit(1)
		}
	}

	fmt.Printf("matmul %s  n=%d  p=%d  multiplies/inner-loop=%d\n", m, *n, spec.P, *muls)
	fmt.Printf("  execution time : %d cycles = %.4f s at %.0f MHz\n",
		res.Cycles, stats.Seconds(res.Cycles, cfg.ClockHz), cfg.ClockHz/1e6)
	fmt.Printf("  breakdown      : mult %d (%.1f%%), comm %d (%.1f%%), other %d (%.1f%%)\n",
		res.Regions[m68k.RegionMult], pct(res.Regions[m68k.RegionMult], res.Cycles),
		res.Regions[m68k.RegionComm], pct(res.Regions[m68k.RegionComm], res.Cycles),
		res.Regions[m68k.RegionOther]+res.Regions[m68k.RegionControl],
		pct(res.Regions[m68k.RegionOther]+res.Regions[m68k.RegionControl], res.Cycles))
	fmt.Printf("  PE instructions: %d total", res.Instrs)
	if res.MCInstrs > 0 {
		fmt.Printf("  (MC instructions: %d)", res.MCInstrs)
	}
	fmt.Println()
	if res.MCInstrs > 0 {
		fmt.Printf("  fetch unit     : PEs starved %d cycles, MC stalled %d cycles, controller stalled %d cycles\n",
			res.PEStarveCycles, res.MCStallCycles, res.QueueStallCycles)
	}
	if res.NetTransfers > 0 {
		fmt.Printf("  network        : %d bytes transferred\n", res.NetTransfers)
	}
	if res.BarrierRounds > 0 {
		fmt.Printf("  barriers       : %d rounds\n", res.BarrierRounds)
	}
	if *verify {
		fmt.Println("  result verified against host reference")
	}
	disasm := pasm.Disasm(prog, spec.Mode == matmul.SIMD || spec.Mode == matmul.Mixed)
	if *traceN > 0 {
		fmt.Printf("\nlast %d events per unit (interleaved, simulated-time order):\n", *traceN)
		if err := obs.WriteListing(os.Stdout, rec, disasm); err != nil {
			fmt.Fprintln(os.Stderr, "pasmrun:", err)
			os.Exit(1)
		}
	}
	if *metrics {
		if err := obs.WriteUnitTable(os.Stderr, rec); err != nil {
			fmt.Fprintln(os.Stderr, "pasmrun:", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pasmrun:", err)
			os.Exit(1)
		}
		if err := obs.WriteChromeTrace(f, rec, disasm); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "pasmrun:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "pasmrun:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pasmrun: wrote Chrome trace to %s (load in ui.perfetto.dev)\n", *traceOut)
	}
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
