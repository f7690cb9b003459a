// Command interpbench measures the interpreter tiers' throughput on
// the paper's matmul rows and records the speedups in
// BENCH_interp.json.
//
// For every selected fig6/fig7 row it runs the generated program on
// each tier — dynamic reference and superinstructions —
// timing only the simulation itself (program build, operand load, and
// result readback are excluded; they are identical across tiers and
// amortized once per request on the serving path).
// MIPS is simulated instructions per host second; the simulated
// instruction count is tier-invariant, so the MIPS ratio is exactly
// the simulation-time ratio.
//
// With -against, the measured super-tier speedups are compared to a
// previously recorded BENCH_interp.json and the run fails if any row
// regresses below the recorded ratio (with a noise margin) — the CI
// gate that keeps the fast tier fast.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/matmul"
	"repro/internal/pasm"
)

// Schema identifies the BENCH_interp.json document format.
const Schema = "interpbench/v1"

// regressionMargin is how far below a recorded speedup a measured one
// may fall before -against fails the run. Wall-clock MIPS on shared CI
// hosts is noisy — the MIMD/S-MIMD rows run host goroutines that race
// with whatever else the machine is doing, so their ratios wobble by
// tens of percent run to run. 0.6 absorbs that while still catching a
// real regression: losing the super tier drops the SISD row's ratio
// from ~9x to ~1x, far through any plausible floor.
const regressionMargin = 0.6

var tiers = []string{"reference", "super"}

// Row is one measured matmul configuration.
type Row struct {
	Name string `json:"name"`
	// Instrs is the simulated instruction count, identical on every
	// tier (the differential tests enforce it; this tool re-checks).
	Instrs int64 `json:"instrs"`
	// MIPS maps tier name to simulated instructions per host second.
	MIPS map[string]float64 `json:"mips"`
	// SuperVsReference is the super tier's speedup ratio,
	// MIPS[super]/MIPS[reference].
	SuperVsReference float64 `json:"super_vs_reference"`
}

// Doc is the BENCH_interp.json document.
type Doc struct {
	Schema string `json:"schema"`
	// Reps is the measurement repetitions per (row, tier); the
	// fastest repetition is kept.
	Reps int   `json:"reps"`
	Rows []Row `json:"rows"`
}

// rows is the measured configuration set: the fig6 mode sweep at the
// paper's largest quick size and the fig7 multiply sweep's extremes,
// where the superinstruction kernel executor matters most.
var rows = []struct {
	name string
	spec matmul.Spec
}{
	{"fig6/n=64/SISD", matmul.Spec{N: 64, P: 1, Muls: 1, Mode: matmul.Serial}},
	{"fig6/n=64/SIMD", matmul.Spec{N: 64, P: 4, Muls: 1, Mode: matmul.SIMD}},
	{"fig6/n=64/MIMD", matmul.Spec{N: 64, P: 4, Muls: 1, Mode: matmul.MIMD}},
	{"fig6/n=64/S-MIMD", matmul.Spec{N: 64, P: 4, Muls: 1, Mode: matmul.SMIMD}},
	{"fig7/muls=14/S-MIMD", matmul.Spec{N: 64, P: 4, Muls: 14, Mode: matmul.SMIMD}},
	{"fig7/muls=30/SIMD", matmul.Spec{N: 64, P: 4, Muls: 30, Mode: matmul.SIMD}},
	{"fig7/muls=30/S-MIMD", matmul.Spec{N: 64, P: 4, Muls: 30, Mode: matmul.SMIMD}},
}

// simulate runs spec once on the tier and returns the simulation-only
// host seconds and the simulated instruction count.
func simulate(tier string, spec matmul.Spec, a, b matmul.Matrix) (float64, int64, error) {
	cfg := pasm.DefaultConfig()
	cfg.DisableExecTable = tier == "reference"
	prog, l, err := matmul.Build(spec)
	if err != nil {
		return 0, 0, err
	}
	if need := l.MemBytes(); cfg.PEMemBytes < need {
		cfg.PEMemBytes = need
	}
	vm, err := pasm.NewVM(cfg, l.P)
	if err != nil {
		return 0, 0, err
	}
	if err := vm.EstablishShift(); err != nil {
		return 0, 0, err
	}
	if err := matmul.Load(vm, l, a, b); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	var res pasm.RunResult
	if spec.Mode == matmul.SIMD || spec.Mode == matmul.Mixed {
		res, err = vm.RunSIMD(prog)
	} else {
		res, err = vm.RunMIMD(prog)
	}
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return 0, 0, err
	}
	c, err := matmul.ReadC(vm, l)
	if err != nil {
		return 0, 0, err
	}
	if !matmul.Equal(c, b) {
		return 0, 0, fmt.Errorf("%s tier computed a wrong product", tier)
	}
	return elapsed, res.Instrs, nil
}

func measure(reps int) (*Doc, error) {
	doc := &Doc{Schema: Schema, Reps: reps}
	for _, r := range rows {
		a := matmul.Identity(r.spec.N)
		b := matmul.Random(r.spec.N, 1988+uint32(r.spec.N))
		row := Row{Name: r.name, MIPS: map[string]float64{}}
		for _, tier := range tiers {
			best := 0.0
			for k := 0; k < reps; k++ {
				el, instrs, err := simulate(tier, r.spec, a, b)
				if err != nil {
					return nil, fmt.Errorf("%s on %s: %w", r.name, tier, err)
				}
				if row.Instrs == 0 {
					row.Instrs = instrs
				} else if instrs != row.Instrs {
					return nil, fmt.Errorf("%s: %s tier simulated %d instructions, others %d",
						r.name, tier, instrs, row.Instrs)
				}
				if mips := float64(instrs) / el / 1e6; mips > best {
					best = mips
				}
			}
			row.MIPS[tier] = best
		}
		row.SuperVsReference = row.MIPS["super"] / row.MIPS["reference"]
		doc.Rows = append(doc.Rows, row)
		fmt.Fprintf(os.Stderr, "%-20s ref=%8.2f super=%8.2f MIPS  (super/ref %.2fx)\n",
			r.name, row.MIPS["reference"], row.MIPS["super"], row.SuperVsReference)
	}
	return doc, nil
}

// compare fails if any measured row's super-vs-reference speedup fell
// below the recorded one by more than the noise margin.
func compare(doc *Doc, againstPath string) error {
	buf, err := os.ReadFile(againstPath)
	if err != nil {
		return err
	}
	var against Doc
	if err := json.Unmarshal(buf, &against); err != nil {
		return fmt.Errorf("%s: %w", againstPath, err)
	}
	recorded := map[string]float64{}
	for _, r := range against.Rows {
		recorded[r.Name] = r.SuperVsReference
	}
	var failed bool
	for _, r := range doc.Rows {
		want, ok := recorded[r.Name]
		if !ok {
			continue
		}
		floor := want * regressionMargin
		if r.SuperVsReference < floor {
			failed = true
			fmt.Fprintf(os.Stderr, "REGRESSION %s: super/reference %.2fx < %.2fx (recorded %.2fx)\n",
				r.Name, r.SuperVsReference, floor, want)
		}
	}
	if failed {
		return fmt.Errorf("super tier regressed below the ratios recorded in %s", againstPath)
	}
	fmt.Fprintf(os.Stderr, "no regression vs %s\n", againstPath)
	return nil
}

func main() {
	out := flag.String("out", "", "write the measured document to `file`")
	against := flag.String("against", "", "fail if super-tier speedups regress below `file`'s recorded ratios")
	reps := flag.Int("reps", 3, "repetitions per (row, tier); fastest kept")
	flag.Parse()

	doc, err := measure(*reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "interpbench: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "interpbench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "interpbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	if *against != "" {
		if err := compare(doc, *against); err != nil {
			fmt.Fprintf(os.Stderr, "interpbench: %v\n", err)
			os.Exit(1)
		}
	}
}
