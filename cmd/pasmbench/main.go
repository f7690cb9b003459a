// Command pasmbench regenerates the paper's tables and figures on the
// simulated PASM prototype.
//
// Usage:
//
//	pasmbench [-exp all|table1|fig6|fig7|fig8|fig9|fig10|fig11|fig12|ext|...]
//	          [-full] [-seed N] [-parallel N] [-json FILE|-]
//	          [-host-timings=false] [-remote ADDR]
//	          [-metrics] [-trace-out FILE]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// -full runs the paper's complete problem-size set (n up to 256),
// which takes a few minutes of host time; the default quick set caps n
// at 64 and reproduces every qualitative result.
//
// -parallel sets the number of host goroutines running independent
// experiment cells; the default is one per CPU. The tables are
// byte-identical for any value — per-experiment host timings go to
// stderr so stdout can be diffed across parallelism levels.
//
// -json additionally writes every selected experiment's simulated
// metrics and host wall-clock time to FILE (schema pasmbench/v2; the
// v1 fields are unchanged, -metrics adds "obs/" summary keys). With
// "-json -" the document goes to stdout instead, the rendered tables
// are suppressed, and stdout is pure JSON — pipe-safe for jq.
//
// -host-timings=false omits the non-deterministic host wall-clock and
// parallelism fields from the -json document, making it a pure
// function of the experiment spec (the form the pasmd service caches
// and serves).
//
// -remote ADDR submits the spec to a pasmd daemon instead of
// simulating locally, and writes the returned document to the -json
// target (stdout when "-" or unset). The daemon's bytes are identical
// to a local run with -host-timings=false.
//
// -metrics attaches the observability layer to every experiment cell
// and aggregates per-cell counters and histograms (MULU cycle
// distribution, barrier waits, queue occupancy) into the summaries; a
// machine-wide registry dump goes to stderr. -trace-out records one
// representative S/MIMD cell with full event capture and writes it as
// Chrome trace-event JSON for ui.perfetto.dev. -cpuprofile and
// -memprofile write host pprof profiles of the simulator itself.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/matmul"
	"repro/internal/obs"
	"repro/internal/pasm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injected streams and an exit code: testable, and
// profile-flushing defers execute before the process exits.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pasmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: all, table1, fig6..fig12, ext, ext-crossover, ext-model, ext-fault")
	full := fs.Bool("full", false, "run the paper's full problem sizes (n up to 256; slow)")
	pes := fs.Int("pes", 0, "simulated machine size, a power of two up to 1024 (0 = the 16-PE prototype; larger machines change ext-workloads and ext-partition)")
	seed := fs.Uint("seed", 1988, "seed for the random B matrices")
	plots := fs.Bool("plot", false, "also render ASCII charts of the figure shapes")
	parallel := fs.Int("parallel", runtime.NumCPU(), "host goroutines running experiment cells (results are identical for any value)")
	jsonPath := fs.String("json", "", "write simulated metrics and host timings to this file as JSON (\"-\" for stdout, suppressing tables)")
	hostTimings := fs.Bool("host-timings", true, "include host wall-clock and parallelism in the -json document (disable for byte-reproducible output)")
	remote := fs.String("remote", "", "submit the spec to a pasmd daemon at `addr` instead of simulating locally")
	interp := fs.String("interp", "super", "interpreter tier: super (superinstructions) or reference (dynamic dispatch); simulated results are identical")
	metrics := fs.Bool("metrics", false, "aggregate observability metrics per experiment (adds obs/ keys to -json summaries; registry dump on stderr)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace of one representative S/MIMD cell to `file` (load in ui.perfetto.dev)")
	cpuprofile := fs.String("cpuprofile", "", "write a host CPU profile to `file`")
	memprofile := fs.String("memprofile", "", "write a host heap profile to `file`")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	spec := experiments.Spec{
		Exps:    experiments.ParseExpList(*exp),
		Full:    *full,
		PEs:     *pes,
		Seed:    uint32(*seed),
		Observe: *metrics,
	}
	if _, err := spec.Normalize(); err != nil {
		fmt.Fprintf(stderr, "pasmbench: %v\n", err)
		fs.Usage()
		return 2
	}

	if *remote != "" {
		return runRemote(*remote, spec, *jsonPath, stdout, stderr)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "pasmbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "pasmbench: starting CPU profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
		fmt.Fprintf(stderr, "[cpu profile -> %s]\n", *cpuprofile)
	}

	opts := experiments.DefaultOptions()
	opts.Parallelism = *parallel
	opts.Seed = uint32(*seed) // RunSpec re-derives this from the spec; writeRepresentativeTrace reads it directly
	switch *interp {
	case "super":
		// Default: all tiers enabled.
	case "reference":
		opts.Config.DisableExecTable = true
	default:
		fmt.Fprintf(stderr, "pasmbench: unknown -interp tier %q (want super or reference)\n", *interp)
		return 2
	}
	opts.InterpTier = *interp
	jsonToStdout := *jsonPath == "-"

	hook := func(name string, res experiments.Result, hostSeconds float64) {
		if !jsonToStdout {
			fmt.Fprintln(stdout, res.Render())
			if *plots {
				if p, ok := res.(experiments.Plotter); ok {
					fmt.Fprintln(stdout, p.Plot())
				}
			}
		}
		// Host timing is non-deterministic; keep it off stdout so the
		// rendered tables can be byte-compared across runs.
		if *hostTimings {
			fmt.Fprintf(stderr, "[%s completed in %.1fs host time]\n", name, hostSeconds)
		}
	}
	report, err := experiments.RunSpec(spec, experiments.RunConfig{
		Options: opts,
		Timings: *hostTimings,
		Hook:    hook,
	})
	if err != nil {
		fmt.Fprintf(stderr, "pasmbench: %v\n", err)
		return 1
	}

	if *metrics {
		// Machine-wide registry dump: merged across every selected
		// experiment's cells. Diagnostics only, so stderr.
		if err := writeMetricsDump(stderr, report.Experiments); err != nil {
			fmt.Fprintf(stderr, "pasmbench: metrics dump: %v\n", err)
			return 1
		}
	}

	if *traceOut != "" {
		if err := writeRepresentativeTrace(*traceOut, opts); err != nil {
			fmt.Fprintf(stderr, "pasmbench: trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "[wrote Chrome trace of S/MIMD n=16 p=4 muls=14 to %s]\n", *traceOut)
	}

	if *jsonPath != "" {
		buf, err := report.Marshal()
		if err != nil {
			fmt.Fprintf(stderr, "pasmbench: encoding json: %v\n", err)
			return 1
		}
		if jsonToStdout {
			if _, err := stdout.Write(buf); err != nil {
				fmt.Fprintf(stderr, "pasmbench: %v\n", err)
				return 1
			}
		} else {
			if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
				fmt.Fprintf(stderr, "pasmbench: writing %s: %v\n", *jsonPath, err)
				return 1
			}
			fmt.Fprintf(stderr, "[wrote %s]\n", *jsonPath)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "pasmbench: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "pasmbench: writing heap profile: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "[heap profile -> %s]\n", *memprofile)
	}
	return 0
}

// runRemote submits the spec to a pasmd daemon and writes the served
// document (byte-identical to a local -host-timings=false run) to the
// -json target, defaulting to stdout.
func runRemote(addr string, spec experiments.Spec, jsonPath string, stdout, stderr io.Writer) int {
	cl := client.New(addr)
	start := time.Now()
	raw, st, err := cl.Run(context.Background(), spec, client.SubmitOptions{Wait: 30 * time.Second})
	if err != nil {
		fmt.Fprintf(stderr, "pasmbench: remote: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "[remote job %s done in %.1fs round trip, cached=%t]\n",
		st.ID, time.Since(start).Seconds(), st.Cached)
	if jsonPath == "" || jsonPath == "-" {
		if _, err := stdout.Write(raw); err != nil {
			fmt.Fprintf(stderr, "pasmbench: %v\n", err)
			return 1
		}
		return 0
	}
	if err := os.WriteFile(jsonPath, raw, 0o644); err != nil {
		fmt.Fprintf(stderr, "pasmbench: writing %s: %v\n", jsonPath, err)
		return 1
	}
	fmt.Fprintf(stderr, "[wrote %s]\n", jsonPath)
	return 0
}

// writeMetricsDump prints the "obs/" summary keys of every experiment,
// sorted, as the suite's aggregated metrics view.
func writeMetricsDump(w io.Writer, exps []experiments.ReportExperiment) error {
	for _, e := range exps {
		keys := make([]string, 0, len(e.Summary))
		for k := range e.Summary {
			if strings.HasPrefix(k, "obs/") {
				keys = append(keys, k)
			}
		}
		if len(keys) == 0 {
			continue
		}
		sort.Strings(keys)
		if _, err := fmt.Fprintf(w, "[observability: %s]\n", e.Name); err != nil {
			return err
		}
		for _, k := range keys {
			if _, err := fmt.Fprintf(w, "  %-44s %g\n", k, e.Summary[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeRepresentativeTrace runs one deterministic S/MIMD cell near the
// paper's Figure 7 crossover (n=16, p=4, 14 multiplies) with full
// event capture and exports it as Chrome trace-event JSON.
func writeRepresentativeTrace(path string, opts experiments.Options) error {
	spec := matmul.Spec{N: 16, P: 4, Muls: 14, Mode: matmul.SMIMD}
	rec := obs.New(obs.Config{Events: obs.AllKinds, Metrics: true})
	cfg := opts.Config
	cfg.Obs = rec
	a := matmul.Identity(spec.N)
	b := matmul.Random(spec.N, opts.Seed+uint32(spec.N))
	if _, _, err := matmul.Execute(cfg, spec, a, b); err != nil {
		return err
	}
	prog, _, err := matmul.Build(spec)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, rec, pasm.Disasm(prog, false)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
