// Package experiments reproduces every table and figure of the
// paper's evaluation (Table 1 and Figures 6-12): workload generation,
// parameter sweeps, all four program variants, and renderers that
// print the same rows and series the paper reports. Absolute numbers
// come from the simulated prototype, so the shape of each result —
// who wins, by what factor, where the crossovers fall — is the claim
// being reproduced, not the raw cycle counts.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/matmul"
	"repro/internal/obs"
	"repro/internal/pasm"
)

// Options configures an experiment run.
type Options struct {
	// Config is the machine configuration (DefaultConfig unless a
	// parameter is being ablated).
	Config pasm.Config
	// Full selects the paper's complete problem-size set
	// {4,8,16,64,128,256}; otherwise a quick set capped at 64 is used
	// (the large sizes take minutes of host time).
	Full bool
	// Seed drives the random B matrices; the same B is used for every
	// program variant at the same n, following the paper's protocol.
	Seed uint32
	// Parallelism is the number of host goroutines running independent
	// experiment cells concurrently. 0 means one per CPU; 1 means
	// serial. Every cell simulates its own virtual machine, so results
	// are identical for any value — only host wall-clock changes.
	Parallelism int
	// Observe attaches a metrics recorder (package obs) to every cell
	// and aggregates the per-cell registries into the experiment's
	// Summary under "obs/" keys. Purely additive: the v1 summary keys
	// and rendered tables are unchanged.
	Observe bool
	// Capture, when non-nil, retains whole-cell event streams for the
	// serving stack's request tracing (telemetry links them to the
	// request's run span). Bounded by the Capture itself; captured
	// events never enter the report, so byte-identity is untouched.
	Capture *obs.Capture
	// InterpTier names the interpreter tier the Config's Disable*
	// knobs select ("super" or "reference"); informational
	// only, surfaced in the report's Timings-gated fields. Empty means
	// the default "super".
	InterpTier string
}

// DefaultOptions returns quick-set options with the prototype config.
func DefaultOptions() Options {
	return Options{Config: pasm.DefaultConfig(), Seed: 1988}
}

// sizes returns the problem-size sweep.
func (o Options) sizes() []int {
	if o.Full {
		return []int{4, 8, 16, 64, 128, 256} // the paper's set
	}
	return []int{4, 8, 16, 32, 64}
}

// runner caches operand matrices per n and executes specs. The cache
// is mutex-guarded so cells running on parallel host workers can
// share it; execAll additionally pre-warms it so the hot path is
// read-only.
type runner struct {
	opts Options
	obs  *observer
	mu   sync.Mutex
	as   map[int]matmul.Matrix
	bs   map[int]matmul.Matrix
}

func newRunner(opts Options) *runner {
	return &runner{opts: opts, obs: newObserver(opts),
		as: map[int]matmul.Matrix{}, bs: map[int]matmul.Matrix{}}
}

// operands returns the paper's operand protocol for size n: identity A
// (multiplicand data does not affect MULU timing, and makes results
// trivially checkable) and seeded-random B.
func (r *runner) operands(n int) (matmul.Matrix, matmul.Matrix) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.as[n]
	if !ok {
		a = matmul.Identity(n)
		r.as[n] = a
	}
	b, ok := r.bs[n]
	if !ok {
		b = matmul.Random(n, r.opts.Seed+uint32(n))
		r.bs[n] = b
	}
	return a, b
}

// exec runs one spec and verifies the product against B (A is the
// identity, so C must equal B).
func (r *runner) exec(spec matmul.Spec) (pasm.RunResult, error) {
	a, b := r.operands(spec.N)
	cfg, rec := r.obs.cell(r.opts.Config)
	res, c, err := matmul.Execute(cfg, spec, a, b)
	if err != nil {
		return pasm.RunResult{}, err
	}
	r.obs.done(rec)
	if !matmul.Equal(c, b) {
		return pasm.RunResult{}, fmt.Errorf("experiments: %s n=%d p=%d muls=%d computed a wrong product",
			spec.Mode, spec.N, spec.P, spec.Muls)
	}
	return res, nil
}

// table rendering helpers ----------------------------------------------

type table struct {
	b strings.Builder
}

func (t *table) title(s string) {
	t.b.WriteString(s)
	t.b.WriteByte('\n')
	t.b.WriteString(strings.Repeat("=", len(s)))
	t.b.WriteByte('\n')
}

func (t *table) row(cols ...string) {
	t.b.WriteString(strings.Join(cols, "  "))
	t.b.WriteByte('\n')
}

func (t *table) String() string { return t.b.String() }

func cyc(v int64) string { return fmt.Sprintf("%12d", v) }
