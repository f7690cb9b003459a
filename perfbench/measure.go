package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
)

// reservoir keeps a uniform random sample of at most its capacity of
// the values offered to it (Vitter's algorithm R). Its memory is
// allocated once, before the timed phase, so the benchmark's own live
// heap stays the same size however many ops a run completes and cannot
// change how often the collector runs.
type reservoir[T any] struct {
	buf  []T
	seen int
	rng  uint64
}

func newReservoir[T any](size int) *reservoir[T] {
	return &reservoir[T]{buf: make([]T, 0, size), rng: 0x9E3779B97F4A7C15}
}

func (r *reservoir[T]) add(v T) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % uint64(r.seen); j < uint64(len(r.buf)) {
		r.buf[j] = v
	}
}

// checker is the correctness gate. Every op's report bytes must equal,
// by SHA-256, the report the reference interpreter tier
// (Config.DisableExecTable, the repository's differential oracle)
// produces for the same spec. Digests of the serve-hit hot set are
// computed before timing starts and checked as ops complete; a
// simulation op's spec is new, so its reference runs after the timed
// phase.
type checker struct {
	gen     *generator
	want    map[uint32][sha256.Size]byte
	pending []pendingOp
}

// pendingOp is an op whose reference digest is not known yet.
type pendingOp struct {
	seed uint32
	sum  [sha256.Size]byte
}

func newChecker(gen *generator) *checker {
	return &checker{gen: gen, want: map[uint32][sha256.Size]byte{}}
}

// spec rebuilds the spec an op with this seed ran: every op of a
// workload uses the workload's one cell bundle.
func (c *checker) spec(seed uint32) experiments.Spec {
	switch c.gen.workload {
	case simLockstep:
		return experiments.Spec{Cells: lockstepCells, Seed: seed}
	case serveCold:
		return experiments.Spec{Cells: coldCells, Seed: seed}
	}
	return experiments.Spec{Cells: hotCells, Seed: seed}
}

// record checks one op's bytes. It returns false when they already
// differ from a known reference digest; otherwise the op is checked by
// verify.
func (c *checker) record(seed uint32, out []byte) bool {
	sum := sha256.Sum256(out)
	if want, ok := c.want[seed]; ok {
		return sum == want
	}
	c.pending = append(c.pending, pendingOp{seed, sum})
	return true
}

// verify computes the missing reference digests and returns how many
// pending ops returned other bytes.
func (c *checker) verify() (int, error) {
	var seeds []uint32
	for _, op := range c.pending {
		if _, ok := c.want[op.seed]; !ok {
			c.want[op.seed] = [sha256.Size]byte{}
			seeds = append(seeds, op.seed)
		}
	}
	if err := c.references(seeds); err != nil {
		return 0, err
	}
	bad := 0
	for _, op := range c.pending {
		if op.sum != c.want[op.seed] {
			fmt.Fprintf(os.Stderr, "perfbench: seed %d: report differs from the reference tier\n", op.seed)
			bad++
		}
	}
	c.pending = nil
	return bad, nil
}

// refWorkers is how many reference runs go at once. They run after the
// timed phase, when the host's two CPUs are otherwise idle.
const refWorkers = 2

// references computes the reference digests of seeds into c.want.
func (c *checker) references(seeds []uint32) error {
	sums := make([][sha256.Size]byte, len(seeds))
	errs := make([]error, len(seeds))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < refWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(seeds); i = int(next.Add(1) - 1) {
				ref, err := reference(c.spec(seeds[i]))
				sums[i], errs[i] = sha256.Sum256(ref), err
			}
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		if errs[i] != nil {
			return fmt.Errorf("seed %d: %w", seed, errs[i])
		}
		c.want[seed] = sums[i]
	}
	return nil
}

// reference runs a spec on the reference interpreter tier. The report
// names the tier that produced it, so the label is set back to the
// default tier's; every other byte must match as produced.
func reference(spec experiments.Spec) ([]byte, error) {
	opts := benchOptions()
	opts.Config.DisableExecTable = true
	opts.InterpTier = "reference"
	rep, err := experiments.RunSpec(spec, experiments.RunConfig{Options: opts})
	if err != nil {
		return nil, err
	}
	rep.Interp.Tier = "super"
	return rep.Marshal()
}

// calIters sizes one calibration slice at about 1.4 ms on a 2.1 GHz
// Xeon core.
const calIters = 600_000

var calSink uint64

// calibrate times a fixed, allocation-free integer loop that calls no
// repository code, three times, and returns the fastest slice in ms.
// It moves only with host speed, so a reviewer can tell host drift
// from a regression.
func calibrate() float64 {
	best := 0.0
	for k := 0; k < 3; k++ {
		start := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < calIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calSink += x
		if ms := float64(time.Since(start).Nanoseconds()) / 1e6; k == 0 || ms < best {
			best = ms
		}
	}
	return best
}

// vmHWM returns the process's peak resident set size in MiB.
func vmHWM() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

type cpuTimes struct{ gc, total float64 }

// cpuSeconds reads the runtime's GC and total CPU-time estimates.
func cpuSeconds() cpuTimes {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuTimes{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}
