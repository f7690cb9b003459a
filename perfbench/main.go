// Command perfbench is the repository's performance benchmark. It runs
// one of three closed-loop workloads in-process, from a single calling
// goroutine, checks every op's report bytes against the reference
// interpreter tier, and prints one JSON result line: the end-to-end
// metrics, or with --trace 1 the per-layer metrics of a traced run.
//
//	go run . --workload sim-lockstep --seed 1 --seconds 10 --trace 0
//
// perfbench/run.sh builds it from source and runs it with the same
// flags; see perfbench/NOTES.md for the workloads, the metrics and
// their measured spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/experiments"
)

func main() {
	workload := flag.String("workload", "", "workload: sim-lockstep, serve-cold or serve-hit")
	seed := flag.Uint("seed", 1, "workload seed (the ops' specs derive from it)")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced ledger and prints the per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, note, err := run(*workload, uint32(*seed), time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(note)
	fmt.Println(string(out))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupRuns is how many times a run repeats its set-up; setup_s is
// their median.
const setupRuns = 5

// latSamples and tracedSamples bound the op latencies and traced-op
// ledgers a phase keeps; a phase with more ops keeps a uniform sample.
// Only serve-hit completes more ops than latSamples.
const (
	latSamples    = 1 << 16
	tracedSamples = 1 << 12
)

// calEvery spaces the host-speed probes between ops.
const calEvery = 500 * time.Millisecond

// bench is one workload's state for one run.
type bench struct {
	gen   *generator
	opts  experiments.Options
	srv   *server // nil for sim-lockstep
	check *checker
	cal   []float64
}

func run(workload string, seed uint32, d time.Duration, traced bool) (result, string, error) {
	gen, err := newGenerator(workload, seed)
	if err != nil {
		return result{}, "", err
	}
	b := &bench{gen: gen, opts: benchOptions(), check: newChecker(gen)}
	defer func() {
		if b.srv != nil {
			b.srv.close()
		}
	}()

	if workload == serveHit {
		hot := make([]uint32, hotSetSize)
		for k := range hot {
			hot[k] = gen.hotSpec(k).Seed
		}
		if err := b.check.references(hot); err != nil {
			return result{}, "", fmt.Errorf("reference digests: %w", err)
		}
	}
	setups := make([]float64, setupRuns)
	for r := range setups {
		if b.srv != nil {
			b.srv.close()
			b.srv = nil
		}
		runtime.GC() // each set-up, and then the timed phase, starts from a collected heap
		start := time.Now()
		if err := b.setup(); err != nil {
			return result{}, "", fmt.Errorf("set-up: %w", err)
		}
		setups[r] = time.Since(start).Seconds()
	}
	runtime.GC()
	first := b.warmCount()

	var res result
	var p *phase
	if !traced {
		p, err = b.phase(first, d, false)
		if err != nil {
			return result{}, "", err
		}
		lat := p.lat.buf
		v := map[string]float64{
			"setup_s":   median(setups),
			"ops_per_s": p.rate(),
			"p50_ms":    quantile(lat, 0.5),
			"p90_ms":    quantile(lat, 0.9),
			"mem_mb":    p.hwmMiB,
			"alloc_mb":  float64(p.allocBytes) / float64(p.ops) / 1e6,
		}
		res.Metrics = map[string]metric{}
		for _, e := range endToEnd {
			res.Metrics[e.name] = metric{v[e.name], e.unit}
		}
	} else {
		plain, err := b.phase(first, d/2, false)
		if err != nil {
			return result{}, "", err
		}
		p, err = b.phase(first+plain.ops, d/2, true)
		if err != nil {
			return result{}, "", err
		}
		res.Metrics = b.layerMetrics(plain, p)
		p.ops += plain.ops
		p.failed += plain.failed
	}
	bad, err := b.check.verify()
	if err != nil {
		return result{}, "", fmt.Errorf("reference digests: %w", err)
	}
	res.Attempted = p.ops
	res.Failed = p.failed + bad
	res.Correct = res.Failed == 0 && p.ops > 0
	note := fmt.Sprintf("# %s seed=%d trace=%t: %d timed ops (p50/p90 over a uniform sample of %d), %d failed, setup_s over %d set-ups, cal_ms=%.4f over %d probes",
		workload, seed, traced, res.Attempted, len(p.lat.buf), res.Failed, setupRuns, median(b.cal), len(b.cal))
	return res, note, nil
}

// warmCount is the number of op-stream entries set-up consumes.
func (b *bench) warmCount() int {
	if b.gen.workload == serveHit {
		return warmHitOps
	}
	return warmOps
}

// setup does the workload's fixed preparation: start the service,
// fill its cache to the bound (serve-cold) or with the hot set
// (serve-hit), and run the first ops of the stream as a warm-up.
func (b *bench) setup() error {
	switch b.gen.workload {
	case serveCold:
		b.srv = newServer()
		for k := 0; k < cacheEntries; k++ {
			if _, _, err := b.srv.run(b.gen.fillSpec(k)); err != nil {
				return err
			}
		}
	case serveHit:
		b.srv = newServer()
		for k := 0; k < hotSetSize; k++ {
			if _, _, err := b.srv.run(b.gen.hotSpec(k)); err != nil {
				return err
			}
		}
	}
	for i := 0; i < b.warmCount(); i++ {
		if _, err := b.op(b.gen.next(i), nil); err != nil {
			return err
		}
	}
	return nil
}

// op runs one op. A nil trace is the untimed-by-layer path users take;
// a traced simulation op calls the steps of matmul.Execute itself, and
// a traced serving op records the service's handler calls and the
// job's queue and run intervals.
func (b *bench) op(spec experiments.Spec, tr *opTrace) ([]byte, error) {
	if b.srv == nil {
		if tr != nil {
			return stepwise(tr, b.opts, spec)
		}
		rep, err := experiments.RunSpec(spec, experiments.RunConfig{Options: b.opts})
		if err != nil {
			return nil, err
		}
		return rep.Marshal()
	}
	b.srv.rt.tr = tr
	t := now()
	out, st, err := b.srv.run(spec)
	if tr == nil {
		return out, err
	}
	tr.add(levelClient, "client.codec", t, now())
	b.srv.rt.tr = nil
	if err == nil && !st.Cached {
		created, e1 := time.Parse(time.RFC3339Nano, st.Created)
		started, e2 := time.Parse(time.RFC3339Nano, st.Started)
		finished, e3 := time.Parse(time.RFC3339Nano, st.Finished)
		if e1 != nil || e2 != nil || e3 != nil {
			return out, fmt.Errorf("job %s has unparseable timestamps", st.ID)
		}
		tr.add(levelJob, "service.queue_wait", created.UnixNano(), started.UnixNano())
		tr.add(levelJob, "service.run", started.UnixNano(), finished.UnixNano())
	}
	return out, err
}

// phase is one timed stretch of the op stream.
type phase struct {
	ops, failed int
	busy        time.Duration       // sum of op latencies
	lat         *reservoir[float64] // op latencies, ms
	allocBytes  uint64
	mallocs     uint64
	gcs         uint32
	gcCPU       float64 // share of the phase's CPU time spent in GC
	hwmMiB      float64
	traced      *reservoir[tracedOp]
	cacheHits   float64
	cacheMisses float64
	evictions   float64
}

// tracedOp is one traced op's reduced record.
type tracedOp struct {
	total  float64 // ms
	client float64 // ms; the client.Run call (serving)
	layers map[string]float64
	counts simCounts
}

// phase runs ops first, first+1, ... until d has passed (at least one
// op), probing host speed every calEvery between ops. Latency and
// ops_per_s cover the ops alone; the allocation, GC and cache counters
// cover the whole phase, whose bookkeeping between ops allocates next
// to nothing.
func (b *bench) phase(first int, d time.Duration, traced bool) (*phase, error) {
	p := &phase{lat: newReservoir[float64](latSamples), traced: newReservoir[tracedOp](tracedSamples)}
	var m0, m1 runtime.MemStats
	cpu0 := cpuSeconds()
	cache0 := b.cacheMetrics()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	nextCal := start
	for i := first; ; i++ {
		now0 := time.Now()
		if i > first && now0.Sub(start) >= d {
			break
		}
		if !now0.Before(nextCal) {
			b.cal = append(b.cal, calibrate())
			nextCal = time.Now().Add(calEvery)
		}
		spec := b.gen.next(i)
		var tr *opTrace
		if traced {
			tr = &opTrace{}
		}
		t0, opStart := now(), time.Now()
		out, err := b.op(spec, tr)
		lat := time.Since(opStart)
		t1 := now()
		p.ops++
		p.busy += lat
		p.lat.add(float64(lat.Nanoseconds()) / 1e6)
		if err == nil && tr != nil {
			err = b.reduce(p, spec, tr, t0, t1, out)
		}
		if err == nil && !b.check.record(spec.Seed, out) {
			err = fmt.Errorf("report differs from the reference tier")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: op %d (seed %d): %v\n", i, spec.Seed, err)
			p.failed++
		}
	}
	runtime.ReadMemStats(&m1)
	cpu1 := cpuSeconds()
	cache1 := b.cacheMetrics()
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.gcs = m1.NumGC - m0.NumGC
	if dt := cpu1.total - cpu0.total; dt > 0 {
		p.gcCPU = (cpu1.gc - cpu0.gc) / dt
	}
	p.cacheHits = cache1["cache/hits"] - cache0["cache/hits"]
	p.cacheMisses = cache1["cache/misses"] - cache0["cache/misses"]
	p.evictions = cache1["cache/evictions"] - cache0["cache/evictions"]
	hwm, err := vmHWM()
	if err != nil {
		return nil, err
	}
	p.hwmMiB = hwm
	return p, nil
}

// reduce turns a traced op's spans into its ledger, after the replay
// that splits a serving op's service work into module times.
func (b *bench) reduce(p *phase, spec experiments.Spec, tr *opTrace, t0, t1 int64, out []byte) error {
	if b.srv != nil {
		if err := replay(tr, b.opts, spec, b.gen.workload == serveCold, out); err != nil {
			return err
		}
	}
	l := ledger(t0, t1, tr.spans)
	if !closes(t0, t1, l) {
		return fmt.Errorf("ledger does not close: %v over %.6f ms", l, float64(t1-t0)/1e6)
	}
	op := tracedOp{total: float64(t1-t0) / 1e6, layers: l, counts: tr.counts}
	for _, s := range tr.spans {
		if s.layer == "client.codec" {
			op.client = float64(s.end-s.start) / 1e6
		}
	}
	// The replay's module spans are sequential; each is its own self
	// time. They split the service's work and stay out of the op's
	// ledger, which they did not take part in.
	for _, s := range tr.replay {
		op.layers[s.layer] += float64(s.end-s.start) / 1e6
	}
	p.traced.add(op)
	return nil
}

func (b *bench) cacheMetrics() map[string]float64 {
	if b.srv == nil {
		return map[string]float64{}
	}
	return b.srv.svc.Metrics()
}

// layerMetrics reduces the traced phase, and the untraced phase just
// before it, to the per-layer metrics: per-op medians unless noted.
func (b *bench) layerMetrics(plain, p *phase) map[string]metric {
	med := func(f func(op tracedOp) float64) float64 {
		v := make([]float64, len(p.traced.buf))
		for i, op := range p.traced.buf {
			v[i] = f(op)
		}
		return median(v)
	}
	v := map[string]float64{}
	for _, lm := range layerTable {
		if lm.layer != "" {
			layer, scale := lm.layer, lm.scale
			v[lm.name] = med(func(op tracedOp) float64 { return op.layers[layer] * scale })
		}
	}
	perInstr := func(layer string, instrs func(c simCounts) int64) func(op tracedOp) float64 {
		return func(op tracedOp) float64 {
			if n := instrs(op.counts); n > 0 {
				return op.layers[layer] * 1e6 / float64(n)
			}
			return 0
		}
	}
	v["pasm.simd_ns_per_instr"] = med(perInstr("pasm.simd_run", func(c simCounts) int64 { return c.simdInstrs }))
	v["pasm.mimd_ns_per_instr"] = med(perInstr("pasm.mimd_run", func(c simCounts) int64 { return c.mimdInstrs }))
	v["pasm.new_vm_alloc_mb"] = med(func(op tracedOp) float64 { return float64(op.counts.vmAllocBytes) / 1e6 })
	v["pasm.memo_hit_ratio"] = med(func(op tracedOp) float64 { return ratio(op.counts.memoHits, op.counts.memoMisses) })
	v["pasm.instrs"] = med(func(op tracedOp) float64 { return float64(op.counts.instrs()) })
	v["fetchunit.queue_stall_cycles"] = med(func(op tracedOp) float64 { return float64(op.counts.queueStalls) })
	v["escube.net_transfers"] = med(func(op tracedOp) float64 { return float64(op.counts.netTransfers) })
	if b.srv != nil {
		v["service.dispatch_ms"] = med(func(op tracedOp) float64 { return op.client - op.layers["service.run"] })
	}
	v["bench.traced_op_ms"] = med(func(op tracedOp) float64 { return op.total })

	// Phase totals, per op: the cache counters over the traced half,
	// the Go runtime's over the untraced one.
	v["cache.hit_ratio"] = ratio(int64(p.cacheHits), int64(p.cacheMisses))
	v["cache.evictions_per_op"] = p.evictions / float64(p.ops)
	v["go.gc_per_op"] = float64(plain.gcs) / float64(plain.ops)
	v["go.gc_cpu_frac"] = plain.gcCPU
	v["go.mallocs_per_op"] = float64(plain.mallocs) / float64(plain.ops)
	v["bench.trace_overhead_pct"] = (plain.rate()/p.rate() - 1) * 100
	v["bench.cal_ms"] = median(b.cal)

	m := map[string]metric{}
	for _, lm := range layerTable {
		m[lm.name] = metric{v[lm.name], lm.unit}
	}
	return m
}

// rate is the phase's ops per second of op time.
func (p *phase) rate() float64 { return float64(p.ops) / p.busy.Seconds() }

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// endToEnd lists the metrics of an untraced run, as a user of the
// service sees them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},     // median of setupRuns set-ups
	{"ops_per_s", "1/s"}, // ops per second of op time
	{"p50_ms", "ms"},     // median op latency
	{"p90_ms", "ms"},     // op latency at p90
	{"mem_mb", "MiB"},    // peak RSS (VmHWM) after the timed phase
	{"alloc_mb", "MB/op"},
}

// layerTable lists every per-layer metric. Rows with a layer are the
// per-op median of that layer's self time (ms), times scale; the
// others are computed in layerMetrics, and read 0 on a workload that
// does not exercise them.
var layerTable = []struct {
	name, unit, layer string
	scale             float64
}{
	{"experiments.normalize_us", "us", "experiments.normalize", 1e3},
	{"experiments.key_us", "us", "experiments.key", 1e3},
	{"experiments.marshal_ms", "ms", "experiments.marshal", 1},
	{"matmul.generate_ms", "ms", "matmul.generate", 1},
	{"matmul.load_ms", "ms", "matmul.load", 1},
	{"m68k.assemble_ms", "ms", "m68k.assemble", 1},
	{"pasm.new_vm_ms", "ms", "pasm.new_vm", 1},
	{"pasm.new_vm_alloc_mb", "MB", "", 0},
	{"pasm.simd_run_ms", "ms", "pasm.simd_run", 1},
	{"pasm.simd_ns_per_instr", "ns", "", 0},
	{"pasm.mimd_run_ms", "ms", "pasm.mimd_run", 1},
	{"pasm.mimd_ns_per_instr", "ns", "", 0},
	{"pasm.memo_hit_ratio", "ratio", "", 0},
	{"pasm.instrs", "count", "", 0},
	{"fetchunit.queue_stall_cycles", "cycles", "", 0},
	{"escube.net_transfers", "count", "", 0},
	{"service.submit_us", "us", "service.submit", 1e3},
	{"service.wait_us", "us", "service.wait", 1e3},
	{"service.result_us", "us", "service.result", 1e3},
	{"service.queue_wait_ms", "ms", "service.queue_wait", 1},
	{"service.run_ms", "ms", "service.run", 1},
	{"service.dispatch_ms", "ms", "", 0},
	{"cache.hit_ratio", "ratio", "", 0},
	{"cache.evictions_per_op", "count", "", 0},
	{"client.codec_us", "us", "client.codec", 1e3},
	{"go.gc_per_op", "count", "", 0},
	{"go.gc_cpu_frac", "ratio", "", 0},
	{"go.mallocs_per_op", "count", "", 0},
	{"bench.traced_op_ms", "ms", "", 0},
	{"bench.other_ms", "ms", otherLayer, 1},
	{"bench.trace_overhead_pct", "%", "", 0},
	{"bench.cal_ms", "ms", "", 0},
}

// median and quantile interpolate linearly between order statistics.
func median(v []float64) float64 { return quantile(v, 0.5) }

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
