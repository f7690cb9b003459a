package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/m68k"
	"repro/internal/matmul"
	"repro/internal/pasm"
)

// Span nesting levels inside an op. A deeper span's time is not its
// parent's self time; see ledger.
const (
	levelClient  = iota // client.Run (serving) or one module call (simulation)
	levelHandler        // one service handler call
	levelJob            // the job's queue wait and run, from its JobStatus
)

// span is one timed call into a module, on the host wall clock in
// nanoseconds (JobStatus timestamps carry no monotonic reading, so
// every span uses wall time).
type span struct {
	level      int
	layer      string
	start, end int64
}

func now() int64 { return time.Now().UnixNano() }

// simCounts are the exact simulated counts of one op, plus the host
// heap bytes the op's NewVM calls allocated.
type simCounts struct {
	simdInstrs, mimdInstrs int64
	queueStalls            int64
	netTransfers           int64
	memoHits, memoMisses   int64
	vmAllocBytes           uint64
}

func (c simCounts) instrs() int64 { return c.simdInstrs + c.mimdInstrs }

// opTrace records one traced op: spans kept in memory, reduced to a
// ledger when the op ends.
type opTrace struct {
	spans  []span
	counts simCounts
	// replay holds the module-level spans of the untimed re-execution
	// that follows a traced serving op (see replay).
	replay []span
}

func (t *opTrace) add(level int, layer string, start, end int64) {
	t.spans = append(t.spans, span{level: level, layer: layer, start: start, end: end})
}

// otherLayer receives the op time no layer span covers.
const otherLayer = "bench.other"

// ledger attributes every instant of the op [t0, t1] to the deepest
// span covering it (the latest-started one on a tie), or to
// otherLayer when no span covers it, and returns each layer's self
// time in ms. The values sum to the op's duration.
func ledger(t0, t1 int64, spans []span) map[string]float64 {
	cuts := []int64{t0, t1}
	for _, s := range spans {
		cuts = append(cuts, clamp(s.start, t0, t1), clamp(s.end, t0, t1))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]float64{}
	for i := 1; i < len(cuts); i++ {
		a, b := cuts[i-1], cuts[i]
		if a == b {
			continue
		}
		owner, level := otherLayer, -1
		for _, s := range spans {
			if s.start <= a && s.end >= b && s.level >= level {
				owner, level = s.layer, s.level
			}
		}
		out[owner] += float64(b-a) / 1e6
	}
	return out
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// closes reports whether a ledger's layers sum to the op's duration
// within ledgerTolerance.
func closes(t0, t1 int64, l map[string]float64) bool {
	total := float64(t1-t0) / 1e6
	sum := 0.0
	for _, v := range l {
		sum += v
	}
	d := sum - total
	return d <= ledgerTolerance*total && -d <= ledgerTolerance*total
}

// ledgerTolerance is the relative error a closed ledger may show
// (float rounding only: the attribution is exact in nanoseconds).
const ledgerTolerance = 1e-9

// heapAllocs reads the cumulative heap allocation counter without
// stopping the world (runtime.ReadMemStats would).
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// stepwise runs a cells-only spec the way experiments.RunSpec does,
// but calls the steps of matmul.Execute one at a time so each module
// call can be timed: normalize, then per cell generate, assemble, new
// VM, load operands, run, read back and verify, then marshal. It
// returns the same report bytes RunSpec plus Report.Marshal would
// (the correctness gate checks them against the reference digest).
// With a nil trace it records nothing.
func stepwise(tr *opTrace, opts experiments.Options, spec experiments.Spec) ([]byte, error) {
	rec := func(layer string, start int64) {
		if tr != nil {
			tr.add(levelClient, layer, start, now())
		}
	}
	t := now()
	n, err := spec.Normalize()
	rec("experiments.normalize", t)
	if err != nil {
		return nil, err
	}
	var counts simCounts
	res := &experiments.CustomResult{ClockHz: opts.Config.ClockHz}
	as, bs := map[int]matmul.Matrix{}, map[int]matmul.Matrix{}
	for _, cell := range n.Cells {
		t = now()
		ms, err := cell.MatmulSpec()
		if err != nil {
			return nil, err
		}
		p := ms.P
		if ms.Mode == matmul.Serial {
			p = 1
		}
		l, err := matmul.NewLayout(ms.N, p)
		if err != nil {
			return nil, err
		}
		src, err := matmul.Generate(ms)
		rec("matmul.generate", t)
		if err != nil {
			return nil, err
		}

		t = now()
		prog, err := m68k.Assemble(src)
		rec("m68k.assemble", t)
		if err != nil {
			return nil, err
		}

		t = now()
		a0 := heapAllocs()
		cfg := opts.Config
		if need := l.MemBytes(); cfg.PEMemBytes < need {
			cfg.PEMemBytes = need
		}
		vm, err := pasm.NewVM(cfg, l.P)
		if err == nil {
			err = vm.EstablishShift()
		}
		counts.vmAllocBytes += heapAllocs() - a0
		rec("pasm.new_vm", t)
		if err != nil {
			return nil, err
		}

		// The operand protocol of experiments' runner: identity A,
		// seeded-random B, built once per n within a spec.
		t = now()
		a, ok := as[ms.N]
		if !ok {
			a = matmul.Identity(ms.N)
			as[ms.N] = a
		}
		b, ok := bs[ms.N]
		if !ok {
			b = matmul.Random(ms.N, n.Seed+uint32(ms.N))
			bs[ms.N] = b
		}
		err = matmul.Load(vm, l, a, b)
		rec("matmul.load", t)
		if err != nil {
			return nil, err
		}

		t = now()
		var r pasm.RunResult
		if ms.Mode == matmul.SIMD || ms.Mode == matmul.Mixed {
			r, err = vm.RunSIMD(prog)
			rec("pasm.simd_run", t)
			counts.simdInstrs += r.Instrs + r.MCInstrs
		} else {
			r, err = vm.RunMIMD(prog)
			rec("pasm.mimd_run", t)
			counts.mimdInstrs += r.Instrs + r.MCInstrs
		}
		if err != nil {
			return nil, err
		}
		counts.queueStalls += r.QueueStallCycles
		counts.netTransfers += r.NetTransfers
		counts.memoHits += r.MemoHits
		counts.memoMisses += r.MemoMisses

		t = now()
		c, err := matmul.ReadC(vm, l)
		if err == nil && !matmul.Equal(c, b) {
			err = fmt.Errorf("%s n=%d p=%d muls=%d computed a wrong product", cell.Mode, cell.N, cell.P, cell.Muls)
		}
		rec("matmul.load", t)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, experiments.CustomRow{Cell: cell, Result: r})
	}

	t = now()
	rep := &experiments.Report{
		Schema:      experiments.SchemaV22,
		Full:        n.Full,
		PEs:         n.PEs,
		Seed:        n.Seed,
		Observe:     n.Observe,
		Interp:      &experiments.InterpInfo{Tier: "super", MemoHits: counts.memoHits, MemoMisses: counts.memoMisses},
		Experiments: []experiments.ReportExperiment{{Name: "custom", Summary: res.Summary()}},
	}
	out, err := rep.Marshal()
	rec("experiments.marshal", t)
	if tr != nil {
		tr.counts = counts
	}
	return out, err
}

// replay re-executes, untimed and right after a traced serving op, the
// module calls the service made for that op, so the per-layer table
// can split the service's opaque work into module times. A cold op's
// spec is simulated stepwise, and its bytes must equal the served
// report; a hit only normalizes the spec. Both then key it.
func replay(tr *opTrace, opts experiments.Options, spec experiments.Spec, simulate bool, served []byte) error {
	rt := &opTrace{}
	if simulate {
		got, err := stepwise(rt, opts, spec)
		if err != nil {
			return err
		}
		if string(got) != string(served) {
			return fmt.Errorf("stepwise replay of seed %d differs from the served report", spec.Seed)
		}
	} else {
		t := now()
		_, err := spec.Normalize()
		rt.add(levelClient, "experiments.normalize", t, now())
		if err != nil {
			return err
		}
	}
	t := now()
	_, err := spec.Key()
	rt.add(levelClient, "experiments.key", t, now())
	tr.replay, tr.counts = rt.spans, rt.counts
	return err
}
