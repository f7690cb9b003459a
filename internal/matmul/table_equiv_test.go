package matmul

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/pasm"
)

// tier selects one of the two interpreter configurations under
// differential test: the dynamic reference path and the
// superinstruction tier.
type tier int

const (
	tierReference tier = iota
	tierSuper
)

func (tr tier) String() string {
	if tr == tierReference {
		return "reference"
	}
	return "super"
}

// apply configures cfg for the tier the same way cmd/pasmbench's
// -interp flag does.
func (tr tier) apply(cfg *pasm.Config) {
	cfg.DisableExecTable = tr == tierReference
}

// executeWith runs one spec end to end on the given interpreter tier
// with a full observability recorder attached.
func executeWith(t *testing.T, spec Spec, a, b Matrix, tr tier) (pasm.RunResult, Matrix, *obs.Recorder) {
	t.Helper()
	rec := obs.New(obs.Config{Events: obs.AllKinds, Metrics: true})
	res, c := executeCfg(t, spec, a, b, tr, func(cfg *pasm.Config) { cfg.Obs = rec })
	return res, c, rec
}

// executeCfg runs one spec end to end on the given interpreter tier,
// with edit (if non-nil) applied to the machine configuration last.
func executeCfg(t *testing.T, spec Spec, a, b Matrix, tr tier, edit func(*pasm.Config)) (pasm.RunResult, Matrix) {
	t.Helper()
	prog, l, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pasm.DefaultConfig()
	if need := l.MemBytes(); cfg.PEMemBytes < need {
		cfg.PEMemBytes = need
	}
	tr.apply(&cfg)
	if edit != nil {
		edit(&cfg)
	}
	vm, err := pasm.NewVM(cfg, l.P)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.EstablishShift(); err != nil {
		t.Fatal(err)
	}
	if err := Load(vm, l, a, b); err != nil {
		t.Fatal(err)
	}
	var res pasm.RunResult
	switch spec.Mode {
	case SIMD, Mixed:
		res, err = vm.RunSIMD(prog)
	default:
		res, err = vm.RunMIMD(prog)
	}
	if err != nil {
		t.Fatalf("%v run: %v", spec.Mode, err)
	}
	c, err := ReadC(vm, l)
	if err != nil {
		t.Fatal(err)
	}
	return res, c
}

// diffObs requires two recorders to have captured the same simulated
// run: identical merged event streams (every field, in order) and
// identical flattened metrics. Any divergence means the two
// interpreter paths disagree about what the machine did, not just
// about the final answer.
func diffObs(t *testing.T, label string, ref, got *obs.Recorder) {
	t.Helper()
	re, ge := ref.Merged(), got.Merged()
	if len(re) != len(ge) {
		t.Errorf("%s: event counts differ: reference %d vs %d", label, len(re), len(ge))
		return
	}
	for i := range re {
		if re[i] != ge[i] {
			t.Errorf("%s: event %d differs: reference %+v vs %+v", label, i, re[i], ge[i])
			return
		}
	}
	rm, gm := ref.Metrics().Flatten(""), got.Metrics().Flatten("")
	if !reflect.DeepEqual(rm, gm) {
		t.Errorf("%s: metrics differ:\nreference: %v\ngot:       %v", label, rm, gm)
	}
}

// diffResults requires two run results to describe the same simulated
// execution.
func diffResults(t *testing.T, label string, ref, got pasm.RunResult) {
	t.Helper()
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("%s: run results differ:\nreference: %+v\ngot:       %+v", label, ref, got)
	}
}

// TestInterpreterTierEquivalenceAllPrograms runs all generated
// matrix-multiplication programs on the dynamic reference and
// superinstruction tiers and requires
// identical cycle counts, per-PE clocks, region breakdowns,
// instruction counts, results, and (event for event) identical
// observability streams.
func TestInterpreterTierEquivalenceAllPrograms(t *testing.T) {
	const n, p = 8, 4
	a := Identity(n)
	b := Random(n, 0xC0FFEE)
	for _, mode := range []Mode{Serial, SIMD, MIMD, SMIMD} {
		spec := Spec{N: n, P: p, Muls: 2, Mode: mode}
		resRef, cRef, obsRef := executeWith(t, spec, a, b, tierReference)
		want := Reference(a, b)
		if !Equal(cRef, want) {
			t.Errorf("%v: reference result is wrong", mode)
		}
		res, c, rec := executeWith(t, spec, a, b, tierSuper)
		label := mode.String() + "/super"
		diffResults(t, label, resRef, res)
		diffObs(t, label, obsRef, rec)
		if !Equal(c, cRef) {
			t.Errorf("%s: result matrices differ", label)
		}
	}
}

// TestSIMDTierEquivalenceFusedShape runs SIMD matmul at the shape the
// lockstep fast path is built for: 16 PEs in 4 MC groups, a muls chain
// long enough to fuse into MULU runs, and a Fetch Unit queue so shallow
// the controller stalls on a full queue. No recorder is attached, so
// the super tier takes its fused-run replay (an attached recorder turns
// it off). Run results, including the queue's stall and occupancy
// counters and the PEs' starve cycles, and the product must match the
// reference tier.
func TestSIMDTierEquivalenceFusedShape(t *testing.T) {
	const n, p = 16, 16
	a := Random(n, 0xBEEF)
	b := Random(n, 0xC0FFEE)
	spec := Spec{N: n, P: p, Muls: 5, Mode: SIMD}
	shallow := func(cfg *pasm.Config) { cfg.QueueDepthWords = 4 }
	resRef, cRef := executeCfg(t, spec, a, b, tierReference, shallow)
	if !Equal(cRef, Reference(a, b)) {
		t.Fatal("reference result is wrong")
	}
	if resRef.QueueStallCycles == 0 {
		t.Fatal("queue never filled: the shape does not exercise full-queue stalls")
	}
	res, c := executeCfg(t, spec, a, b, tierSuper, shallow)
	diffResults(t, "SIMD/fused/super", resRef, res)
	if !Equal(c, cRef) {
		t.Error("super: result matrices differ")
	}
}
