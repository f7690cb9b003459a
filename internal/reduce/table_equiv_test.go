package reduce

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/pasm"
)

// tier selects one of the two interpreter configurations under
// differential test (see cmd/pasmbench's -interp flag).
type tier int

const (
	tierReference tier = iota
	tierSuper
)

var allTiers = []tier{tierReference, tierSuper}

func (tr tier) String() string {
	if tr == tierReference {
		return "reference"
	}
	return "super"
}

func (tr tier) apply(cfg *pasm.Config) {
	cfg.DisableExecTable = tr == tierReference
}

// executeWith runs one reduction end to end on the given interpreter
// tier with a full observability recorder attached. workers > 1
// advances MIMD-section PEs on parallel host goroutines.
func executeWith(t *testing.T, spec Spec, v []uint16, tr tier, workers int) (pasm.RunResult, []uint16, *obs.Recorder) {
	t.Helper()
	prog, l, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	if need := l.MemBytes(); cfg.PEMemBytes < need {
		cfg.PEMemBytes = need
	}
	tr.apply(&cfg)
	cfg.HostWorkers = workers
	cfg.Obs = obs.New(obs.Config{Events: obs.AllKinds, Metrics: true})
	vm, err := pasm.NewVM(cfg, l.P)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(vm, l, v); err != nil {
		t.Fatal(err)
	}
	var res pasm.RunResult
	if spec.Mode == SIMD {
		res, err = vm.RunSIMD(prog)
	} else {
		res, err = vm.RunMIMD(prog)
	}
	if err != nil {
		t.Fatalf("%v run: %v", spec.Mode, err)
	}
	sums, err := ReadResults(vm, l)
	if err != nil {
		t.Fatal(err)
	}
	return res, sums, cfg.Obs
}

// TestInterpreterTierEquivalenceReduce runs every reduction program
// variant on the dynamic reference and superinstruction tiers and
// requires identical run results
// (cycle counts, per-PE clocks, region breakdowns), identical sums,
// and event-for-event identical observability streams. The super tier
// runs with parallel host workers so `go test -race` exercises the
// engine's parallel initial advance.
func TestInterpreterTierEquivalenceReduce(t *testing.T) {
	const n, p = 64, 8
	v := RandomVector(n, 0xBEEF)
	want := Reference(v)
	for _, mode := range []Mode{Serial, SIMD, MIMD, SMIMD} {
		spec := Spec{N: n, P: p, Mode: mode}
		var resRef pasm.RunResult
		var sumsRef []uint16
		var obsRef *obs.Recorder
		for _, tr := range allTiers {
			workers := 1
			if tr == tierSuper {
				workers = 4
			}
			res, sums, rec := executeWith(t, spec, v, tr, workers)
			for i, s := range sums {
				if s != want {
					t.Errorf("%v/%v: PE %d sum = %d, want %d", mode, tr, i, s, want)
				}
			}
			if tr == tierReference {
				resRef, sumsRef, obsRef = res, sums, rec
				continue
			}
			label := mode.String() + "/" + tr.String()
			if !reflect.DeepEqual(res, resRef) {
				t.Errorf("%s: run results differ:\nreference: %+v\ngot:       %+v", label, resRef, res)
			}
			if !reflect.DeepEqual(sums, sumsRef) {
				t.Errorf("%s: sums differ: reference %v vs %v", label, sumsRef, sums)
			}
			re, ge := obsRef.Merged(), rec.Merged()
			if len(re) != len(ge) {
				t.Errorf("%s: event counts differ: reference %d vs %d", label, len(re), len(ge))
				continue
			}
			for i := range re {
				if re[i] != ge[i] {
					t.Errorf("%s: event %d differs: reference %+v vs %+v", label, i, re[i], ge[i])
					break
				}
			}
			rm, gm := obsRef.Metrics().Flatten(""), rec.Metrics().Flatten("")
			if !reflect.DeepEqual(rm, gm) {
				t.Errorf("%s: metrics differ:\nreference: %v\ngot:       %v", label, rm, gm)
			}
		}
	}
}
