package smoothing

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

// executeWith runs one smoothing configuration end to end on the
// given interpreter tier with a full observability recorder attached.
func executeWith(t *testing.T, spec Spec, img Image, tr tier) (pasm.RunResult, Image, *obs.Recorder) {
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
	cfg.Obs = obs.New(obs.Config{Events: obs.AllKinds, Metrics: true})
	vm, err := pasm.NewVM(cfg, l.P)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(vm, l, img); err != nil {
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
	out, err := ReadOut(vm, l)
	if err != nil {
		t.Fatal(err)
	}
	return res, out, cfg.Obs
}

// TestInterpreterTierEquivalenceSmoothing runs every smoothing
// program variant on the dynamic reference and superinstruction tiers
// and requires identical
// run results, identical output images, and event-for-event identical
// observability streams.
func TestInterpreterTierEquivalenceSmoothing(t *testing.T) {
	const h, w, p = 8, 16, 4
	img := RandomImage(h, w, 0xFACE)
	want := Reference(img)
	for _, mode := range []Mode{Serial, SIMD, MIMD, SMIMD} {
		spec := Spec{H: h, W: w, P: p, Mode: mode}
		var resRef pasm.RunResult
		var outRef Image
		var obsRef *obs.Recorder
		for _, tr := range allTiers {
			res, out, rec := executeWith(t, spec, img, tr)
			if !Equal(out, want) {
				t.Errorf("%v/%v: output is wrong", mode, tr)
			}
			if tr == tierReference {
				resRef, outRef, obsRef = res, out, rec
				continue
			}
			label := mode.String() + "/" + tr.String()
			if !reflect.DeepEqual(res, resRef) {
				t.Errorf("%s: run results differ:\nreference: %+v\ngot:       %+v", label, resRef, res)
			}
			if !Equal(out, outRef) {
				t.Errorf("%s: output images differ between interpreter tiers", label)
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
