package faults

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestParseProfileRoundTrip: the flag syntax parses, renders
// canonically, and re-parses to the same profile.
func TestParseProfileRoundTrip(t *testing.T) {
	p, err := ParseProfile("run:error=0.15,panic=0.05,delay=0.25@30ms; http:error=0.1 ;cache:delay=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if got := p[Run]; got.ErrorRate != 0.15 || got.PanicRate != 0.05 || got.DelayRate != 0.25 || got.Delay != 30*time.Millisecond {
		t.Errorf("run profile = %+v", got)
	}
	if got := p[Cache]; got.DelayRate != 0.5 || got.Delay != 10*time.Millisecond {
		t.Errorf("cache delay default: %+v", got)
	}
	s := p.String()
	p2, err := ParseProfile(s)
	if err != nil {
		t.Fatalf("re-parsing %q: %v", s, err)
	}
	if p2.String() != s {
		t.Errorf("round trip: %q -> %q", s, p2.String())
	}
}

func TestParseProfileRejects(t *testing.T) {
	for _, bad := range []string{
		"", "nonsense", "queue:error=0.5", "run:error=1.5",
		"run:error=-0.1", "run:frob=0.5", "run:error", "run:delay=0.5@-3ms",
		"conn:error=0.1", "body:error=0.1",
	} {
		if _, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q) accepted", bad)
		}
	}
}

// TestDeterministicSequences: with one seed, a point's decision
// sequence is identical run to run, and changing the seed changes it.
func TestDeterministicSequences(t *testing.T) {
	prof := Profile{Run: {ErrorRate: 0.3, PanicRate: 0.1, DelayRate: 0.2, Delay: time.Millisecond}}
	seq := func(seed uint64) []Action {
		inj := New(seed, prof)
		out := make([]Action, 200)
		for i := range out {
			out[i] = inj.Check(Run)
		}
		return out
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if (a[i].Err == nil) != (b[i].Err == nil) || a[i].Panic != b[i].Panic || a[i].Delay != b[i].Delay {
			t.Fatalf("probe %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := seq(43)
	same := true
	for i := range a {
		if (a[i].Err == nil) != (c[i].Err == nil) || a[i].Panic != c[i].Panic || a[i].Delay != c[i].Delay {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical 200-probe sequences")
	}
}

// TestInterleavingIndependence: probes of other points between two
// probes of Run must not change Run's decisions (per-point counters).
func TestInterleavingIndependence(t *testing.T) {
	prof := Profile{
		Run:  {ErrorRate: 0.5},
		HTTP: {ErrorRate: 0.5},
	}
	solo := New(7, prof)
	var want []bool
	for i := 0; i < 100; i++ {
		want = append(want, solo.Check(Run).Err != nil)
	}
	mixed := New(7, prof)
	for i := 0; i < 100; i++ {
		mixed.Check(HTTP) // interleaved traffic on another point
		if got := mixed.Check(Run).Err != nil; got != want[i] {
			t.Fatalf("probe %d: interleaved HTTP probes changed Run's decision", i)
		}
	}
}

// TestRatesApproximate: over many probes the observed rates track the
// profile (loose bounds; the draw is a hash, not audited randomness).
func TestRatesApproximate(t *testing.T) {
	inj := New(1988, Profile{Run: {ErrorRate: 0.2, DelayRate: 0.4, Delay: time.Millisecond}})
	const n = 5000
	var errs, delays int
	for i := 0; i < n; i++ {
		act := inj.Check(Run)
		if act.Err != nil {
			errs++
		}
		if act.Delay > 0 {
			delays++
		}
	}
	if float64(errs)/n < 0.15 || float64(errs)/n > 0.25 {
		t.Errorf("error rate %v, want ~0.2", float64(errs)/n)
	}
	if float64(delays)/n < 0.35 || float64(delays)/n > 0.45 {
		t.Errorf("delay rate %v, want ~0.4", float64(delays)/n)
	}
	m := inj.Metrics("faults/")
	if m["faults/run/probes"] != n || m["faults/run/errors"] != float64(errs) {
		t.Errorf("metrics disagree with observed: %v", m)
	}
	if m["faults/injected_total"] != float64(errs+delays) {
		t.Errorf("injected_total = %v, want %d", m["faults/injected_total"], errs+delays)
	}
}

// TestNilInjectorDetached: a nil injector neither faults nor counts.
func TestNilInjectorDetached(t *testing.T) {
	var inj *Injector
	if inj.Enabled() {
		t.Error("nil injector claims enabled")
	}
	act := inj.Check(Run)
	if act.Err != nil || act.Panic || act.Delay != 0 {
		t.Errorf("nil injector injected %+v", act)
	}
	if m := inj.Metrics("faults/"); m != nil {
		t.Errorf("nil injector has metrics %v", m)
	}
}

// TestInjectedErrorsWrapSentinel.
func TestInjectedErrorsWrapSentinel(t *testing.T) {
	inj := New(3, Profile{Run: {ErrorRate: 1}})
	act := inj.Check(Run)
	if act.Err == nil || !errors.Is(act.Err, ErrInjected) {
		t.Errorf("err = %v, want wrapped ErrInjected", act.Err)
	}
}

// TestConcurrentProbes: Check is safe and counts exactly under
// contention (run with -race).
func TestConcurrentProbes(t *testing.T) {
	inj := New(5, Profile{Run: {ErrorRate: 0.5}, HTTP: {DelayRate: 0.5, Delay: time.Microsecond}})
	var wg sync.WaitGroup
	const per = 500
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				inj.Check(Run)
				inj.Check(HTTP)
			}
		}()
	}
	wg.Wait()
	m := inj.Metrics("")
	if m["run/probes"] != 8*per || m["http/probes"] != 8*per {
		t.Errorf("probe counts %v/%v, want %d", m["run/probes"], m["http/probes"], 8*per)
	}
}
