package workload

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace")

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42, "web")
	b := NewStream(42, "web")
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical (seed, name) diverged at draw %d", i)
		}
	}
	c := NewStream(42, "bulk")
	d := NewStream(43, "web")
	if a.Uint64() == c.Uint64() && a.Uint64() == d.Uint64() {
		t.Fatal("distinct cohorts/seeds produced identical draws")
	}
}

// TestSamplerMeans: each normalized sampler has mean ~1 (they are the
// inter-arrival laws; Generate scales them by 1/rate, so a wrong mean
// silently mis-calibrates every cohort's rate).
func TestSamplerMeans(t *testing.T) {
	const n = 200000
	check := func(name string, mean float64) {
		if math.Abs(mean-1) > 0.03 {
			t.Errorf("%s sample mean %.4f, want ~1", name, mean)
		}
	}
	st := NewStream(7, "means")
	var sum float64
	for i := 0; i < n; i++ {
		sum += st.Exp()
	}
	check("exp", sum/n)
	for _, shape := range []float64{0.5, 2, 4} {
		sum = 0
		for i := 0; i < n; i++ {
			sum += st.Gamma(shape) / shape
		}
		check(fmt.Sprintf("gamma(%g)", shape), sum/n)
		sum = 0
		for i := 0; i < n; i++ {
			sum += st.Weibull(shape) / math.Gamma(1+1/shape)
		}
		check(fmt.Sprintf("weibull(%g)", shape), sum/n)
	}
}

func testConfig() GenConfig {
	return GenConfig{
		Name:     "test",
		Seed:     1988,
		Duration: 2 * time.Second,
		Cohorts: []Cohort{
			{
				Name: "probe", Clients: 3, Process: "poisson", RateRPS: 50,
				Class: "interactive", SLOMs: 50,
				Mix: []MixEntry{{Weight: 1, Spec: experiments.Spec{Cells: []experiments.CellSpec{{N: 8, P: 4, Muls: 1, Mode: "simd"}}}}},
			},
			{
				Name: "bulk", Clients: 2, Process: "weibull", Shape: 0.6, RateRPS: 10,
				Class: "batch",
				Ramp:  Ramp{Amplitude: 0.5, Period: time.Second},
				Mix: []MixEntry{
					{Weight: 3, Spec: experiments.Spec{Cells: []experiments.CellSpec{{N: 32, P: 16, Muls: 1, Mode: "smimd"}}}},
					{Weight: 1, Spec: experiments.Spec{Exps: []string{"table1"}}},
				},
				VarySeed: true,
			},
		},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t1, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b1, err := t1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := t2.Encode()
	if !bytes.Equal(b1, b2) {
		t.Fatal("same config generated different trace bytes")
	}
	if len(t1.Requests) == 0 {
		t.Fatal("empty trace")
	}
	// Open-loop sanity: ~rate*duration arrivals (60 rps * 2 s = 120).
	if n := len(t1.Requests); n < 60 || n > 240 {
		t.Errorf("got %d requests, want roughly 120", n)
	}
	var last int64
	for i, r := range t1.Requests {
		if r.Seq != i {
			t.Fatalf("request %d has seq %d", i, r.Seq)
		}
		if r.AtUS < last {
			t.Fatalf("request %d: time runs backwards (%d < %d)", i, r.AtUS, last)
		}
		last = r.AtUS
		if r.AtUS >= int64(2*time.Second/time.Microsecond) {
			t.Fatalf("request %d at %dus is past the duration", i, r.AtUS)
		}
		if !strings.HasPrefix(r.Client, "probe-") && !strings.HasPrefix(r.Client, "bulk-") {
			t.Fatalf("request %d has client %q outside both cohorts", i, r.Client)
		}
	}
}

// TestCohortIsolation: each cohort's arrivals are a pure function of
// (seed, its own config) — adding a second cohort must not perturb the
// first one's times or specs.
func TestCohortIsolation(t *testing.T) {
	cfg := testConfig()
	solo := cfg
	solo.Cohorts = solo.Cohorts[:1]
	both, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := Generate(solo)
	if err != nil {
		t.Fatal(err)
	}
	var probeInBoth []Request
	for _, r := range both.Requests {
		if strings.HasPrefix(r.Client, "probe-") {
			r.Seq = 0 // global seq differs by construction; ignore
			probeInBoth = append(probeInBoth, r)
		}
	}
	var probeAlone []Request
	for _, r := range alone.Requests {
		r.Seq = 0
		probeAlone = append(probeAlone, r)
	}
	if !reflect.DeepEqual(probeInBoth, probeAlone) {
		t.Fatalf("probe cohort changed when bulk cohort was added: %d vs %d requests", len(probeInBoth), len(probeAlone))
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(enc)
	if err != nil {
		t.Fatalf("parse of own encoding failed: %v", err)
	}
	enc2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("encode(parse(encode(t))) != encode(t)")
	}
	if !reflect.DeepEqual(tr.Requests, back.Requests) {
		t.Fatal("requests changed across round trip")
	}
}

func TestParseRejects(t *testing.T) {
	good, _ := Generate(testConfig())
	enc, _ := good.Encode()
	lines := strings.Split(strings.TrimSuffix(string(enc), "\n"), "\n")
	cases := map[string]string{
		"empty":          "",
		"no header":      lines[1],
		"bad version":    strings.Replace(lines[0], TraceVersion, "workload/tracev9", 1) + "\n" + lines[1],
		"not json":       "{",      // truncated header
		"count mismatch": lines[0], // header claims requests, none follow
		"seq skip":       lines[0] + "\n" + lines[2],
		"backwards time": lines[0] + "\n" + strings.Join([]string{lines[1], strings.Replace(lines[2], `"seq":1,"at_us":`, `"seq":1,"at_us":-9`, 1)}, "\n"),
	}
	for name, in := range cases {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("%s: Parse accepted invalid input", name)
		}
	}
}

func TestParseCohorts(t *testing.T) {
	cohorts, err := ParseCohorts(
		"name=web,clients=4,proc=poisson,rate=40,class=short,slo=50,mix=cell(8,4,1,simd):3|table1:1;" +
			"name=bulk,proc=weibull,shape=0.6,rate=5,class=batch,pes=64,amp=0.4,period=10s,varyseed=1,mix=cell(64,64,1,smimd)")
	if err != nil {
		t.Fatal(err)
	}
	if len(cohorts) != 2 {
		t.Fatalf("got %d cohorts, want 2", len(cohorts))
	}
	web := cohorts[0]
	if web.Name != "web" || web.Clients != 4 || web.RateRPS != 40 || web.Class != "short" || web.SLOMs != 50 {
		t.Errorf("web cohort parsed wrong: %+v", web)
	}
	if len(web.Mix) != 2 || web.Mix[0].Weight != 3 || web.Mix[0].Spec.Cells[0].N != 8 {
		t.Errorf("web mix parsed wrong: %+v", web.Mix)
	}
	bulk := cohorts[1]
	if bulk.Process != "weibull" || bulk.Shape != 0.6 || !bulk.VarySeed {
		t.Errorf("bulk cohort parsed wrong: %+v", bulk)
	}
	if bulk.Mix[0].Spec.PEs != 64 || bulk.Mix[0].Spec.Cells[0].P != 64 {
		t.Errorf("pes=64 not applied to bulk mix: %+v", bulk.Mix[0].Spec)
	}
	if bulk.Ramp.Amplitude != 0.4 || bulk.Ramp.Period != 10*time.Second {
		t.Errorf("ramp parsed wrong: %+v", bulk.Ramp)
	}

	for _, bad := range []string{
		"",
		"rate=5,mix=table1",                    // no name
		"name=x,mix=table1",                    // no rate
		"name=x,rate=5",                        // no mix
		"name=x,rate=5,mix=nosuchexp",          // unknown experiment
		"name=x,rate=5,mix=cell(8,4,1)",        // cell arity
		"name=x,rate=5,mix=table1,bogus=1",     // unknown key
		"name=x,rate=5,proc=pareto,mix=table1", // unknown process
		"name=x,rate=5,mix=table1;name=x,rate=5,mix=table1", // dup handled by Generate, not here
	} {
		if bad == "name=x,rate=5,mix=table1;name=x,rate=5,mix=table1" {
			// Duplicate names parse fine; Generate rejects them.
			if _, err := ParseCohorts(bad); err != nil {
				t.Errorf("ParseCohorts(%q) rejected duplicate names (Generate's job): %v", bad, err)
			}
			continue
		}
		if _, err := ParseCohorts(bad); err == nil {
			t.Errorf("ParseCohorts(%q) accepted invalid input", bad)
		}
	}
}

// goldenConfig is the config behind testdata/golden_200.tracev1 — the
// committed heavy-tailed two-class trace the scheduler's replay
// regression, slo-smoke, and the SLO bench all consume.
func goldenConfig() GenConfig {
	return GenConfig{
		Name:     "golden-200",
		Seed:     1988,
		Duration: 4 * time.Second,
		Cohorts: []Cohort{
			{
				Name: "probe", Clients: 4, Process: "poisson", RateRPS: 45,
				Class: "interactive", SLOMs: 50,
				Mix: []MixEntry{
					{Weight: 3, Spec: experiments.Spec{Cells: []experiments.CellSpec{{N: 8, P: 4, Muls: 1, Mode: "simd"}}}},
					{Weight: 1, Spec: experiments.Spec{Cells: []experiments.CellSpec{{N: 4, P: 2, Muls: 1, Mode: "mimd"}}}},
				},
				VarySeed: true,
			},
			{
				Name: "sweep", Clients: 2, Process: "weibull", Shape: 0.6, RateRPS: 12,
				Class: "batch",
				Ramp:  Ramp{Amplitude: 0.4, Period: 2 * time.Second},
				Mix: []MixEntry{
					{Weight: 2, Spec: experiments.Spec{Cells: []experiments.CellSpec{{N: 32, P: 16, Muls: 1, Mode: "smimd"}}}},
					{Weight: 1, Spec: experiments.Spec{Cells: []experiments.CellSpec{{N: 16, P: 8, Muls: 2, Mode: "mixed"}}}},
				},
				VarySeed: true,
			},
		},
	}
}

const goldenLen = 200

// goldenTrace regenerates the committed 200-request trace from its
// config (generate, truncate to exactly 200 arrivals).
func goldenTrace() (*Trace, error) {
	tr, err := Generate(goldenConfig())
	if err != nil {
		return nil, err
	}
	if len(tr.Requests) < goldenLen {
		return nil, fmt.Errorf("workload: golden config produced only %d requests, want >= %d", len(tr.Requests), goldenLen)
	}
	tr.Requests = tr.Requests[:goldenLen]
	tr.Header.Requests = goldenLen
	return tr, nil
}

// TestgoldenTrace pins the committed trace byte-for-byte to its
// generator config: if either drifts, replay regressions downstream
// would silently test a different workload. Regenerate with -update.
func TestGoldenTrace(t *testing.T) {
	tr, err := goldenTrace()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_200.tracev1")
	if *updateGolden {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, enc) {
		t.Fatalf("committed golden trace differs from generator output (%d vs %d bytes); run with -update if intended", len(got), len(enc))
	}
	parsed, err := Parse(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Requests) != goldenLen {
		t.Fatalf("golden trace has %d requests, want %d", len(parsed.Requests), goldenLen)
	}
	classes := map[string]int{}
	for _, r := range parsed.Requests {
		classes[r.Class]++
	}
	if classes["interactive"] == 0 || classes["batch"] == 0 {
		t.Fatalf("golden trace must exercise both SLO classes, got %v", classes)
	}
}
