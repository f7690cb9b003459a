//go:build e2e

package e2e

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

// slowCell is a pes-PE MIMD cell of order n (n=256 runs ~2 s, n=128
// ~1 s): long enough to observe queue states and partition overlap.
// Distinct seeds keep submissions from coalescing.
func slowCell(n, pes int, seed uint32) experiments.Spec {
	return experiments.Spec{
		Cells: []experiments.CellSpec{{N: n, P: 4, Muls: 2, Mode: "mimd"}},
		PEs:   pes,
		Seed:  seed,
	}
}

// wantStatus checks that err is an API error with the given HTTP
// status and returns it.
func wantStatus(t *testing.T, what string, err error, status int) *client.APIError {
	t.Helper()
	var api *client.APIError
	if !errors.As(err, &api) || api.Status != status {
		t.Fatalf("%s: err = %v, want HTTP %d", what, err, status)
	}
	return api
}

// TestService: the pasmd serving path. /healthz is sane; a Table-1
// spec is byte-identical to local `pasmbench -json` on a cold miss, on
// a cache hit and through `pasmbench -remote`; a full queue answers 503
// with Retry-After; and SIGTERM drains without losing an accepted job,
// then exits 0.
func TestService(t *testing.T) {
	want := output(t, "pasmbench", "-exp", "table1", "-seed", "1988", "-parallel", "2", "-host-timings=false", "-json", "-")
	daemon, cl := startPasmd(t, "-queue", "1", "-workers", "1", "-parallel", "2")
	ctx := testContext(t, 3*time.Minute)

	// The gateway routes on these /healthz fields.
	h, err := cl.HealthInfo(ctx)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if h.Status != "ok" || h.Draining || h.Workers != 1 || h.Code != experiments.CodeVersion {
		t.Fatalf("healthz = %+v, want status ok, not draining, 1 worker, code %s", h, experiments.CodeVersion)
	}

	spec := experiments.Spec{Exps: []string{"table1"}, Seed: 1988}
	for _, cached := range []bool{false, true} {
		got, st, err := cl.Run(ctx, spec, client.SubmitOptions{Wait: 30 * time.Second})
		if err != nil {
			t.Fatalf("submit (cached=%v): %v", cached, err)
		}
		if st.Cached != cached {
			t.Fatalf("submit: cached = %v, want %v", st.Cached, cached)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("served bytes (cached=%v) differ from local pasmbench -json:\nserved:\n%s\nlocal:\n%s", cached, got, want)
		}
	}
	if remote := output(t, "pasmbench", "-remote", daemon.addr, "-exp", "table1", "-seed", "1988", "-json", "-"); !bytes.Equal(remote, want) {
		t.Fatal("pasmbench -remote bytes differ from the local run")
	}

	// Backpressure: A occupies the one worker, B the one queue slot.
	slowA, err := cl.Submit(ctx, slowCell(256, 0, 1), client.SubmitOptions{})
	if err != nil {
		t.Fatalf("slow A: %v", err)
	}
	waitForState(ctx, t, cl, slowA.ID, service.StateRunning)
	slowB, err := cl.Submit(ctx, slowCell(256, 0, 2), client.SubmitOptions{})
	if err != nil {
		t.Fatalf("slow B should queue: %v", err)
	}
	_, err = cl.Submit(ctx, slowCell(256, 0, 3), client.SubmitOptions{})
	if api := wantStatus(t, "queue-full submit", err, 503); api.RetryAfter <= 0 {
		t.Fatal("503 without a Retry-After hint")
	}

	daemon.signal(t, syscall.SIGTERM)
	waitDraining(ctx, t, cl)
	_, err = cl.Submit(ctx, slowCell(256, 0, 4), client.SubmitOptions{})
	wantStatus(t, "submit while draining", err, 503)
	wantDone(ctx, t, cl, []service.JobStatus{slowA, slowB})
	daemon.wait(t, 60*time.Second)
}

// chaosProfile exercises every fault point. Rates are high enough that
// a short run injects every fault class, low enough that each spec
// completes within a few resubmissions. The seed is fixed, so the
// injector's per-point decisions repeat run to run.
const chaosProfile = "admit:error=0.1;cache:error=0.25;" +
	"run:error=0.15,panic=0.1,delay=0.25@20ms;" +
	"http:error=0.12,panic=0.03,delay=0.15@10ms"

// TestChaos: under injected errors, delays and panics at the admission,
// cache, execution and HTTP points, every accepted job settles, every
// spec completes through resubmission with bytes identical to a
// fault-free run, /metrics shows the faults and the client's retries,
// and the daemon still drains cleanly.
func TestChaos(t *testing.T) {
	specs := append([]experiments.Spec{{Exps: []string{"table1"}, Seed: 1988}}, cells(1, 5)...)
	want := reference(t, specs)
	daemon, _ := startPasmd(t, "-queue", "16", "-workers", "2", "-parallel", "2",
		"-chaos-seed", "1988", "-chaos-profile", chaosProfile)
	cl := retrying(daemon.addr, 7)
	ctx := testContext(t, 5*time.Minute)

	for i, spec := range specs {
		got, _, err := runToCompletion(ctx, cl, spec, client.SubmitOptions{}, 40, false)
		if err != nil {
			t.Fatalf("spec %d never completed: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("spec %d: result differs from the fault-free run\nserved:\n%s\nlocal:\n%s", i, got, want[i])
		}
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m["faults/injected_total"] <= 0 || m["service/retried_submits"] <= 0 {
		t.Fatalf("faults/injected_total = %v, service/retried_submits = %v; want both > 0",
			m["faults/injected_total"], m["service/retried_submits"])
	}
	daemon.stop(t, syscall.SIGTERM, 60*time.Second)
}

// TestPartition: pasmd -machine-pes 64 packs jobs onto subcube
// partitions. /healthz advertises the machine size; a pes=32 job
// co-resident with another is byte-identical to a standalone 32-PE
// `pasmbench`; the cache key includes pes; four 16-PE jobs fill the
// machine at once and release it; a loadgen -pes-mix storm completes
// clean; an oversize spec is a 400; and a drain finishes every job,
// including those still waiting for a partition.
func TestPartition(t *testing.T) {
	want := output(t, "pasmbench", "-exp", "table1", "-pes", "32", "-seed", "1988", "-parallel", "2", "-host-timings=false", "-json", "-")
	daemon, cl := startPasmd(t, "-queue", "32", "-machine-pes", "64", "-parallel", "2")
	ctx := testContext(t, 5*time.Minute)

	if h, err := cl.HealthInfo(ctx); err != nil || h.Status != "ok" || h.MachinePEs != 64 {
		t.Fatalf("healthz = %+v (err %v), want status ok, machine_pes 64", h, err)
	}

	// The 16-PE filler lands on a low subcube, so the pes=32 job runs
	// at a nonzero base.
	filler, err := cl.Submit(ctx, slowCell(128, 16, 7001), client.SubmitOptions{})
	if err != nil {
		t.Fatalf("filler submit: %v", err)
	}
	spec := experiments.Spec{Exps: []string{"table1"}, PEs: 32, Seed: 1988}
	wait := client.SubmitOptions{Wait: 60 * time.Second}
	got, st, err := cl.Run(ctx, spec, wait)
	if err != nil || st.Cached {
		t.Fatalf("cold pes=32 submit: cached=%v err=%v", st.Cached, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("partition-resident result differs from standalone pasmbench -pes 32:\nserved:\n%s\nlocal:\n%s", got, want)
	}
	wantDone(ctx, t, cl, []service.JobStatus{filler})

	// The same spec is an identical hit; another pes is a distinct, cold
	// document.
	if again, st, err := cl.Run(ctx, spec, wait); err != nil || !st.Cached || !bytes.Equal(again, got) {
		t.Fatalf("pes=32 resubmit: cached=%v err=%v, want an identical cache hit", st.Cached, err)
	}
	got16, st16, err := cl.Run(ctx, experiments.Spec{Exps: []string{"table1"}, PEs: 16, Seed: 1988}, wait)
	if err != nil || st16.Cached || bytes.Equal(got16, got) {
		t.Fatalf("pes=16 submit: cached=%v err=%v, same bytes as pes=32: %v; want a distinct cold document",
			st16.Cached, err, bytes.Equal(got16, got))
	}

	var packed []service.JobStatus
	for i := 0; i < 4; i++ {
		st, err := cl.Submit(ctx, slowCell(128, 16, uint32(7100+i)), client.SubmitOptions{})
		if err != nil {
			t.Fatalf("packing submit %d: %v", i, err)
		}
		packed = append(packed, st)
	}
	wantDone(ctx, t, cl, packed)
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m["partition/pes_total"] != 64 || m["partition/pes_busy_peak"] != 64 || m["partition/pes_busy"] != 0 ||
		m["partition/leases_total"] != m["partition/releases_total"] {
		t.Fatalf("partition metrics: pes_total %v, pes_busy_peak %v, pes_busy %v, leases %v, releases %v; "+
			"want 64, 64 (four 16-PE jobs co-resident), 0, leases = releases",
			m["partition/pes_total"], m["partition/pes_busy_peak"], m["partition/pes_busy"],
			m["partition/leases_total"], m["partition/releases_total"])
	}

	lgOut := filepath.Join(t.TempDir(), "loadgen.json")
	output(t, "loadgen", "-addr", daemon.addr, "-phase", "cold", "-n", "12", "-c", "4",
		"-pes-mix", "4:0.5,16:0.3,64:0.2", "-out", lgOut)
	var doc struct {
		Phases []struct {
			Requests int `json:"requests"`
			Errors   int `json:"errors"`
		} `json:"phases"`
	}
	if raw, err := os.ReadFile(lgOut); err != nil || json.Unmarshal(raw, &doc) != nil {
		t.Fatalf("loadgen output: %v", err)
	}
	if len(doc.Phases) != 1 || doc.Phases[0].Requests != 12 || doc.Phases[0].Errors != 0 {
		t.Fatalf("loadgen phases = %+v, want 12 requests, 0 errors", doc.Phases)
	}

	_, err = cl.Submit(ctx, experiments.Spec{Exps: []string{"table1"}, PEs: 128, Seed: 1}, client.SubmitOptions{})
	wantStatus(t, "pes=128 on a 64-PE machine", err, 400)

	// Six 32-PE jobs run two at a time, so SIGTERM arrives with most
	// still waiting for a partition.
	var pending []service.JobStatus
	for i := 0; i < 6; i++ {
		st, err := cl.Submit(ctx, slowCell(128, 32, uint32(7200+i)), client.SubmitOptions{})
		if err != nil {
			t.Fatalf("drain submit %d: %v", i, err)
		}
		pending = append(pending, st)
	}
	daemon.signal(t, syscall.SIGTERM)
	waitDraining(ctx, t, cl)
	_, err = cl.Submit(ctx, slowCell(128, 16, 7999), client.SubmitOptions{})
	wantStatus(t, "submit while draining", err, 503)
	wantDone(ctx, t, cl, pending)
	daemon.wait(t, 120*time.Second)
}

// TestSLO: a `-sched sjf` daemon with SLO classes serves the committed
// golden workload trace, replayed open-loop at 2x, without losing a
// request, and /metrics carries per-class latency quantiles, SLO
// verdicts, the scheduler marker and a Jain fairness index in (0,1]. A
// second daemon with -admit-rate answers an over-rate client 429 with
// Retry-After and leaves other and anonymous clients alone.
func TestSLO(t *testing.T) {
	raw, err := os.ReadFile("../../internal/workload/testdata/golden_200.tracev1")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Parse(raw)
	if err != nil {
		t.Fatalf("golden trace: %v", err)
	}
	_, cl := startPasmd(t, "-parallel", "2", "-workers", "2", "-queue", "512",
		"-sched", "sjf", "-classes", "interactive=50,batch=0")
	ctx := testContext(t, 3*time.Minute)

	errs := make([]error, len(tr.Requests))
	var wg sync.WaitGroup
	begin := time.Now()
	for i, r := range tr.Requests {
		time.Sleep(time.Until(begin.Add(time.Duration(r.AtUS/2) * time.Microsecond)))
		wg.Add(1)
		go func(i int, r workload.Request) {
			defer wg.Done()
			_, _, errs[i] = cl.Run(ctx, r.Spec, client.SubmitOptions{
				Wait: 60 * time.Second, Class: r.Class, SLOMs: r.SLOMs, ClientID: r.Client,
			})
		}(i, r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("trace requests failed:\n%v", err)
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m["service/sched_sjf"] != 1 {
		t.Error("metrics do not mark the sjf scheduler")
	}
	for _, class := range []string{"interactive", "batch"} {
		base := "service/class_total_ms/" + class
		if m[base+"/count"] < 1 {
			t.Errorf("no %s class latency histogram", class)
		}
		for _, q := range []string{"/p50", "/p95", "/p99"} {
			if _, ok := m[base+q]; !ok {
				t.Errorf("missing %s quantile %s", class, q)
			}
		}
	}
	if m["service/class_slo_ok/interactive"]+m["service/class_slo_miss/interactive"] < 1 {
		t.Error("no SLO verdicts recorded for the interactive class")
	}
	if j := m["service/fairness_jain"]; !(j > 0 && j <= 1.0000001) {
		t.Errorf("fairness_jain = %v, want in (0,1]", j)
	}

	// Admission: burst 2 at 1/s, so five quick submits from one client
	// cannot all pass.
	_, cl = startPasmd(t, "-parallel", "2", "-workers", "2", "-queue", "64", "-admit-rate", "1", "-admit-burst", "2")
	table1 := func(seed uint32) experiments.Spec { return experiments.Spec{Exps: []string{"table1"}, Seed: seed} }
	limited := 0
	for i := 0; i < 5; i++ {
		_, err := cl.Submit(ctx, table1(uint32(100+i)), client.SubmitOptions{ClientID: "greedy"})
		if err != nil {
			if api := wantStatus(t, "greedy submit", err, 429); api.RetryAfter <= 0 {
				t.Fatal("429 without a Retry-After hint")
			}
			limited++
		}
	}
	if limited == 0 {
		t.Fatal("a greedy burst of 5 was never rate-limited (burst 2, rate 1/s)")
	}
	if _, err := cl.Submit(ctx, table1(200), client.SubmitOptions{ClientID: "polite"}); err != nil {
		t.Fatalf("a distinct client was limited: %v", err)
	}
	if _, err := cl.Submit(ctx, table1(201), client.SubmitOptions{}); err != nil {
		t.Fatalf("an anonymous submit was limited: %v", err)
	}
}

// TestTraceExport: pasmrun's -trace-out writes a valid Chrome trace for
// an S/MIMD, a SIMD and a mixed-mode job.
func TestTraceExport(t *testing.T) {
	for _, mode := range []string{"smimd", "simd", "mixed"} {
		file := filepath.Join(t.TempDir(), mode+".trace.json")
		output(t, "pasmrun", "-n", "8", "-p", "2", "-mode", mode, "-trace-out", file)
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ValidateChromeTrace(data); err != nil {
			t.Errorf("%s trace: %v", mode, err)
		}
	}
}
